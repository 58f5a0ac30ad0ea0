// Command perfbench is popcount's end-to-end and per-layer benchmark.
//
//	bash perfbench/run.sh --workload batched-approx --seed 1 --seconds 55 --trace 0
//
// It runs one workload for the given number of seconds, checks every
// output, prints each metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run is split
// into an untraced half and a traced replay of it, and the metrics are
// the per-layer ones. NOTES.md says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"popcount"
)

// endToEndMetrics and perLayerMetrics list every metric a run reports,
// with its unit; BENCHMARK.json lists the same names.
var endToEndMetrics = [][2]string{
	{"interactions_per_s", "1/s"},
	{"trial_s_p50", "s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = [][2]string{
	{"popcount.step_ns_per_interaction", "ns"},
	{"popcount.step_ms_p50", "ms"},
	{"popcount.step_ms_p99", "ms"},
	{"popcount.poll_us_p50", "us"},
	{"popcount.poll_share", "frac"},
	{"popcount.new_sim_ms", "ms"},
	{"popcount.snapshot_ms", "ms"},
	{"popcount.snapshot_bytes", "bytes"},
	{"popcount.restore_ms", "ms"},
	{"core.spec_new_ms", "ms"},
	{"rng.pair_ns", "ns"},
	{"rng.binomial_ns", "ns"},
	{"sim.memo.hit_ns", "ns"},
	{"sim.memo.miss_ns", "ns"},
	{"sim.memo.hit_frac", "frac"},
	{"sim.memo.pairs", "count"},
	{"sim.intern.discovered", "count"},
	{"countdist.find_ns", "ns"},
	{"countdist.add_ns", "ns"},
	{"countdist.occupied", "count"},
	{"sim.count.delta_calls_per_interaction", "frac"},
	{"sim.batch.epochs", "count"},
	{"sim.batch.interactions_per_epoch", "count"},
	{"sim.batch.epoch_us", "us"},
	{"sim.batch.violation_frac", "frac"},
	{"sim.batch.half_reuse_frac", "frac"},
	{"sim.shard.blocks_per_epoch", "count"},
	{"sim.shard.merge_conflict_frac", "frac"},
	{"sim.shard.steal_events", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.hit_submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_s_p50", "s"},
	{"service.result_ms_p50", "ms"},
	{"service.result_bytes", "bytes"},
	{"service.checkpoints_per_job", "count"},
	{"service.cache_hit_frac", "frac"},
	{"service.canonicalize_us", "us"},
	{"service.fingerprint_us", "us"},
	{"service.marshal_doc_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// workloads maps each workload name to its runner. NOTES.md records why
// each was chosen.
var workloads = map[string]func(runConfig) (*report, error){
	"batched-approx": simWorkload{alg: popcount.Approximate, n: 1 << 16, engine: popcount.EngineCountBatched,
		alternate: true}.run,
	"service-mix": runServiceMix,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	dur     time.Duration
	trace   bool
	workDir string // scratch space inside the checkout
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects a run's metrics, sample counts and checks.
type report struct {
	metrics []metric
	notes   []string
	tally   tally
	spans   *Recorder
}

func newReport() *report { return &report{} }

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// samples notes a timing's sample count and the highest percentile the
// count supports (at least 10 samples beyond it).
func (r *report) samples(what string, n int) {
	tail := "none"
	if p := tailPercentile(n); p > 0 {
		tail = fmt.Sprintf("p%g", p)
	}
	r.notes = append(r.notes, fmt.Sprintf("samples %s: %d (highest percentile with >= %d beyond: %s)", what, n, minBeyond, tail))
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricOutJSON `json:"metrics"`
}

type metricOutJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect checks that the report holds exactly the expected metrics,
// each once and with the listed unit, and returns them by name.
func (r *report) collect(want [][2]string) (map[string]metricOutJSON, error) {
	got := make(map[string]metricOutJSON)
	for _, m := range r.metrics {
		if _, dup := got[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = metricOutJSON{m.Value, m.Unit}
	}
	var errs []string
	for _, w := range want {
		m, ok := got[w[0]]
		switch {
		case !ok:
			errs = append(errs, "missing "+w[0])
		case m.Unit != w[1]:
			errs = append(errs, fmt.Sprintf("%s has unit %s, want %s", w[0], m.Unit, w[1]))
		}
	}
	if len(got) != len(want) {
		errs = append(errs, fmt.Sprintf("%d metrics reported, %d expected", len(got), len(want)))
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("metric set: %s", strings.Join(errs, "; "))
	}
	return got, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every trial and job seed derives from it")
	seconds := flag.Int("seconds", 55, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span and result files")
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	// At most two busy threads: the simulation workloads run one trial
	// at a time, with at most two shards; service-mix runs two workers.
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	// The work directory holds service-mix's daemon state directories.
	// It is left in place: removing a run's hundreds of directories at
	// exit slowed the daemon starts of the run after it, and so its
	// setup_s, by up to three times.
	workDir, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		return err
	}

	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, workDir: workDir}
	mach := machine()
	rep, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
	}
	metrics, err := rep.collect(want)
	if err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *traceFlag)
	machJSON, err := json.Marshal(mach)
	if err != nil {
		return err
	}
	fmt.Printf("machine %s\n", machJSON)
	for _, w := range want {
		fmt.Printf("metric %-40s %14.6g %s\n", w[0], metrics[w[0]].Value, w[1])
	}
	fmt.Printf("metric %-40s %14.6g frac (%d of %d checked operations)\n", "failed_frac", rep.tally.failedFrac(), rep.tally.failed, rep.tally.attempted)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, reason := range rep.tally.reasons {
		fmt.Println("FAILED", reason)
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFlag)
	if rep.spans != nil {
		if err := rep.spans.WriteJSONL(filepath.Join(*outDir, base+".spans.jsonl")); err != nil {
			return err
		}
	}
	res := result{
		Correct:   rep.tally.failed == 0 && rep.tally.attempted > 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   metrics,
	}
	if err := writeRecord(filepath.Join(*outDir, base+".json"), *workload, cfg, mach, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores the result together with the machine it was
// measured on.
func writeRecord(path, workload string, cfg runConfig, mach Machine, res result) error {
	rec := struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    bool    `json:"trace"`
		Machine  Machine `json:"machine"`
		Result   result  `json:"result"`
	}{workload, cfg.seed, cfg.dur.Seconds(), cfg.trace, mach, res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
