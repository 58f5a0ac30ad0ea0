package main

import (
	"fmt"
	"runtime"
	"time"

	"popcount"
	"popcount/internal/sim"
)

// simWorkload runs one protocol on one engine, trial after trial, with
// every trial's seed derived from the run's --seed.
type simWorkload struct {
	alg    popcount.Algorithm
	n      int
	engine popcount.EngineKind
	// alternate switches odd trials to WithIntraRunParallelism(2), so
	// the serial and the sharded batch planner are both exercised.
	alternate bool
}

// hitsPerTrial is how often a trial's request is repeated after the
// trial finished (see runTrial): enough for each trial's own p90 to have
// 500 samples beyond it.
const hitsPerTrial = 5000

// setupsPerTrial is how many simulations are built and timed after each
// trial; setup_s is the median over the run, so it averages over the
// whole run rather than the moment the process started.
const setupsPerTrial = 25

// calibPerTrial is how many calibration samples (calib.go) an untimed
// pass takes after each trial, about 0.1 s.
const calibPerTrial = 5

// shards returns trial i's intra-run shard count (0 = serial planner).
func (w simWorkload) shards(i int) int {
	if w.alternate && i%2 == 1 {
		return 2
	}
	return 0
}

func (w simWorkload) opts(seed uint64, shards int) []popcount.Option {
	opts := []popcount.Option{popcount.WithSeed(seed), popcount.WithEngine(w.engine)}
	if shards > 0 {
		opts = append(opts, popcount.WithIntraRunParallelism(shards))
	}
	return opts
}

// outputOK reports whether a converged trial's output is the paper's
// answer: n for CountExact, ⌊log₂ n⌋ or ⌈log₂ n⌉ for Approximate.
func outputOK(alg popcount.Algorithm, n int, out int64) bool {
	switch alg {
	case popcount.CountExact:
		return out == int64(n)
	case popcount.Approximate:
		return out == int64(sim.Log2Floor(n)) || out == int64(sim.Log2Ceil(n))
	}
	return false
}

// trialOut is one finished trial.
type trialOut struct {
	idx    int
	seed   uint64
	shards int
	res    popcount.Result
	stats  popcount.EngineStats
	wall   time.Duration
	hits   []time.Duration
	err    error
	hitBad int // repeated requests the library rejected
	setups []time.Duration
	// snapBytes is the size of the traced trial's mid-run snapshot.
	snapBytes int
}

// trial runs one untraced trial the way popcount.Count does
// (NewSimulation, then RunToConvergence), keeping the Simulation for its
// Stats. It starts on a freshly collected heap, so it does not pay for
// the garbage of what ran before it.
func (w simWorkload) trial(idx int, seed uint64) trialOut {
	out := trialOut{idx: idx, seed: seed, shards: w.shards(idx)}
	runtime.GC()
	t0 := time.Now()
	s, err := popcount.NewSimulation(w.alg, w.n, w.opts(seed, out.shards)...)
	if err != nil {
		out.err = err
		return out
	}
	out.res, out.err = s.RunToConvergence()
	out.wall = time.Since(t0)
	out.stats = s.Stats()
	return out
}

// runTrial runs one untraced trial, then repeats the trial's request
// hitsPerTrial times. The library keeps no results, so its share of a
// repeated request is what popcountd's cache-hit path calls it for:
// popcount.Validate of the request, which must accept it again.
// Re-asking the finished Simulation would be a closer analogue, but on
// the count engines its cost follows the number of states the
// trajectory discovered, so the figure would track the seed more than
// the code.
//
// The repeats, too, start on a freshly collected heap. Last come
// setupsPerTrial timed constructions of a fresh simulation.
func (w simWorkload) runTrial(idx int, seed uint64) trialOut {
	out := w.trial(idx, seed)
	if out.err != nil {
		return out
	}
	opts := w.opts(seed, out.shards)
	runtime.GC()
	for h := 0; h < hitsPerTrial; h++ {
		t := time.Now()
		err := popcount.Validate(w.alg, w.n, opts...)
		out.hits = append(out.hits, time.Since(t))
		if err != nil {
			out.hitBad++
		}
	}
	for i := 0; i < setupsPerTrial; i++ {
		t := time.Now()
		_, err := popcount.NewSimulation(w.alg, w.n, w.opts(deriveSeed(seed, "setup", i), out.shards)...)
		out.setups = append(out.setups, time.Since(t))
		if err != nil {
			out.err = fmt.Errorf("set-up: %w", err)
		}
	}
	return out
}

// checkTrial counts one trial into the tally.
func (w simWorkload) checkTrial(t *tally, o trialOut) {
	switch {
	case o.err != nil:
		t.check(false, fmt.Sprintf("trial %d: %v", o.idx, o.err))
	case !o.res.Converged:
		t.check(false, fmt.Sprintf("trial %d: not converged after %d interactions", o.idx, o.res.Total))
	case !outputOK(w.alg, w.n, o.res.Output):
		t.check(false, fmt.Sprintf("trial %d: output %d", o.idx, o.res.Output))
	case o.hitBad > 0:
		t.check(false, fmt.Sprintf("trial %d: %d repeated requests rejected", o.idx, o.hitBad))
	default:
		t.check(true, "")
	}
}

// forTrials runs fn over trial indices 0, 1, … one after another while
// more(idx) holds, and returns the outputs in index order.
func forTrials(more func(idx int) bool, fn func(idx int) trialOut) []trialOut {
	var outs []trialOut
	for idx := 0; more(idx); idx++ {
		outs = append(outs, fn(idx))
	}
	return outs
}

// untracedPass starts trials until the duration has passed and returns
// them with the pass's wall time, calibration left out. It runs at least
// two, and an alternating workload runs whole serial/sharded pairs, so
// every run has the same planner mix. cal, when non-nil, is sampled
// after every trial.
func (w simWorkload) untracedPass(seed uint64, dur time.Duration, cal *calibrator) ([]trialOut, time.Duration) {
	start := time.Now()
	spent := cal.timeSpent()
	more := func(idx int) bool {
		return idx < 2 || w.alternate && idx%2 == 1 || time.Since(start) < dur
	}
	outs := forTrials(more, func(idx int) trialOut {
		o := w.runTrial(idx, deriveSeed(seed, "trial", idx))
		cal.sample(calibPerTrial)
		return o
	})
	return outs, time.Since(start) - (cal.timeSpent() - spent)
}

// endToEnd computes the simulation workloads' end-to-end metrics. A job
// is one requested trial here, so job_s is the trial time.
// interactions_per_s is the median of the trials' own rates: some
// Approximate trajectories run about twice as many interactions at
// about three times the rate, so a total over a handful of trials would
// follow how many of those the seed drew.
//
// hit_ms_p50 and hit_ms_p90 are the medians over the trials of each
// trial's own p50 and p90. One trial's repeats take about 10 ms, and a
// stall of the machine can slow all of them; pooled, in a run of six
// trials such a trial was a sixth of the samples and moved the run's
// p90 by up to a half.
func (w simWorkload) endToEnd(rep *report, outs []trialOut, window time.Duration) {
	var walls, rates, hitP50, hitP90, setups []float64
	hits := 0
	for _, o := range outs {
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, ratio(float64(o.res.Total), o.wall.Seconds()))
		var hs []float64
		for _, h := range o.hits {
			hs = append(hs, float64(h)/float64(time.Millisecond))
		}
		hitP50 = append(hitP50, median(hs))
		hitP90 = append(hitP90, percentile(hs, 90))
		hits += len(hs)
		for _, d := range o.setups {
			setups = append(setups, d.Seconds())
		}
	}
	rep.add("interactions_per_s", median(rates), "1/s")
	rep.add("trial_s_p50", median(walls), "s")
	rep.add("job_s_p50", median(walls), "s")
	rep.add("job_s_p90", percentile(walls, 90), "s")
	rep.add("hit_ms_p50", median(hitP50), "ms")
	rep.add("hit_ms_p90", median(hitP90), "ms")
	rep.add("jobs_per_s", ratio(float64(len(outs)), window.Seconds()), "1/s")
	rep.add("setup_s", median(setups), "s")
	for _, o := range outs {
		rep.notes = append(rep.notes, fmt.Sprintf("trial %d shards %d: %d interactions in %.3f s", o.idx, o.shards, o.res.Total, o.wall.Seconds()))
	}
	rep.samples("trial_s / job_s", len(walls))
	rep.samples("hit_ms", hits)
}

// run is the simulation workloads' entry point.
func (w simWorkload) run(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		cal := newCalibrator()
		outs, window := w.untracedPass(cfg.seed, cfg.dur, cal)
		for _, o := range outs {
			w.checkTrial(&rep.tally, o)
		}
		w.endToEnd(rep, outs, window)
		rep.add("peak_rss_mb", peakRSSMB(), "MB")
		rep.normalize(cal)
		return rep, nil
	}

	// Traced run: half the time untraced, then the same trials again
	// with spans, which must reproduce them exactly.
	outs, _ := w.untracedPass(cfg.seed, cfg.dur/2, nil)
	for _, o := range outs {
		w.checkTrial(&rep.tally, o)
	}
	rec := NewRecorder()
	traced := forTrials(func(idx int) bool { return idx < len(outs) }, func(idx int) trialOut {
		return w.traceTrial(rec, outs[idx])
	})
	overhead := checkTraced(&rep.tally, outs, traced)
	popcountLayers(rep, rec.Spans(), traced)
	engineLayers(rep, rec.Spans(), traced)
	rep.add("trace.overhead_frac", overhead, "frac")

	ls, err := replayLayers(layerInput{alg: w.alg, n: w.n, engine: w.engine,
		seed: outs[0].seed, interactions: outs[0].res.Interactions})
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	ls.report(rep)
	noServiceLayers(rep)
	rep.spans = rec
	return rep, nil
}

// checkTraced checks that every traced trial reproduced its untraced
// twin exactly (interactions, output, every Stats counter) and returns
// the traced trials' summed wall time over the untraced ones', minus 1.
func checkTraced(t *tally, untraced, traced []trialOut) float64 {
	var untracedWall, tracedWall time.Duration
	for i, tr := range traced {
		want := untraced[i]
		untracedWall += want.wall
		tracedWall += tr.wall
		same := tr.err == nil && tr.res.Interactions == want.res.Interactions &&
			tr.res.Total == want.res.Total && tr.res.Output == want.res.Output &&
			tr.res.Converged == want.res.Converged && tr.stats == want.stats
		t.check(same, fmt.Sprintf("trial %d: traced run differs from untraced (err %v, %+v vs %+v, stats %+v vs %+v)",
			tr.idx, tr.err, tr.res, want.res, tr.stats, want.stats))
	}
	return ratio(float64(tracedWall), float64(untracedWall)) - 1
}

// trialTrace is the trace id of trial idx's spans.
func trialTrace(idx int) uint64 { return uint64(idx) + 1 }

// traceTrial reruns an untraced trial through the loop RunToConvergence
// runs (poll, then Step(n) and poll until converged or capped), with a
// span around every call. At the first poll past half the trial's
// length it snapshots the simulation and restores the snapshot, which
// must land on the same interaction count; those probes are excluded
// from the trial's wall time.
func (w simWorkload) traceTrial(rec *Recorder, want trialOut) trialOut {
	out := trialOut{idx: want.idx, seed: want.seed, shards: want.shards}
	tr := rec.Start(trialTrace(want.idx))
	defer tr.Finish()
	runtime.GC() // as in runTrial
	t0 := time.Now()
	root := tr.Begin("trial", 0)
	sp := tr.Begin("popcount.NewSimulation", root)
	s, err := popcount.NewSimulation(w.alg, w.n, w.opts(want.seed, want.shards)...)
	tr.End(sp)
	if err != nil {
		out.err = err
		return out
	}
	maxI := sim.DefaultMaxInteractions(w.n)
	check := int64(w.n)
	probeAt := want.res.Interactions / 2
	var probes time.Duration
	poll := func() bool {
		id := tr.Begin("popcount.Converged", root)
		c := s.Converged()
		tr.End(id)
		return c
	}
	conv := poll()
	for !conv && s.Interactions() < maxI {
		batch := check
		if rem := maxI - s.Interactions(); rem < batch {
			batch = rem
		}
		id := tr.Begin("popcount.Step", root)
		s.Step(batch)
		tr.End(id)
		conv = poll()
		if probeAt > 0 && s.Interactions() >= probeAt {
			probeAt = 0
			p0 := time.Now()
			out.snapBytes, err = snapshotProbe(tr, root, s)
			if err != nil {
				out.err = err
			}
			probes += time.Since(p0)
		}
	}
	tr.End(root)
	out.wall = time.Since(t0) - probes
	out.res = popcount.Result{Converged: conv, Interactions: s.Interactions(), Total: s.Interactions(), Output: s.Output(0)}
	out.stats = s.Stats()
	return out
}

// snapshotProbe snapshots s and restores the snapshot, under spans, and
// returns the snapshot's size in bytes.
func snapshotProbe(tr *Trace, parent int, s *popcount.Simulation) (int, error) {
	id := tr.Begin("popcount.Snapshot", parent)
	blob, err := s.Snapshot()
	tr.End(id)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	id = tr.Begin("popcount.RestoreSimulation", parent)
	r, err := popcount.RestoreSimulation(blob)
	tr.End(id)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	if r.Interactions() != s.Interactions() {
		return 0, fmt.Errorf("restored simulation at %d interactions, snapshot taken at %d", r.Interactions(), s.Interactions())
	}
	return len(blob), nil
}

// popcountLayers derives the popcount layer metrics from the traced
// trials' spans.
func popcountLayers(rep *report, spans []Span, sims []trialOut) {
	names := byName(spans)
	steps, polls := names["popcount.Step"], names["popcount.Converged"]
	var stepped, stepTime, pollTime float64
	for _, s := range sims {
		stepped += float64(s.res.Total)
	}
	for _, s := range steps {
		stepTime += float64(s.Dur())
	}
	for _, s := range polls {
		pollTime += float64(s.Dur())
	}
	rep.add("popcount.step_ns_per_interaction", ratio(stepTime, stepped), "ns")
	rep.add("popcount.step_ms_p50", median(durations(steps, time.Millisecond)), "ms")
	rep.add("popcount.step_ms_p99", percentile(durations(steps, time.Millisecond), 99), "ms")
	rep.add("popcount.poll_us_p50", median(durations(polls, time.Microsecond)), "us")
	rep.add("popcount.poll_share", ratio(pollTime, pollTime+stepTime), "frac")
	rep.add("popcount.new_sim_ms", median(durations(names["popcount.NewSimulation"], time.Millisecond)), "ms")
	rep.add("popcount.snapshot_ms", median(durations(names["popcount.Snapshot"], time.Millisecond)), "ms")
	var snapBytes []float64
	for _, s := range sims {
		if s.snapBytes > 0 {
			snapBytes = append(snapBytes, float64(s.snapBytes))
		}
	}
	rep.add("popcount.snapshot_bytes", median(snapBytes), "bytes")
	rep.add("popcount.restore_ms", median(durations(names["popcount.RestoreSimulation"], time.Millisecond)), "ms")
	rep.samples("popcount.Step spans", len(steps))
	rep.samples("popcount.Converged spans", len(polls))
}

// engineLayers derives the count engine, planner and shard counter
// metrics from the given traced trials' Stats and Step spans only.
func engineLayers(rep *report, spans []Span, sims []trialOut) {
	var st, sharded popcount.EngineStats
	var stepped float64
	var shardedTrials int
	traces := make(map[uint64]bool)
	for _, s := range sims {
		stepped += float64(s.res.Total)
		traces[trialTrace(s.idx)] = true
		st = addStats(st, s.stats)
		if s.shards > 1 {
			sharded = addStats(sharded, s.stats)
			shardedTrials++
		}
	}
	selfs := selfTimes(spans)
	var epochTime float64
	for _, s := range byName(spans)["popcount.Step"] {
		if traces[s.Trace] {
			epochTime += float64(selfs[[2]uint64{s.Trace, uint64(s.ID)}])
		}
	}
	rep.add("sim.count.delta_calls_per_interaction", ratio(float64(st.DeltaCalls), stepped), "frac")
	rep.add("sim.batch.epochs", ratio(float64(st.Epochs), float64(len(sims))), "count")
	rep.add("sim.batch.interactions_per_epoch", ratio(stepped, float64(st.Epochs)), "count")
	rep.add("sim.batch.epoch_us", ratio(epochTime/float64(time.Microsecond), float64(st.Epochs)), "us")
	rep.add("sim.batch.violation_frac", ratio(float64(st.Violations), float64(st.Epochs)), "frac")
	rep.add("sim.batch.half_reuse_frac", ratio(float64(st.HalfReuses), float64(st.HalfReuses+st.HalfDiscards)), "frac")
	rep.add("sim.shard.blocks_per_epoch", ratio(float64(sharded.ShardBlocks), float64(sharded.ShardEpochs)), "count")
	rep.add("sim.shard.merge_conflict_frac", ratio(float64(sharded.MergeConflicts), float64(sharded.ShardEpochs)), "frac")
	rep.add("sim.shard.steal_events", ratio(float64(sharded.StealEvents), float64(shardedTrials)), "count")
}

// addStats sums the engine counters the layer metrics use.
func addStats(a, b popcount.EngineStats) popcount.EngineStats {
	a.DeltaCalls += b.DeltaCalls
	a.Epochs += b.Epochs
	a.Violations += b.Violations
	a.HalfReuses += b.HalfReuses
	a.HalfDiscards += b.HalfDiscards
	a.ShardEpochs += b.ShardEpochs
	a.ShardBlocks += b.ShardBlocks
	a.MergeConflicts += b.MergeConflicts
	a.StealEvents += b.StealEvents
	return a
}
