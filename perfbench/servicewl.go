package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"popcount"
	"popcount/internal/service"
)

// The service-mix workload drives an in-process popcountd over loopback
// HTTP with one closed-loop client. Each cycle submits one fresh
// single-trial job from serviceMenu, in the order menuOrder gives, waits
// for "done" on the job's event stream, fetches the result, then
// resubmits hitsPerCycle requests the client already completed (seeded
// draw) and fetches their cached results.
var serviceMenu = []service.JobRequest{
	{Algorithm: "approximate", N: 1024, Engine: "count"},
	{Algorithm: "exact", N: 4096, Engine: "agent"},
}

// menuOrder is the client's walk over serviceMenu: two CountExact jobs
// to one Approximate job. The Approximate jobs are the shorter ones, so
// with this mix the job-time median and p90 fall inside the CountExact
// jobs' times; at one to one the median would sit on the gap between
// the two entries and jump with the run's seed.
var menuOrder = []int{1, 0, 1}

const (
	serviceWorkers = 2
	hitsPerCycle   = 32
	// jobTimeout bounds one fresh job; the menu jobs take about a second.
	jobTimeout = 120 * time.Second
	// directReps is how many times each direct service call is repeated
	// per timing.
	directReps = 200
	// setupsPerCycle is how many daemons are started and stopped after
	// each cycle to measure set-up; setup_s is the median over the run.
	setupsPerCycle = 3
)

// daemon is an in-process popcountd serving on a loopback port.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}

// startDaemon opens a popcountd on a fresh state directory (2 workers,
// default checkpoint interval) and returns once /healthz answers.
func startDaemon(dir string) (*daemon, error) {
	srv, err := service.New(service.Config{Dir: dir, Workers: serviceWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, waits for the HTTP server and drains the
// worker pool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Shutdown()
	return err
}

// hitOut is one resubmission of a completed request.
type hitOut struct {
	total time.Duration
	err   error
}

// cycleOut is one client cycle: a fresh job and its resubmissions.
type cycleOut struct {
	cycle int
	req   service.JobRequest
	id    string
	// Client-side times of the fresh job: submit sent, submit reply,
	// "running" and "done" read off the event stream, result start and
	// result bytes received.
	submitAt, acceptedAt, runningAt, doneAt, resultEnd time.Time
	doc                                                []byte
	err                                                error
	hits                                               []hitOut
}

func (c cycleOut) jobDur() time.Duration { return c.resultEnd.Sub(c.submitAt) }
func (c cycleOut) runDur() time.Duration { return c.doneAt.Sub(c.runningAt) }

// clientPlan derives the client's fresh requests and resubmission
// choices from the run's seed, so both depend on the seed alone.
type clientPlan struct {
	seed uint64
	rnd  *rand.Rand
}

func newClientPlan(seed uint64) *clientPlan {
	s := deriveSeed(seed, "resubmit", 0)
	return &clientPlan{seed: seed, rnd: rand.New(rand.NewPCG(s, s^0x5851f42d4c957f2d))}
}

// fresh returns the request of cycle k. The menu is walked in menuOrder,
// so every run submits the same mix and only the seeds differ.
func (p *clientPlan) fresh(k int) service.JobRequest {
	req := serviceMenu[menuOrder[k%len(menuOrder)]]
	req.Seed = deriveSeed(p.seed, "job", k)
	return req
}

// submit posts a request and returns the status code and decoded reply.
func (d *daemon) submit(ctx context.Context, req service.JobRequest) (int, struct{ ID, State string }, error) {
	var st struct{ ID, State string }
	body, err := json.Marshal(req)
	if err != nil {
		return 0, st, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(hreq)
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("submit reply %q: %w", data, err)
	}
	return resp.StatusCode, st, nil
}

// get fetches a URL and returns the status code and body.
func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpClient.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// awaitDone reads the job's event stream until a terminal event and
// records when "running" and "done" arrived.
func (d *daemon) awaitDone(ctx context.Context, id string, c *cycleOut) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event %q: %w", sc.Bytes(), err)
		}
		switch ev.Type {
		case "running":
			c.runningAt = time.Now()
		case "done":
			c.doneAt = time.Now()
			if c.runningAt.IsZero() {
				return errors.New("done before running")
			}
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("job %s: %s", ev.Type, ev.Message)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before a terminal event")
}

// runCycle runs one client cycle. tr, when non-nil, records its spans.
// completed holds the client's earlier cycles, which the resubmissions
// draw from.
func (d *daemon) runCycle(p *clientPlan, k int, completed []cycleOut, tr *Trace) cycleOut {
	c := cycleOut{cycle: k, req: p.fresh(k)}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	root := tr.Begin("service.job", 0)
	defer tr.End(root)

	c.submitAt = time.Now()
	sp := tr.Begin("service.submit", root)
	code, st, err := d.submit(ctx, c.req)
	tr.End(sp)
	c.acceptedAt = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("fresh submit: status %d, want %d", code, http.StatusAccepted)
	}
	if err != nil {
		c.err = err
		return c
	}
	c.id = st.ID
	if err := d.awaitDone(ctx, c.id, &c); err != nil {
		c.err = err
		return c
	}
	tr.Add("service.queue_wait", root, c.acceptedAt, c.runningAt)
	tr.Add("service.run", root, c.runningAt, c.doneAt)
	sp = tr.Begin("service.result", root)
	code, c.doc, err = d.get(ctx, "/v1/jobs/"+c.id+"/result")
	tr.End(sp)
	c.resultEnd = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: status %d", code)
	}
	if err == nil {
		err = checkDoc(c.req, c.doc)
	}
	if err != nil {
		c.err = err
		return c
	}

	pool := append(completed, c)
	for h := 0; h < hitsPerCycle; h++ {
		prev := pool[p.rnd.IntN(len(pool))]
		c.hits = append(c.hits, d.hit(ctx, prev, tr, root))
	}
	return c
}

// hit resubmits a completed request and fetches its cached result, which
// must be byte-identical to the first document.
func (d *daemon) hit(ctx context.Context, prev cycleOut, tr *Trace, parent int) hitOut {
	var h hitOut
	t0 := time.Now()
	sp := tr.Begin("service.hit_submit", parent)
	code, st, err := d.submit(ctx, prev.req)
	tr.End(sp)
	if err == nil && (code != http.StatusOK || st.State != "done" || st.ID != prev.id) {
		err = fmt.Errorf("resubmit of %s: status %d state %q id %s", prev.id, code, st.State, st.ID)
	}
	if err != nil {
		h.err = err
		return h
	}
	sp = tr.Begin("service.result", parent)
	code, doc, err := d.get(ctx, "/v1/jobs/"+prev.id+"/result")
	tr.End(sp)
	h.total = time.Since(t0)
	switch {
	case err != nil:
		h.err = err
	case code != http.StatusOK:
		h.err = fmt.Errorf("cached result: status %d", code)
	case !bytes.Equal(doc, prev.doc):
		h.err = fmt.Errorf("cached result of %s differs from the first document", prev.id)
	}
	return h
}

// checkDoc checks a fresh job's result document: one converged trial
// with the paper's answer, for the request that was sent.
func checkDoc(req service.JobRequest, data []byte) error {
	var doc service.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	alg, err := popcount.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return err
	}
	if len(doc.Trials) != 1 || doc.Request.Seed != req.Seed || doc.Request.N != req.N {
		return fmt.Errorf("result document for seed %d n %d has %d trials for seed %d n %d",
			doc.Request.Seed, doc.Request.N, len(doc.Trials), req.Seed, req.N)
	}
	tr := doc.Trials[0]
	if !tr.Converged || !outputOK(alg, req.N, tr.Output) {
		return fmt.Errorf("job %s n=%d seed %d: converged %t output %d", req.Algorithm, req.N, req.Seed, tr.Converged, tr.Output)
	}
	return nil
}

// docTrial decodes the single trial of a checked result document.
func docTrial(data []byte) service.TrialDoc {
	var doc service.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Trials) == 0 {
		return service.TrialDoc{}
	}
	return doc.Trials[0]
}

// servicePass runs the client's cycles one after another: with a
// duration, it starts cycles until that time has passed; with a count,
// it runs exactly count cycles. after, when non-nil, runs after every
// completed cycle; its time is left out of the returned wall time. A
// failed cycle ends the pass; it counts as failed.
func (d *daemon) servicePass(seed uint64, dur time.Duration, count int, rec *Recorder, after func() error) ([]cycleOut, time.Duration, error) {
	start := time.Now()
	var aside time.Duration
	p := newClientPlan(seed)
	var out []cycleOut
	for k := 0; count > 0 && k < count || count == 0 && time.Since(start)-aside < dur; k++ {
		tr := rec.Start(uint64(k) + 1)
		cyc := d.runCycle(p, k, out, tr)
		tr.Finish()
		out = append(out, cyc)
		if cyc.err != nil {
			break
		}
		if after != nil {
			t := time.Now()
			if err := after(); err != nil {
				return out, 0, err
			}
			aside += time.Since(t)
		}
	}
	return out, time.Since(start) - aside, nil
}

// checkCycles counts every fresh job and resubmission into the tally.
func checkCycles(t *tally, cycles []cycleOut) {
	for _, c := range cycles {
		if c.err != nil {
			t.check(false, fmt.Sprintf("cycle %d: %v", c.cycle, c.err))
			continue
		}
		t.check(true, "")
		for _, h := range c.hits {
			if h.err != nil {
				t.check(false, fmt.Sprintf("cycle %d resubmission: %v", c.cycle, h.err))
			} else {
				t.check(true, "")
			}
		}
	}
}

// daemonSetups starts and stops daemons on fresh state directories under
// workDir, appending each one's time to a healthy daemon to xs.
type daemonSetups struct {
	workDir string
	xs      []float64
}

// start starts one daemon and times it.
func (s *daemonSetups) start() (*daemon, error) {
	t0 := time.Now()
	d, err := startDaemon(filepath.Join(s.workDir, fmt.Sprintf("state-%d", len(s.xs))))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.xs = append(s.xs, time.Since(t0).Seconds())
	return d, nil
}

// probe starts and stops setupsPerCycle daemons, on a freshly
// collected heap so no start pays for the cycle's garbage.
func (s *daemonSetups) probe() error {
	for i := 0; i < setupsPerCycle; i++ {
		d, err := s.start()
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return err
		}
	}
	return nil
}

// runServiceMix is the service-mix workload's entry point. Set-up is
// timed on the daemon the cycles run on and on setupsPerCycle more
// after every cycle, so setup_s spans the whole run.
func runServiceMix(cfg runConfig) (*report, error) {
	rep := newReport()
	setups := &daemonSetups{workDir: cfg.workDir}
	d, err := setups.start()
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		cal := newCalibrator()
		after := func() error {
			if err := setups.probe(); err != nil {
				return err
			}
			cal.sample(1)
			return nil
		}
		cycles, window, err := d.servicePass(cfg.seed, cfg.dur, 0, nil, after)
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		checkCycles(&rep.tally, cycles)
		serviceEndToEnd(rep, cycles, window, median(setups.xs))
		rep.add("peak_rss_mb", peakRSSMB(), "MB")
		rep.samples("setup_s", len(setups.xs))
		rep.normalize(cal)
		return rep, nil
	}

	// Traced run: half the time untraced, then the same cycles again on
	// a second fresh daemon with spans; every document must come out
	// byte-identical.
	untraced, _, err := d.servicePass(cfg.seed, cfg.dur/2, 0, nil, nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	checkCycles(&rep.tally, untraced)
	if d, err = setups.start(); err != nil {
		return nil, err
	}
	rec := NewRecorder()
	traced, _, err := d.servicePass(cfg.seed, 0, len(untraced), rec, nil)
	metricsText, mErr := scrapeMetrics(d)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = mErr
	}
	if err != nil {
		return nil, err
	}
	checkCycles(&rep.tally, traced)
	for k, u := range untraced {
		if k >= len(traced) || u.err != nil {
			continue
		}
		t := traced[k]
		rep.tally.check(t.err == nil && bytes.Equal(t.doc, u.doc),
			fmt.Sprintf("cycle %d: traced document differs from untraced", k))
	}

	serviceLayers(rep, rec, traced, metricsText)
	if err := directServiceCalls(rep, traced); err != nil {
		return nil, err
	}
	if err := libraryReplays(rep, rec, traced); err != nil {
		return nil, err
	}
	rep.spans = rec
	return rep, nil
}

// serviceEndToEnd computes service-mix's end-to-end metrics. A trial is
// one fresh job's run inside a worker ("running" to "done").
func serviceEndToEnd(rep *report, cycles []cycleOut, window time.Duration, setup float64) {
	var jobs, runs, rates, hits []float64
	for _, c := range cycles {
		if c.err != nil {
			continue
		}
		jobs = append(jobs, c.jobDur().Seconds())
		runs = append(runs, c.runDur().Seconds())
		rates = append(rates, ratio(float64(docTrial(c.doc).Total), c.runDur().Seconds()))
		for _, h := range c.hits {
			if h.err == nil {
				hits = append(hits, float64(h.total)/float64(time.Millisecond))
			}
		}
	}
	rep.add("interactions_per_s", median(rates), "1/s")
	rep.add("trial_s_p50", median(runs), "s")
	rep.add("job_s_p50", median(jobs), "s")
	rep.add("job_s_p90", percentile(jobs, 90), "s")
	rep.add("hit_ms_p50", median(hits), "ms")
	rep.add("hit_ms_p90", percentile(hits, 90), "ms")
	rep.add("jobs_per_s", ratio(float64(len(jobs)), window.Seconds()), "1/s")
	rep.add("setup_s", setup, "s")
	rep.samples("job_s / trial_s", len(jobs))
	rep.samples("hit_ms", len(hits))
}

// scrapeMetrics fetches the daemon's /metrics exposition.
func scrapeMetrics(d *daemon) (map[string]float64, error) {
	code, body, err := d.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// serviceLayers derives the service span metrics and the /metrics
// ratios of the traced pass.
func serviceLayers(rep *report, rec *Recorder, traced []cycleOut, m map[string]float64) {
	names := byName(rec.Spans())
	var sizes []float64
	fresh := 0
	for _, c := range traced {
		if c.err == nil {
			sizes = append(sizes, float64(len(c.doc)))
			fresh++
		}
	}
	rep.add("service.submit_ms_p50", median(durations(names["service.submit"], time.Millisecond)), "ms")
	rep.add("service.hit_submit_ms_p50", median(durations(names["service.hit_submit"], time.Millisecond)), "ms")
	waits := durations(names["service.queue_wait"], time.Millisecond)
	rep.add("service.queue_wait_ms_p50", median(waits), "ms")
	rep.add("service.queue_wait_ms_p90", percentile(waits, 90), "ms")
	rep.add("service.run_s_p50", median(durations(names["service.run"], time.Second)), "s")
	rep.add("service.result_ms_p50", median(durations(names["service.result"], time.Millisecond)), "ms")
	rep.add("service.result_bytes", median(sizes), "bytes")
	rep.add("service.checkpoints_per_job", ratio(m["popcountd_checkpoints_total"], float64(fresh)), "count")
	hits, misses := m["popcountd_cache_hits_total"], m["popcountd_cache_misses_total"]
	rep.add("service.cache_hit_frac", ratio(hits, hits+misses), "frac")
	rep.samples("service.queue_wait", len(waits))
}

// directServiceCalls times canonicalization, fingerprinting and document
// marshalling on the traced pass's own requests and documents. The
// re-marshalled document must equal the stored bytes.
func directServiceCalls(rep *report, traced []cycleOut) error {
	var canon, fp, marshal []float64
	for _, c := range traced {
		if c.err != nil {
			continue
		}
		t0 := time.Now()
		var req service.JobRequest
		var err error
		for i := 0; i < directReps; i++ {
			req, err = c.req.Canonicalize()
		}
		canon = append(canon, float64(time.Since(t0))/float64(time.Microsecond)/directReps)
		if err != nil {
			return fmt.Errorf("canonicalize: %w", err)
		}
		t0 = time.Now()
		var id string
		for i := 0; i < directReps; i++ {
			id = req.Fingerprint()
		}
		fp = append(fp, float64(time.Since(t0))/float64(time.Microsecond)/directReps)
		rep.tally.check(id == c.id, fmt.Sprintf("fingerprint %s of cycle %d differs from job id %s", id, c.cycle, c.id))

		var doc service.ResultDoc
		if err := json.Unmarshal(c.doc, &doc); err != nil {
			return err
		}
		var data []byte
		t0 = time.Now()
		for i := 0; i < directReps; i++ {
			data, err = service.MarshalDoc(doc)
		}
		marshal = append(marshal, float64(time.Since(t0))/float64(time.Microsecond)/directReps)
		if err != nil {
			return err
		}
		rep.tally.check(bytes.Equal(data, c.doc), fmt.Sprintf("re-marshalled document of cycle %d differs", c.cycle))
	}
	rep.add("service.canonicalize_us", median(canon), "us")
	rep.add("service.fingerprint_us", median(fp), "us")
	rep.add("service.marshal_doc_us", median(marshal), "us")
	return nil
}

// libraryReplays runs the first fresh job of each menu entry again
// through the library, untraced and then through the traced loop, for
// the popcount and engine layer metrics and trace.overhead_frac. Both
// runs must match the service's document and each other. The engine
// counter metrics come from the count-engine replay alone, and the inner
// layers are replayed on each job's trajectory and averaged.
func libraryReplays(rep *report, rec *Recorder, traced []cycleOut) error {
	var untracedSims, sims, countSims []trialOut
	var layers []layerStats
	for mi, menu := range serviceMenu {
		var first *cycleOut
		for i := range traced {
			if c := &traced[i]; c.err == nil && c.req.Algorithm == menu.Algorithm && c.req.N == menu.N {
				first = c
				break
			}
		}
		if first == nil {
			continue
		}
		alg, err := popcount.ParseAlgorithm(first.req.Algorithm)
		if err != nil {
			return err
		}
		engine, err := popcount.ParseEngineKind(first.req.Engine)
		if err != nil {
			return err
		}
		want := docTrial(first.doc)
		w := simWorkload{alg: alg, n: first.req.N, engine: engine}
		un := w.trial(1<<20+mi, first.req.Seed)
		rep.tally.check(un.err == nil && un.res.Interactions == want.Interactions && un.res.Output == want.Output,
			fmt.Sprintf("library run of %s seed %d: %d interactions output %d (err %v), service said %d and %d",
				first.id, first.req.Seed, un.res.Interactions, un.res.Output, un.err, want.Interactions, want.Output))
		got := w.traceTrial(rec, un)
		untracedSims, sims = append(untracedSims, un), append(sims, got)
		if engine != popcount.EngineAgent {
			countSims = append(countSims, got)
		}
		ls, err := replayLayers(layerInput{alg: alg, n: first.req.N, engine: engine, seed: first.req.Seed, interactions: want.Interactions})
		if err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
		layers = append(layers, ls)
	}
	overhead := checkTraced(&rep.tally, untracedSims, sims)
	popcountLayers(rep, rec.Spans(), sims)
	engineLayers(rep, rec.Spans(), countSims)
	rep.add("trace.overhead_frac", overhead, "frac")
	meanLayers(layers).report(rep)
	return nil
}

// noServiceLayers reports the service layer metrics of a workload that
// never reaches the service: no work, so every value is 0.
func noServiceLayers(rep *report) {
	for _, m := range perLayerMetrics {
		if strings.HasPrefix(m[0], "service.") {
			rep.add(m[0], 0, m[1])
		}
	}
}
