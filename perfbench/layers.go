package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"popcount"
	"popcount/internal/core"
	"popcount/internal/rng"
	"popcount/internal/sim"
	"popcount/internal/sim/countdist"
)

// Inner layers (rng, countdist, the successor memo, the interner) are
// timed by replaying their public functions on configurations captured
// from the workload's own trajectory: a twin engine built from the same
// spec and seed is stepped to a quarter, half and three quarters of the
// trial's length, and the occupied configuration (code → count) is
// copied out at each point.

// Replay sizes: enough calls that one timed loop lasts milliseconds.
const (
	replayCalls     = 1 << 20
	replayMemoCalls = 1 << 16
	specReps        = 5
)

// layerInput names the trial whose trajectory the replays sample.
type layerInput struct {
	alg          popcount.Algorithm
	n            int
	engine       popcount.EngineKind
	seed         uint64
	interactions int64 // the trial's length, from its untraced run
}

// layerStats are the replayed inner-layer metrics.
type layerStats struct {
	specNewMs        float64
	pairNs           float64
	binomialNs       float64
	memoHitNs        float64
	memoMissNs       float64
	memoHitFrac      float64
	memoPairs        float64
	internDiscovered float64
	findNs           float64
	addNs            float64
	occupied         float64
}

func (ls layerStats) report(rep *report) {
	rep.add("core.spec_new_ms", ls.specNewMs, "ms")
	rep.add("rng.pair_ns", ls.pairNs, "ns")
	rep.add("rng.binomial_ns", ls.binomialNs, "ns")
	rep.add("sim.memo.hit_ns", ls.memoHitNs, "ns")
	rep.add("sim.memo.miss_ns", ls.memoMissNs, "ns")
	rep.add("sim.memo.hit_frac", ls.memoHitFrac, "frac")
	rep.add("sim.memo.pairs", ls.memoPairs, "count")
	rep.add("sim.intern.discovered", ls.internDiscovered, "count")
	rep.add("countdist.find_ns", ls.findNs, "ns")
	rep.add("countdist.add_ns", ls.addNs, "ns")
	rep.add("countdist.occupied", ls.occupied, "count")
}

// mean averages the per-input layer metrics (used when a workload
// replays more than one trial).
func meanLayers(xs []layerStats) layerStats {
	var m layerStats
	for _, x := range xs {
		m.specNewMs += x.specNewMs
		m.pairNs += x.pairNs
		m.binomialNs += x.binomialNs
		m.memoHitNs += x.memoHitNs
		m.memoMissNs += x.memoMissNs
		m.memoHitFrac += x.memoHitFrac
		m.memoPairs += x.memoPairs
		m.internDiscovered += x.internDiscovered
		m.findNs += x.findNs
		m.addNs += x.addNs
		m.occupied += x.occupied
	}
	k := float64(len(xs))
	if k == 0 {
		return m
	}
	return layerStats{m.specNewMs / k, m.pairNs / k, m.binomialNs / k, m.memoHitNs / k, m.memoMissNs / k,
		m.memoHitFrac / k, m.memoPairs / k, m.internDiscovered / k, m.findNs / k, m.addNs / k, m.occupied / k}
}

// coreSpec builds the transition spec the library builds for alg, and
// the interner's size function.
func coreSpec(alg popcount.Algorithm, n int) (*sim.Spec, func() int, error) {
	cfg := core.Config{N: n}
	switch alg {
	case popcount.Approximate:
		s := core.NewApproximateSpec(cfg)
		return s.Spec, s.States, nil
	case popcount.CountExact:
		s := core.NewCountExactSpec(cfg)
		return s.Spec, s.States, nil
	}
	return nil, nil, fmt.Errorf("no core spec for %v", alg)
}

// codeCount is one occupied state of a captured configuration.
type codeCount struct {
	code  uint64
	count int64
}

// twin is an engine stepping the same spec from the same seed as the
// workload's trial.
type twin struct {
	spec        *sim.Spec
	states      func() int
	step        func(int64)
	t           func() int64
	resolutions func() int64 // Delta resolutions so far
	forEach     func(func(code uint64, count int64))
}

func newTwin(in layerInput) (*twin, error) {
	spec, states, err := coreSpec(in.alg, in.n)
	if err != nil {
		return nil, err
	}
	tw := &twin{spec: spec, states: states}
	if in.engine == popcount.EngineAgent {
		// Every agent-engine interaction resolves its pair through the
		// spec's Delta, so resolutions equal interactions.
		p := sim.NewSpecAgent(spec)
		eng, err := sim.NewEngine(p, sim.Config{Seed: in.seed})
		if err != nil {
			return nil, err
		}
		tw.step, tw.t, tw.resolutions, tw.forEach = eng.Step, eng.Interactions, eng.Interactions, p.View().ForEach
		return tw, nil
	}
	eng, err := sim.NewCountEngine(sim.NewSpecCount(spec), sim.Config{
		Seed:       in.seed,
		BatchSteps: in.engine == popcount.EngineCountBatched,
	})
	if err != nil {
		return nil, err
	}
	tw.step, tw.t, tw.forEach = eng.Step, eng.Interactions, eng.Counts().ForEach
	tw.resolutions = func() int64 { return eng.Stats().DeltaCalls }
	return tw, nil
}

// capture copies the twin's occupied configuration, in code order.
func (tw *twin) capture() []codeCount {
	var cc []codeCount
	tw.forEach(func(code uint64, count int64) { cc = append(cc, codeCount{code, count}) })
	sort.Slice(cc, func(i, j int) bool { return cc[i].code < cc[j].code })
	return cc
}

// replayLayers captures three configurations of the input trial's
// trajectory and replays the inner layers on them.
func replayLayers(in layerInput) (layerStats, error) {
	var ls layerStats
	var specTimes []float64
	for i := 0; i < specReps; i++ {
		t0 := time.Now()
		if _, _, err := coreSpec(in.alg, in.n); err != nil {
			return ls, err
		}
		specTimes = append(specTimes, float64(time.Since(t0))/float64(time.Millisecond))
	}
	ls.specNewMs = median(specTimes)

	tw, err := newTwin(in)
	if err != nil {
		return ls, err
	}
	var caps [][]codeCount
	for k := int64(1); k <= 3; k++ {
		for target := in.interactions * k / 4; tw.t() < target; {
			tw.step(int64(in.n))
		}
		caps = append(caps, tw.capture())
	}
	ls.memoPairs = float64(tw.spec.Memo.Pairs())
	ls.memoHitFrac = 1 - ratio(ls.memoPairs, float64(tw.resolutions()))
	ls.internDiscovered = float64(tw.states())

	// Replay inputs come from the benchmark's own generator; r is the
	// library generator under test.
	rnd := rand.New(rand.NewPCG(in.seed, deriveSeed(in.seed, "replay", 0)))
	r := rng.New(in.seed)
	ls.pairNs = timePair(r, in.n)
	var per []layerStats
	for _, cc := range caps {
		var x layerStats
		x.occupied = float64(len(cc))
		x.findNs, x.addNs = timeSampler(rnd, cc)
		x.binomialNs = timeBinomialChain(r, cc, int64(in.n))
		x.memoHitNs, x.memoMissNs, err = timeMemo(rnd, tw.spec, in, cc)
		if err != nil {
			return ls, err
		}
		per = append(per, x)
		ls.occupied = max(ls.occupied, x.occupied)
	}
	m := meanLayers(per)
	ls.findNs, ls.addNs, ls.binomialNs = m.findNs, m.addNs, m.binomialNs
	ls.memoHitNs, ls.memoMissNs = m.memoHitNs, m.memoMissNs
	return ls, nil
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int

// timePair returns ns per rng.Pair(n).
func timePair(r *rng.Rand, n int) float64 {
	t0 := time.Now()
	for i := 0; i < replayCalls; i++ {
		u, v := r.Pair(n)
		sink += u ^ v
	}
	return float64(time.Since(t0)) / replayCalls
}

// timeSampler returns ns per Sampler32.Find and per Sampler32.Add on a
// sampler holding the configuration's counts.
func timeSampler(rnd *rand.Rand, cc []codeCount) (findNs, addNs float64) {
	s := countdist.NewSampler32(len(cc))
	for _, c := range cc {
		s.Append(c.count)
	}
	xs := make([]int64, replayCalls)
	for i := range xs {
		xs[i] = rnd.Int64N(s.Total())
	}
	t0 := time.Now()
	for _, x := range xs {
		sink += s.Find(x)
	}
	findNs = float64(time.Since(t0)) / replayCalls
	idx := make([]int32, replayCalls/2)
	for i := range idx {
		idx[i] = int32(rnd.IntN(len(cc)))
	}
	t0 = time.Now()
	for _, i := range idx {
		s.Add(int(i), 1)
		s.Add(int(i), -1)
	}
	addNs = float64(time.Since(t0)) / replayCalls
	return findNs, addNs
}

// timeBinomialChain returns ns per rng.Binomial call along the
// conditional-binomial chain that splits one round of n interactions
// over the occupied states in proportion to their counts — the
// decomposition the batch planner draws its rows with.
func timeBinomialChain(r *rng.Rand, cc []codeCount, n int64) float64 {
	calls := 0
	t0 := time.Now()
	for calls < replayCalls/4 {
		remaining, rest := n, n
		for _, c := range cc {
			if remaining == 0 || rest <= 0 {
				break
			}
			k := r.Binomial(remaining, float64(c.count)/float64(rest))
			remaining -= k
			rest -= c.count
			calls++
		}
	}
	return float64(time.Since(t0)) / float64(calls)
}

// timeMemo replays code pairs drawn in proportion to the configuration's
// counts through a fresh spec's successor memo. The configuration is
// moved into the fresh spec through the state codec, so its interner
// already holds every occupied state. The first pass resolves each
// distinct pair once (misses) and answers repeats from the memo; the
// second pass over the same pairs is all repeats, which prices a hit.
func timeMemo(rnd *rand.Rand, twinSpec *sim.Spec, in layerInput, cc []codeCount) (hitNs, missNs float64, err error) {
	fresh, _, err := coreSpec(in.alg, in.n)
	if err != nil {
		return 0, 0, err
	}
	codes := make([]uint64, len(cc))
	cum := make([]int64, len(cc))
	var total int64
	for i, c := range cc {
		codes[i], err = fresh.DecodeState(twinSpec.EncodeState(c.code))
		if err != nil {
			return 0, 0, fmt.Errorf("moving state %d into a fresh spec: %w", c.code, err)
		}
		total += c.count
		cum[i] = total
	}
	draw := func() int {
		x := rnd.Int64N(total)
		return sort.Search(len(cum), func(i int) bool { return cum[i] > x })
	}
	pairs := make([][2]uint64, replayMemoCalls)
	distinct := make(map[[2]uint64]bool)
	for i := range pairs {
		u := draw()
		v := draw()
		for v == u && cc[u].count == 1 {
			v = draw()
		}
		pairs[i] = [2]uint64{codes[u], codes[v]}
		distinct[pairs[i]] = true
	}
	coins := rng.New(in.seed)
	pass := func() time.Duration {
		t0 := time.Now()
		for _, p := range pairs {
			a, b := fresh.Delta(p[0], p[1], coins)
			sink += int(a ^ b)
		}
		return time.Since(t0)
	}
	cold := pass()
	warm := pass()
	hitNs = float64(warm) / replayMemoCalls
	repeats := float64(replayMemoCalls - len(distinct))
	missNs = max(0, (float64(cold)-repeats*hitNs)/float64(len(distinct)))
	return hitNs, missNs, nil
}
