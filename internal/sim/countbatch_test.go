package sim_test

import (
	"math"
	"sync"
	"testing"

	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/sim"
)

// batchCfg returns a batch-stepping config for the given seed.
func batchCfg(seed uint64) sim.Config {
	return sim.Config{Seed: seed, BatchSteps: true}
}

// TestCountBatchConservation steps batch-mode engines in uneven batch
// sizes across every count protocol and asserts Σ counts == n and
// non-negativity after each Step, plus an exact interaction counter.
func TestCountBatchConservation(t *testing.T) {
	const n = 1024
	protos := map[string]func() sim.CountProtocol{
		"epidemic":  func() sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		"junta":     func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(n)) },
		"clock":     func() sim.CountProtocol { return sim.NewSpecCount(clock.NewSpec(n, clock.DefaultM, 16, 3)) },
		"geometric": func() sim.CountProtocol { return sim.NewSpecCount(baseline.NewGeometricSpec(n)) },
	}
	for name, mk := range protos {
		e, err := sim.NewCountEngine(mk(), batchCfg(7))
		if err != nil {
			t.Fatalf("%s: NewCountEngine: %v", name, err)
		}
		var done int64
		for _, batch := range []int64{1, 63, 64, 1000, 4096, 100000, n * n} {
			e.Step(batch)
			done += batch
			if got := e.Counts().Sum(); got != n {
				t.Fatalf("%s: Σ counts = %d after Step(%d), want %d", name, got, batch, n)
			}
			e.Counts().ForEach(func(code uint64, cnt int64) {
				if cnt < 0 {
					t.Fatalf("%s: negative count %d for state %#x", name, cnt, code)
				}
			})
			if e.Interactions() != done {
				t.Fatalf("%s: Interactions = %d, want %d", name, e.Interactions(), done)
			}
		}
	}
}

// TestCountBatchSmallStepsMatchSequential pins the exact-fallback
// contract: Step calls below the batching threshold route through the
// identical sequential code path, so a batch-mode engine stepped only
// in small increments is bit-for-bit equal to a sequential engine under
// the same seed.
func TestCountBatchSmallStepsMatchSequential(t *testing.T) {
	const n = 512
	mk := func() (*sim.CountEngine, *sim.CountEngine) {
		b, err := sim.NewCountEngine(sim.NewSpecCount(baseline.NewGeometricSpec(n)), batchCfg(42))
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewCountEngine(sim.NewSpecCount(baseline.NewGeometricSpec(n)), sim.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return b, s
	}
	batched, seq := mk()
	for _, step := range []int64{1, 7, 31, 63, 63, 50, 13, 63} {
		batched.Step(step)
		seq.Step(step)
	}
	want := map[uint64]int64{}
	seq.Counts().ForEach(func(code uint64, cnt int64) { want[code] = cnt })
	states := 0
	batched.Counts().ForEach(func(code uint64, cnt int64) {
		states++
		if want[code] != cnt {
			t.Fatalf("state %#x: batched count %d, sequential %d", code, cnt, want[code])
		}
	})
	if states != len(want) {
		t.Fatalf("occupied states differ: batched %d vs sequential %d", states, len(want))
	}
}

// TestCountBatchFrozenConfig pins the absorbing behavior: a
// configuration of certain no-ops passes arbitrarily large batches
// without looping per interaction.
func TestCountBatchFrozenConfig(t *testing.T) {
	p := sim.NewSpecCount(epidemic.NewSpec([]int64{5, 5, 5, 5}, true)) // already uniform
	e, err := sim.NewCountEngine(p, batchCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	e.Step(1 << 40)
	if got := e.Interactions(); got != 1<<40 {
		t.Fatalf("Interactions = %d, want %d", got, int64(1)<<40)
	}
	if !e.Converged() {
		t.Fatal("uniform configuration should be converged")
	}
}

// TestCountBatchEquivalence compares batched and sequential count
// engines distributionally: mean convergence times over paired trials
// must agree within the pinned 10% tolerance (they are far within it;
// the modes consume randomness differently so runs are not bit-for-bit
// comparable).
func TestCountBatchEquivalence(t *testing.T) {
	const (
		n      = 1024
		trials = 48
		tol    = 0.10
	)
	protos := map[string]func() sim.CountProtocol{
		"epidemic": func() sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		"junta":    func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(n)) },
	}
	for name, mk := range protos {
		mean := func(batch bool) float64 {
			var sum float64
			for i := 0; i < trials; i++ {
				cfg := sim.Config{Seed: sim.TrialSeed(17, i), CheckEvery: n / 2, BatchSteps: batch}
				res, err := sim.RunCount(mk(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("%s trial %d (batch=%v) did not converge", name, i, batch)
				}
				sum += float64(res.Interactions)
			}
			return sum / trials
		}
		batched, seq := mean(true), mean(false)
		gap := math.Abs(batched-seq) / seq
		t.Logf("%s: sequential mean T_C = %.0f, batched mean T_C = %.0f, relative gap %.3f",
			name, seq, batched, gap)
		if gap > tol {
			t.Errorf("%s: batched mean %.0f vs sequential mean %.0f (gap %.3f > %.2f)",
				name, batched, seq, gap, tol)
		}
	}
}

// TestCountBatchReproducible pins seed determinism of the batched mode.
func TestCountBatchReproducible(t *testing.T) {
	run := func() (sim.Result, map[uint64]int64) {
		e, err := sim.NewCountEngine(sim.NewSpecCount(junta.NewSpec(2048)), batchCfg(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunToConvergence()
		if err != nil {
			t.Fatal(err)
		}
		final := map[uint64]int64{}
		e.Counts().ForEach(func(code uint64, cnt int64) { final[code] = cnt })
		return res, final
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("final configurations differ: %v vs %v", f1, f2)
	}
	for code, cnt := range f1 {
		if f2[code] != cnt {
			t.Fatalf("final configurations differ at %#x: %d vs %d", code, cnt, f2[code])
		}
	}
}

// TestCountBatchKnobs pins the Config knobs: BatchMaxRounds caps the
// epoch, BatchDrift tightens or loosens the split behavior — both must
// still converge to the right place.
func TestCountBatchKnobs(t *testing.T) {
	const n = 4096
	for _, cfg := range []sim.Config{
		{Seed: 5, BatchSteps: true, BatchMaxRounds: 4},
		{Seed: 5, BatchSteps: true, BatchDrift: 0.02},
		{Seed: 5, BatchSteps: true, BatchDrift: 0.5, BatchMaxRounds: 2},
	} {
		res, err := sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("cfg %+v did not converge", cfg)
		}
		norm := float64(res.Interactions) / (float64(n) * math.Log(float64(n)))
		if norm < 0.5 || norm > 20 {
			t.Fatalf("T/(n ln n) = %.2f outside plausible range (cfg %+v)", norm, cfg)
		}
	}
}

// batchEpochMid is the engine snapshot BenchmarkBatchEpoch resumes from:
// Approximate at n = 2^16 on the serial batch planner, stepped once to
// the middle of its trajectory (3.4·10⁸ of the ≈6.5·10⁸ interactions a
// full run takes).
var batchEpochMid struct {
	once sync.Once
	blob []byte
	err  error
}

// BenchmarkBatchEpoch prices one batch-planner epoch at the fixed
// occupancy of a mid-trajectory Approximate run (about ten occupied
// states): every call restores the same mid-run snapshot and times b.N
// Steps of 2^12 interactions, reporting ns/epoch and epochs per Step.
func BenchmarkBatchEpoch(b *testing.B) {
	const n = 1 << 16
	mk := func() *sim.CountEngine {
		e, err := sim.NewCountEngine(sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: n}).Spec), batchCfg(5))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	mid := &batchEpochMid
	mid.once.Do(func() {
		e := mk()
		e.Step(5 << 26)
		mid.blob, mid.err = e.Snapshot()
	})
	if mid.err != nil {
		b.Fatal(mid.err)
	}
	e := mk()
	if err := e.Restore(mid.blob); err != nil {
		b.Fatal(err)
	}
	before := e.Stats().Epochs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(1 << 12)
	}
	b.StopTimer()
	epochs := e.Stats().Epochs - before
	if epochs == 0 {
		b.Fatal("no batch epoch ran")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
}
