package popcount_test

import (
	"testing"

	"popcount"
)

// batchPin is the exact outcome of one Approximate run on the batched
// count engine: its result fields and every engine counter.
type batchPin struct {
	interactions, total int64
	output              int64
	stats               popcount.EngineStats
}

// runBatchPin drives Approximate on EngineCountBatched to convergence.
// With resumeAt > 0 the run is stepped that far, snapshotted, restored
// into a fresh Simulation and finished there.
func runBatchPin(t *testing.T, n int, seed uint64, shards int, resumeAt int64) batchPin {
	t.Helper()
	opts := []popcount.Option{
		popcount.WithEngine(popcount.EngineCountBatched),
		popcount.WithSeed(seed),
		popcount.WithIntraRunParallelism(shards),
	}
	s, err := popcount.NewSimulation(popcount.Approximate, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if resumeAt > 0 {
		s.Step(resumeAt)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if s, err = popcount.RestoreSimulation(blob); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	return batchPin{res.Interactions, res.Total, res.Output, s.Stats()}
}

// TestBatchedTrajectoryPins pins the exact trajectories of the batched
// count engine — serial planner, sharded planner, and a run resumed
// from a mid-run snapshot — so a planner change that perturbs any
// random draw, classification order or counter fails here rather than
// only in the multi-run perf gate.
func TestBatchedTrajectoryPins(t *testing.T) {
	const n, seed = 2048, 11
	cases := []struct {
		name     string
		shards   int
		resumeAt int64
		want     batchPin
	}{
		{"serial", 1, 0, batchPin{21364736, 21364736, 11, popcount.EngineStats{
			DeltaCalls: 10333224, Epochs: 143548, Violations: 212, HalfDiscards: 212}}},
		{"shards2", 2, 0, batchPin{21327872, 21327872, 11, popcount.EngineStats{
			DeltaCalls: 10304817, Epochs: 143500, Violations: 200, HalfDiscards: 200,
			ShardEpochs: 143700, ShardBlocks: 486256, MergeConflicts: 200}}},
		{"resumed", 1, 1_000_000, batchPin{21271104, 21271104, 11, popcount.EngineStats{
			DeltaCalls: 10186031, Epochs: 144992, Violations: 200, HalfDiscards: 200}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runBatchPin(t, n, seed, c.shards, c.resumeAt)
			if got != c.want {
				t.Errorf("trajectory moved:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}
