package sim

import (
	"slices"
	"testing"

	"popcount/internal/rng"
)

// cycleFront is a k-phase clock. An initiator meeting a responder at
// its own phase advances with probability 1/adv; one or two phases
// behind, it adopts the responder's phase with probability 1/2 (three
// randomized pairs per row); further behind, up to win phases, it
// adopts deterministically; every other pair is a no-op. The occupied
// phases form a front that circles the cycle, so each state repeatedly
// empties and refills. The agents start spread evenly over the first
// spread phases.
type cycleFront struct {
	n, adv, spread int
	k, win         uint64
}

func (p cycleFront) N() int { return p.n }

func (p cycleFront) InitCounts() map[uint64]int64 {
	init := map[uint64]int64{}
	for a := 0; a < p.n; a++ {
		init[uint64(a%p.spread)]++
	}
	return init
}

func (p cycleFront) gap(qu, qv uint64) uint64 { return (qv + p.k - qu) % p.k }

func (p cycleFront) Delta(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	if a, b, ok := p.DeltaDet(qu, qv); ok {
		return a, b
	}
	switch {
	case p.gap(qu, qv) == 0:
		if r.Intn(p.adv) == 0 {
			return (qu + 1) % p.k, qv
		}
	case r.Bool():
		return qv, qv
	}
	return qu, qv
}

func (p cycleFront) DeltaDet(qu, qv uint64) (uint64, uint64, bool) {
	switch d := p.gap(qu, qv); {
	case d < 3 && d < p.win:
		return 0, 0, false
	case d < p.win:
		return qv, qv, true
	default:
		return qu, qv, true
	}
}

func (p cycleFront) SelfLoop(qu, qv uint64) bool { return p.gap(qu, qv) >= p.win }

// checkTransitionTable verifies the batch planner's slot bookkeeping and
// that every classified cell equals a fresh classification of its pair.
// It returns the number of slots held and of classified cells.
func checkTransitionTable(t *testing.T, e *CountEngine) (held, classified int) {
	t.Helper()
	bp := e.bp
	if bp.side&(bp.side-1) != 0 || len(bp.owner) != bp.side || len(bp.table) != bp.side*bp.side {
		t.Fatalf("table shape: side %d, %d slots, %d cells", bp.side, len(bp.owner), len(bp.table))
	}
	for s, idx := range bp.owner {
		if idx < 0 {
			for x := 0; x < bp.side; x++ {
				if bp.table[s*bp.side+x] != (detEntry{}) || bp.table[x*bp.side+s] != (detEntry{}) {
					t.Fatalf("free slot %d has a stale cell at %d", s, x)
				}
			}
			continue
		}
		held++
		if int(bp.slot[idx]) != s {
			t.Fatalf("slot %d owned by state %d, which maps to slot %d", s, idx, bp.slot[idx])
		}
	}
	if held+len(bp.free) != bp.side {
		t.Fatalf("%d held + %d free slots != side %d", held, len(bp.free), bp.side)
	}
	for si, i := range bp.owner {
		for sj, j := range bp.owner {
			if i < 0 || j < 0 {
				continue
			}
			got := bp.table[si*bp.side+sj]
			if got.kind == pairUnclassified {
				continue
			}
			classified++
			if want := e.classifyPair(int(i), int(j)); got != want {
				t.Fatalf("cell (%d,%d) = %+v, fresh classification %+v", i, j, got, want)
			}
		}
	}
	return held, classified
}

// checkSeenBefore compares the sharded planner's pairSeenBefore, after
// a Step that made one sync, with seen — every pair classified at an
// earlier sync, the contents the old per-pair map would have had — and
// then adds the pairs classified at this sync to seen.
func checkSeenBefore(t *testing.T, e *CountEngine, seen map[[2]int32]bool) {
	t.Helper()
	bp := e.bp
	var now [][2]int32
	for si, i := range bp.owner {
		for sj, j := range bp.owner {
			if i < 0 || j < 0 {
				continue
			}
			p := [2]int32{i, j}
			classified := bp.table[si*bp.side+sj].kind != pairUnclassified
			if classified {
				now = append(now, p)
			}
			got, want := e.sr.pairSeenBefore(int(i), int(j)), seen[p]
			if i == j {
				// The diagonal flag is set when the pair is classified.
				want = want || classified
			}
			if got != want {
				t.Fatalf("pairSeenBefore(%d, %d) = %v, want %v", i, j, got, want)
			}
		}
	}
	for _, p := range now {
		seen[p] = true
	}
}

// TestPairSeenBefore pins the tenure-overlap test on hand-made slot
// histories: a pair counts as seen when both states held slots at one
// sync before the current one (sync 30 here).
func TestPairSeenBefore(t *testing.T) {
	const open = openTenure
	cases := []struct {
		name string
		a, b []tenure
		want bool
	}{
		{"past tenures overlap", []tenure{{0, 10}, {20, 25}, {27, open}}, []tenure{{5, 8}, {12, 15}, {28, open}}, true},
		{"interleaved, never together", []tenure{{0, 5}, {12, 18}, {30, open}}, []tenure{{6, 10}, {20, open}}, false},
		{"refilled state met the resident", []tenure{{10, 20}, {30, open}}, []tenure{{15, open}}, true},
		{"seated now next to a resident", []tenure{{30, open}}, []tenure{{10, open}}, false},
		{"both seated now", []tenure{{3, 9}, {30, open}}, []tenure{{9, 12}, {30, open}}, false},
		{"together since an earlier sync", []tenure{{29, open}}, []tenure{{29, open}}, true},
	}
	for _, c := range cases {
		sr := &shardRunner{hist: []slotHistory{{tenures: c.a}, {tenures: c.b}, {diag: true}}, syncs: 30}
		if got := sr.pairSeenBefore(0, 1); got != c.want {
			t.Errorf("%s: pairSeenBefore(a, b) = %v, want %v", c.name, got, c.want)
		}
		if got := sr.pairSeenBefore(1, 0); got != c.want {
			t.Errorf("%s: pairSeenBefore(b, a) = %v, want %v", c.name, got, c.want)
		}
	}
	sr := &shardRunner{hist: []slotHistory{{tenures: []tenure{{1, open}}}, {diag: true, tenures: []tenure{{1, open}}}}, syncs: 30}
	if sr.pairSeenBefore(0, 0) || !sr.pairSeenBefore(1, 1) {
		t.Error("pairSeenBefore(i, i) must report the diagonal flag")
	}
}

// TestTransitionTable checks the transition table after every Step of
// protocols whose states empty and refill: classified cells match a
// fresh classification and freed slots are clean (checkTransitionTable).
//
// The compact front steps the serial and the sharded planner one epoch
// at a time (a Step of batchMinTau interactions plans at most one), so
// it also checks that slots get reused, that the side stays within
// twice the largest occupancy planned, and that the sharded planner
// knows exactly which pairs it classified at an earlier epoch
// (checkSeenBefore). The wide front starts spread over 96 phases, so
// the sharded planner fans its flow and resolve passes out and the
// blocks read the table concurrently.
func TestTransitionTable(t *testing.T) {
	const n, k, steps = 2048, 16, 6000
	for _, shards := range []int{1, 2} {
		e, err := NewCountEngine(cycleFront{n, 4 * n, 1, k, k / 2}, Config{Seed: 9, BatchSteps: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		peak, cells, owners, seen := 0, 0, map[int32]bool{}, map[[2]int32]bool{}
		syncs := int64(0)
		for step := 0; step < steps; step++ {
			e.Step(batchMinTau)
			held, classified := checkTransitionTable(t, e)
			if e.sr != nil && e.sr.syncs != syncs {
				checkSeenBefore(t, e, seen)
				syncs = e.sr.syncs
			}
			peak = max(peak, held)
			cells += classified
			if e.bp.side > 2*peak {
				t.Fatalf("shards=%d step %d: side %d > 2 × peak planned occupancy %d", shards, step, e.bp.side, peak)
			}
			for _, idx := range e.bp.owner {
				owners[idx] = true
			}
		}
		delete(owners, -1)
		if e.stats.Epochs < steps/2 || cells == 0 {
			t.Fatalf("shards=%d: only %d epochs and %d classified cells checked", shards, e.stats.Epochs, cells)
		}
		if len(owners) <= e.bp.side {
			t.Fatalf("shards=%d: %d states held the %d slots — no slot was reused", shards, len(owners), e.bp.side)
		}
	}

	const wideN = 16384
	e, err := NewCountEngine(cycleFront{wideN, 1, 96, 1024, 8}, Config{Seed: 9, BatchSteps: true, Shards: 2, BatchMaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		e.Step(wideN)
		checkTransitionTable(t, e)
	}
	if e.stats.StealEvents == 0 {
		t.Fatalf("wide front never fanned out: %+v", e.stats)
	}
}

// TestTransitionTableContentsInvisible checks that a run does not depend
// on which pairs the transition table happens to hold: an engine that
// has one slot's row and column wiped before every Step, as if its
// state had emptied and refilled, must follow an untouched twin bit for
// bit on both planners. The sharded planner sums rates in an order that
// depends on whether a pair was ever classified, not on the table, so
// its per-row randomized rates (float sums of up to three terms here)
// are compared exactly too.
func TestTransitionTableContentsInvisible(t *testing.T) {
	const n = 16384
	for _, shards := range []int{1, 2} {
		mk := func() *CountEngine {
			e, err := NewCountEngine(cycleFront{n, 1, 96, 1024, 8}, Config{Seed: 4, BatchSteps: true, Shards: shards, BatchMaxRounds: 4})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		plain, wiped := mk(), mk()
		for step := 0; step < 400; step++ {
			if bp := wiped.bp; bp.side > 0 {
				bp.clearSlot(step % bp.side)
			}
			plain.Step(1024)
			wiped.Step(1024)
			if plain.stats != wiped.stats || !slices.Equal(plain.c.counts, wiped.c.counts) ||
				(shards > 1 && !slices.Equal(plain.sr.randRow, wiped.sr.randRow)) {
				t.Fatalf("shards=%d step %d: wiping table cells moved the run:\n plain %+v\n wiped %+v", shards, step, plain.stats, wiped.stats)
			}
		}
	}
}
