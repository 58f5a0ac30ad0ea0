// Multinomial batch stepping for the count engine: instead of drawing
// one ordered pair per interaction, the engine steps the configuration
// forward a whole epoch of τ interactions at once.
//
// Under the uniform scheduler, the τ interactions of an epoch project
// onto ordered (initiator-state, responder-state) pairs as a multinomial
// over the pair weights c[i]·(c[j]−[i=j]) — assuming the configuration
// stays frozen across the epoch. The planner samples that multinomial by
// a chain of conditional binomials (rows over initiator states, then
// responders within each row), resolves every sampled pair type through
// a slot-indexed transition table derived from the protocol
// (DeterministicDelta, falling back to per-interaction Delta calls for
// randomized pairs), and applies the net count deltas in bulk.
//
// Fidelity is controlled pre-leap, in the standard τ-leaping way: before
// sampling, the planner computes each state's expected count-change rate
// from the transition table and sizes τ so that the expected net change
// of every state stays within half the drift bound
// max(1, drift·count). Sized this way, a sampled epoch is applied
// essentially always, so the applied transition counts are unbiased
// draws at the frozen rates and the only systematic error is the
// frozen-rate (τ-leap) bias itself, of order drift/4 per epoch. A
// rejection test — any touched state driven negative, or past a hard
// bound several times the target — remains as a safety net for the
// regimes the rate estimate cannot see (randomized transitions
// concentrating mass on fresh states); a rejected epoch is split in
// half with conditional hypergeometrics (the τ slots are exchangeable,
// so the first half of an already-sampled batch is a multivariate
// hypergeometric of the sampled pair totals), the first half retried
// recursively, the second half re-planned from the updated
// configuration. Rejections must stay rare: a post-hoc accept/reject on
// the sampled content censors high-churn prefixes and drags the
// dynamics, which is measurable when rejection is the τ controller (a
// ~30% convergence-time inflation on the epidemic) and immeasurable at
// the safety net's trigger rates.
//
// Epochs that cannot reach the batching threshold — tiny populations,
// sampling-dominated phases, rejection cascades — fall back to exact
// sequential stepping with exponential backoff before batching is
// retried. The fallback runs the same code path, with the same
// randomness consumption, as a non-batched engine, so a batch-mode
// engine stepped only below the threshold stays bit-for-bit equal to a
// sequential one.
//
// The result is o(1) amortized cost per interaction where the
// configuration mixes slowly enough to batch: one epoch costs
// O(occupied² + sampled pair types) regardless of τ, so the
// Θ(n log n)-interaction skip-path protocols cost polylog(n) epochs end
// to end.
package sim

// DeterministicDelta is the optional transition-table fast path of the
// batch-stepping mode. DeltaDet reports the successor pair of δ(qu, qv)
// when the transition is deterministic and consumes no synthetic coins;
// ok=false marks randomized pairs, which the engine resolves with one
// Delta call per interaction instead of one table lookup per pair type.
// DeltaDet must agree exactly with Delta on every pair it claims (the
// engine derives its per-pair transition table from it), and like
// SelfLoop it may be incomplete: returning ok=false for a deterministic
// pair only costs speed, never correctness.
type DeterministicDelta interface {
	DeltaDet(qu, qv uint64) (qu2, qv2 uint64, ok bool)
}

const (
	// batchMinTau is the epoch size below which batching cannot beat
	// sequential stepping: Step remainders, pre-leap τ estimates and
	// epochs split this fine run the exact per-interaction path.
	batchMinTau = 64
	// defaultBatchDrift is the default per-state relative drift bound.
	defaultBatchDrift = 0.125
	// batchCoolBase is the initial exact-stepping backoff after batching
	// fails to pay off (τ* below threshold or a rejection cascade); the
	// backoff doubles while failures repeat, so unbatchable regimes
	// degrade to exact stepping with vanishing planning overhead.
	batchCoolBase = 4 * batchMinTau
	// driftCheckStride bounds the work wasted on an epoch that will be
	// rejected: long randomized-Delta loops re-check the safety bound
	// every stride interactions and abort early on violation.
	driftCheckStride = 1024
)

// pairCount is one sampled pair type of an epoch plan: m of the epoch's
// interactions fall on initiator state i and responder state j (dense
// indices).
type pairCount struct {
	i, j int32
	m    int64
}

// pair-classification kinds of the transition table. The zero kind
// marks a cell not yet derived since its slots were assigned.
const (
	pairUnclassified = iota
	pairRandomized   // resolve with one Delta call per interaction
	pairDet          // deterministic: bulk-apply the cached net moves
	pairNoop         // identity on the configuration: no deltas
)

// detEntry is the transition-table entry of one ordered dense pair: its
// kind and, for deterministic pairs, the netted count moves (at most
// four states change, by ±1 or ±2 agents each). An entry is a pure
// function of the pair's two state codes.
type detEntry struct {
	kind uint8
	nm   uint8 // number of netted moves
	idx  [4]int32
	d    [4]int16
}

// sparseVec is a per dense state accumulator that remembers the
// entries it touched, so clearing costs O(touched), not O(discovered).
type sparseVec[T int64 | float64] struct {
	val     []T
	seen    []bool
	touched []int
}

// add accumulates v into entry idx, growing the vector on first sight
// of a freshly discovered state.
func (sv *sparseVec[T]) add(idx int, v T) {
	for idx >= len(sv.val) {
		sv.val = append(sv.val, 0)
		sv.seen = append(sv.seen, false)
	}
	if !sv.seen[idx] {
		sv.seen[idx] = true
		sv.touched = append(sv.touched, idx)
	}
	sv.val[idx] += v
}

// reset clears every touched entry.
func (sv *sparseVec[T]) reset() {
	for _, idx := range sv.touched {
		sv.val[idx] = 0
		sv.seen[idx] = false
	}
	sv.touched = sv.touched[:0]
}

// addPairFlow adds the per-interaction rate lam of the classified,
// non-noop ordered pair (i, j) to the expected change rates of the
// states its transition touches: lam·|d| for every netted move of a
// deterministic pair, lam to both source states of a randomized one.
func addPairFlow(flow *sparseVec[float64], ent *detEntry, i, j int, lam float64) {
	if ent.kind != pairDet {
		flow.add(i, lam)
		flow.add(j, lam)
		return
	}
	for x := 0; x < int(ent.nm); x++ {
		d := float64(ent.d[x])
		if d < 0 {
			d = -d
		}
		flow.add(int(ent.idx[x]), lam*d)
	}
}

// batchPlanner holds the batch-stepping state and scratch of one
// CountEngine.
//
// The transition table caches one detEntry per ordered pair of states
// holding a slot: cell slot(i)·side+slot(j). Slots change only in
// syncSlots, at the top of every planned epoch, so between syncs every
// slot and every classified cell stays valid (an entry depends on the
// two codes only, never on counts). The table is derived state: it is
// never serialized, and a restored engine rebuilds it on first use.
type batchPlanner struct {
	maxTau int64   // epoch cap: BatchMaxRounds·n
	drift  float64 // relative per-state drift bound

	dd DeterministicDelta // nil: every pair is resolved via Delta

	slot  []int32    // dense index -> slot, -1 without one
	owner []int32    // slot -> dense index, -1 when free
	free  []int32    // free slots
	side  int        // table side: a power of two, len(owner)
	table []detEntry // side×side transition table, row-major by initiator slot

	cool    int64 // remaining exact-stepping backoff
	coolLen int64 // next backoff length (doubles on repeat failures)
	bottom  bool  // the last epoch cascaded into the exact fallback

	plan  []pairCount        // scratch: current epoch's sampled pair types
	delta sparseVec[int64]   // scratch: per dense state net count change
	flow  sparseVec[float64] // scratch: per dense state expected change rate
}

// newBatchPlanner wires batch stepping for an engine over n agents.
func newBatchPlanner(p CountProtocol, cfg Config, n int64) *batchPlanner {
	rounds := cfg.BatchMaxRounds
	if rounds <= 0 {
		rounds = 1
	}
	drift := cfg.BatchDrift
	if drift <= 0 {
		drift = defaultBatchDrift
	}
	bp := &batchPlanner{
		maxTau:  int64(rounds) * n,
		drift:   drift,
		coolLen: batchCoolBase,
	}
	bp.dd, _ = p.(DeterministicDelta)
	return bp
}

// backoff schedules an exact-stepping cooloff, doubling on repeated
// failures up to one epoch cap.
func (bp *batchPlanner) backoff() {
	bp.cool = bp.coolLen
	bp.coolLen *= 2
	if bp.coolLen > bp.maxTau {
		bp.coolLen = bp.maxTau
	}
}

// syncSlots gives every occupied state a transition-table slot: slots
// of states that emptied since the last sync are freed, their row and
// column cleared, and each occupied state without a slot takes a free
// one, doubling the table side when none is left. The side therefore
// never exceeds twice the largest occupancy ever planned.
func (e *CountEngine) syncSlots() {
	bp, counts := e.bp, e.c.counts
	for s, idx := range bp.owner {
		if idx < 0 || counts[idx] != 0 {
			continue
		}
		bp.slot[idx], bp.owner[s] = -1, -1
		bp.free = append(bp.free, int32(s))
		bp.clearSlot(s)
	}
	for len(bp.slot) < len(e.c.codes) {
		bp.slot = append(bp.slot, -1)
	}
	// Every slot still held belongs to an occupied state, so the table
	// must seat exactly the occupied list.
	if len(e.occ) > bp.side {
		bp.growTable(len(e.occ))
	}
	for _, idx := range e.occ {
		if bp.slot[idx] >= 0 {
			continue
		}
		s := bp.free[len(bp.free)-1]
		bp.free = bp.free[:len(bp.free)-1]
		bp.slot[idx], bp.owner[s] = s, int32(idx)
	}
}

// clearSlot resets slot s's row and column to unclassified.
func (bp *batchPlanner) clearSlot(s int) {
	clear(bp.table[s*bp.side : (s+1)*bp.side])
	for r := s; r < len(bp.table); r += bp.side {
		bp.table[r] = detEntry{}
	}
}

// growTable doubles the table side until need slots fit, keeping every
// slot and classified cell.
func (bp *batchPlanner) growTable(need int) {
	side := max(bp.side, 1)
	for side < need {
		side *= 2
	}
	table := make([]detEntry, side*side)
	for s := 0; s < bp.side; s++ {
		copy(table[s*side:s*side+bp.side], bp.table[s*bp.side:(s+1)*bp.side])
	}
	for s := bp.side; s < side; s++ {
		bp.owner = append(bp.owner, -1)
		bp.free = append(bp.free, int32(s))
	}
	bp.side, bp.table = side, table
}

// entry returns the table cell of the ordered dense pair (i, j); both
// states must hold slots.
func (bp *batchPlanner) entry(i, j int) *detEntry {
	return &bp.table[int(bp.slot[i])*bp.side+int(bp.slot[j])]
}

// tauFromFlow returns the largest τ that keeps every state's expected
// net change (the accumulated flow times τ) within half its drift
// bound max(1, drift·count), and clears the flow scratch. frozen
// reports an empty flow: no occupied pair can change the configuration.
func (bp *batchPlanner) tauFromFlow(counts []int64) (tau int64, frozen bool) {
	if len(bp.flow.touched) == 0 {
		return 0, true
	}
	best := float64(bp.maxTau)
	for _, idx := range bp.flow.touched {
		f := bp.flow.val[idx]
		if f <= 0 {
			continue
		}
		target := bp.drift * float64(counts[idx]) / 2
		if target < 0.5 {
			target = 0.5
		}
		if t := target / f; t < best {
			best = t
		}
	}
	bp.flow.reset()
	return int64(best), false
}

// stepBatched executes exactly count interactions in pre-leap-sized,
// drift-bounded epochs, falling back to exact sequential stepping for
// remainders too small to batch and for regimes where batching cannot
// pay off.
func (e *CountEngine) stepBatched(count int64) {
	bp := e.bp
	if bp.maxTau < batchMinTau {
		// The population is too small for any epoch to reach the
		// batching threshold: batch mode degenerates to the exact path.
		e.stepExact(count)
		return
	}
	rem := count
	for rem > 0 {
		if e.sl != nil && e.rowW.Total() <= 0 {
			// Every pair is a certain no-op: the configuration is
			// frozen, the remaining interactions pass in one jump.
			e.t += rem
			return
		}
		if bp.cool > 0 {
			// Exact-stepping backoff after a planning failure.
			run := bp.cool
			if run > rem {
				run = rem
			}
			e.stepExact(run)
			bp.cool -= run
			rem -= run
			continue
		}
		if rem < batchMinTau {
			e.stepExact(rem)
			return
		}
		// Epoch planning costs O(occupied²) regardless of τ — the
		// pre-leap rate accumulation and the multinomial decomposition
		// both walk every occupied ordered pair. Product-state protocols
		// in a scattered regime (CountExact mid-balancing holds ~n
		// distinct loads, one agent each) can square the occupied
		// alphabet past anything an epoch could amortize; planning there
		// costs more than exactly executing the epoch would. Gate on the
		// epoch cap before planning, and on the actual τ after: batching
		// pays only while occupied² stays well below the interactions an
		// epoch executes.
		occ2 := int64(len(e.occ)) * int64(len(e.occ))
		if occ2 >= bp.maxTau {
			bp.backoff()
			continue
		}
		tau, frozen := e.planTau()
		if frozen {
			e.t += rem
			return
		}
		if tau < batchMinTau || tau < occ2/2 {
			// The drift target allows only tiny epochs here (fast-mixing
			// or freshly-seeded states, or an alphabet too scattered to
			// amortize the planner): batching cannot pay off, step
			// exactly and retry later.
			bp.backoff()
			continue
		}
		if tau > rem {
			tau = rem
		}
		bp.bottom = false
		rem -= e.applyPlan(e.planPairs(tau), tau)
		if bp.bottom {
			bp.backoff()
		} else {
			bp.coolLen = batchCoolBase
		}
	}
}

// stepExact runs the per-interaction path (with the self-loop skip when
// available) — the same code, and the same randomness consumption, as a
// non-batched engine.
func (e *CountEngine) stepExact(count int64) {
	if e.sl != nil {
		e.stepSkip(count)
	} else {
		e.stepEach(count)
	}
}

// planTau sizes the next epoch pre-leap: it syncs the table slots,
// accumulates every occupied ordered pair's per-interaction rate
// λ = c[i]·(c[j]−[i=j])/(n·(n−1)) into the expected change rates of
// the states the pair's transition touches (the cached net moves for
// deterministic pairs; the two source states for randomized ones) and
// sizes τ from them (tauFromFlow). frozen reports that no occupied
// pair can change the configuration at all — the chain is absorbed.
func (e *CountEngine) planTau() (tau int64, frozen bool) {
	e.syncSlots()
	bp := e.bp
	c := e.c
	totalW := float64(e.n) * float64(e.n-1)
	for _, i := range e.occ {
		ci := c.counts[i]
		for _, j := range e.occ {
			w := c.counts[j]
			if j == i {
				w = ci - 1
			}
			if w == 0 {
				continue
			}
			ent := e.pairEntry(i, j)
			if ent.kind == pairNoop {
				continue
			}
			addPairFlow(&bp.flow, ent, i, j, float64(ci)*float64(w)/totalW)
		}
	}
	return bp.tauFromFlow(c.counts)
}

// pairEntry returns the transition-table entry for one ordered dense
// pair whose states hold slots, classifying it on first sight since
// the slots were assigned.
func (e *CountEngine) pairEntry(i, j int) *detEntry {
	ent := e.bp.entry(i, j)
	if ent.kind == pairUnclassified {
		*ent = e.classifyPair(i, j)
	}
	return ent
}

// classifyPair derives the transition-matrix entry for one ordered
// dense pair, preferring the cheap SelfLoop predicate, then the
// protocol's deterministic transition table. Deterministic transitions
// are netted into per-state moves; a pair whose net moves vanish (an
// identity, or a swap of the two states) is a configuration no-op.
func (e *CountEngine) classifyPair(i, j int) detEntry {
	qu, qv := e.c.codes[i], e.c.codes[j]
	if e.sl != nil && e.sl.SelfLoop(qu, qv) {
		return detEntry{kind: pairNoop}
	}
	if e.bp.dd != nil {
		if a, b, ok := e.bp.dd.DeltaDet(qu, qv); ok {
			ia, ib := e.lookup(a, i, j), e.lookup(b, i, j)
			ent := detEntry{kind: pairDet}
			net := func(idx int, d int16) {
				for x := 0; x < int(ent.nm); x++ {
					if ent.idx[x] == int32(idx) {
						ent.d[x] += d
						return
					}
				}
				ent.idx[ent.nm], ent.d[ent.nm] = int32(idx), d
				ent.nm++
			}
			net(i, -1)
			net(j, -1)
			net(ia, 1)
			net(ib, 1)
			// Compact zero moves; a fully cancelled transition (identity
			// or swap) leaves the configuration unchanged.
			keep := uint8(0)
			for x := 0; x < int(ent.nm); x++ {
				if ent.d[x] != 0 {
					ent.idx[keep], ent.d[keep] = ent.idx[x], ent.d[x]
					keep++
				}
			}
			ent.nm = keep
			if keep == 0 {
				return detEntry{kind: pairNoop}
			}
			return ent
		}
	}
	return detEntry{kind: pairRandomized}
}

// planPairs samples how the next tau interactions distribute over
// ordered (initiator-state, responder-state) pairs, assuming the
// configuration frozen: rows by conditional binomials over the
// initiator weights c[i], then responders within each row over the
// weights c[j]−[i=j]. The sampled counts always sum to exactly tau.
func (e *CountEngine) planPairs(tau int64) []pairCount {
	bp := e.bp
	plan := bp.plan[:0]
	c := e.c
	rowRem, rowW := tau, e.n
	for _, i := range e.occ {
		if rowRem <= 0 {
			break
		}
		ci := c.counts[i]
		ri := rowRem
		if ci < rowW {
			ri = e.r.Binomial(rowRem, float64(ci)/float64(rowW))
		}
		rowRem -= ri
		rowW -= ci
		if ri == 0 {
			continue
		}
		respRem, respW := ri, e.n-1
		for _, j := range e.occ {
			if respRem <= 0 {
				break
			}
			w := c.counts[j]
			if j == i {
				w--
			}
			if w <= 0 {
				continue
			}
			m := respRem
			if w < respW {
				m = e.r.Binomial(respRem, float64(w)/float64(respW))
			}
			respRem -= m
			respW -= w
			if m > 0 {
				plan = append(plan, pairCount{int32(i), int32(j), m})
			}
		}
	}
	bp.plan = plan
	return plan
}

// applyPlan resolves a sampled epoch plan into net count deltas and
// applies it unless the safety bound trips. On a violation the epoch is
// halved: the first half of the plan is carved out hypergeometrically
// and retried recursively. The second half keeps its already-sampled
// pair counts and, once the full first half has executed, is rechecked
// against the updated configuration and applied as-is when the
// post-leap bound holds (Anderson-style conditional reuse: conditioned
// on the first half, the retained counts are exactly the multivariate-
// hypergeometric remainder of the epoch's sample, so reusing them keeps
// the accepted samples uncensored — discarding them unconditionally
// would resample, and thereby bias, every post-violation half-epoch).
// Only when the recheck also fails, or the first half fell through to
// the exact path short of its sampled size, is the second half
// discarded for the caller to re-plan from the updated configuration.
// Returns the number of interactions executed.
func (e *CountEngine) applyPlan(plan []pairCount, tau int64) int64 {
	if tau < batchMinTau {
		// Too fine to batch: discard the plan and replay the
		// interactions exactly.
		e.bp.bottom = true
		e.stepExact(tau)
		return tau
	}
	if e.resolveDeltas(plan) {
		e.commitDeltas()
		e.t += tau
		return tau
	}
	e.stats.Violations++
	e.bp.delta.reset()
	half := tau / 2
	first, second := e.splitPlan(plan, half, tau)
	done := e.applyPlan(first, half)
	if done != half || e.bp.bottom {
		// The first half was not executed as sampled: either it came up
		// short (a nested second half was discarded mid-cascade), or some
		// leaf of its cascade hit the exact fallback — which replays the
		// interactions with fresh scalar randomness instead of applying
		// the sampled pair counts (bp.bottom records this; stepBatched
		// clears it before every top-level plan, so a set flag here can
		// only come from this call tree). Either way the second half's
		// counts are conditioned on first-half content that never ran,
		// and reusing them would break the hypergeometric conditioning.
		e.stats.HalfDiscards++
		return done
	}
	if e.resolveDeltas(second) {
		e.commitDeltas()
		e.t += tau - half
		e.stats.HalfReuses++
		return tau
	}
	e.stats.Violations++
	e.stats.HalfDiscards++
	e.bp.delta.reset()
	return done
}

// commitDeltas applies the resolved per-state deltas in the planner
// scratch to the configuration and counts the epoch.
func (e *CountEngine) commitDeltas() {
	bp := e.bp
	for _, idx := range bp.delta.touched {
		if d := bp.delta.val[idx]; d != 0 {
			e.shift(idx, d)
		}
	}
	bp.delta.reset()
	e.stats.Epochs++
}

// splitPlan carves a sampled plan of tau interactions into its first
// half interactions and the remainder: the slots of an epoch are
// exchangeable, so the first-half count of each pair type is a
// conditional (multivariate) hypergeometric of the sampled totals, and
// the second half is the exact complement.
func (e *CountEngine) splitPlan(plan []pairCount, half, tau int64) (first, second []pairCount) {
	first = make([]pairCount, 0, len(plan))
	second = make([]pairCount, 0, len(plan))
	sampleRem, totalRem := half, tau
	for _, pc := range plan {
		h := int64(0)
		if sampleRem > 0 {
			h = sampleRem
			if pc.m < totalRem {
				h = e.r.Hypergeometric(sampleRem, pc.m, totalRem)
			}
			sampleRem -= h
		}
		totalRem -= pc.m
		if h > 0 {
			first = append(first, pairCount{pc.i, pc.j, h})
		}
		if rest := pc.m - h; rest > 0 {
			second = append(second, pairCount{pc.i, pc.j, rest})
		}
	}
	return first, second
}

// resolveDeltas turns a plan into net per-state count deltas in the
// planner scratch and reports whether the safety bound holds.
// Randomized pairs call Delta per interaction, re-checking the bound
// periodically so a doomed epoch aborts early.
func (e *CountEngine) resolveDeltas(plan []pairCount) bool {
	bp := e.bp
	sinceCheck := int64(0)
	for _, pc := range plan {
		i, j := int(pc.i), int(pc.j)
		ent := e.pairEntry(i, j)
		switch ent.kind {
		case pairNoop:
			continue
		case pairDet:
			for x := 0; x < int(ent.nm); x++ {
				bp.delta.add(int(ent.idx[x]), int64(ent.d[x])*pc.m)
			}
		default:
			qu, qv := e.c.codes[i], e.c.codes[j]
			e.stats.DeltaCalls += pc.m
			for x := int64(0); x < pc.m; x++ {
				a, b := e.p.Delta(qu, qv, e.r)
				ia, ib := e.lookup(a, i, j), e.lookup(b, i, j)
				if ia != i || ib != j {
					bp.delta.add(i, -1)
					bp.delta.add(j, -1)
					bp.delta.add(ia, 1)
					bp.delta.add(ib, 1)
				}
			}
		}
		sinceCheck += pc.m
		if sinceCheck >= driftCheckStride {
			if !e.safetyOK() {
				return false
			}
			sinceCheck = 0
		}
	}
	return e.safetyOK()
}

// safetyOK reports whether the accumulated deltas keep every touched
// state non-negative and inside the hard bound max(8, 2·drift·count) —
// several times the pre-leap target, so with τ sized by planTau the
// test almost never trips and the applied counts stay unbiased (see
// the package comment on rejection censoring).
func (e *CountEngine) safetyOK() bool {
	bp := e.bp
	for _, idx := range bp.delta.touched {
		d := bp.delta.val[idx]
		if d == 0 {
			continue
		}
		cnt := e.c.counts[idx]
		if cnt+d < 0 {
			return false
		}
		lim := int64(2 * bp.drift * float64(cnt))
		if lim < 8 {
			lim = 8
		}
		if d > lim || d < -lim {
			return false
		}
	}
	return true
}
