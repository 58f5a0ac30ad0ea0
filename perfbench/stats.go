package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule's tail size: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// percentileLadder lists the percentiles the rule may name, lowest first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minSamples returns the smallest sample count for which percentile p
// has at least minBeyond samples beyond it: n·(1 − p/100) ≥ minBeyond.
func minSamples(p float64) int {
	// The tolerance absorbs rounding in 1 − p/100 (99.9 gives 10000.0000006).
	return int(math.Ceil(minBeyond/(1-p/100) - 1e-6))
}

// meetsRule reports whether n samples are enough to report percentile p.
func meetsRule(p float64, n int) bool { return n >= minSamples(p) }

// tailPercentile returns the highest percentile of the ladder that n
// samples support under the rule, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if meetsRule(p, n) {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the median of an even sample is the mean of the
// middle two). It returns 0 for an empty sample and leaves xs unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts checked operations: every operation whose output the
// benchmark checks is attempted once, and failed when the check fails.
type tally struct {
	attempted int
	failed    int
	reasons   []string // first few failure reasons, for the report
}

// check records one checked operation.
func (t *tally) check(ok bool, reason string) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, reason)
	}
}

// failedFrac is the share of attempted operations that failed.
func (t tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed derives the seed of item i of a named stream (trials,
// client menus, fresh jobs) from the run's --seed. Equal arguments give
// equal seeds; the result is never 0, because popcountd canonicalizes
// seed 0 to the default seed 1 and two requests would then collide.
func deriveSeed(seed uint64, stream string, i int) uint64 {
	h := splitmix64(seed)
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h ^ uint64(i))
	if h == 0 {
		h = 1
	}
	return h
}
