package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {75, 40}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.want)
		}
		if !meetsRule(c.p, c.want) || meetsRule(c.p, c.want-1) {
			t.Errorf("meetsRule(%g) boundary is not at %d samples", c.p, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	if got := percentile(ten, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 of 1..10 = %g, want 9.1", got)
	}
	if got := percentile(ten, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := percentile(ten, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Trace: 1, ID: 1, Name: "trial", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50), a third [60, 70), and
		// a fourth sticks out past the parent's end: [90, 100) counts.
		{Trace: 1, ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Trace: 1, ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},
		{Trace: 1, ID: 4, Parent: 1, Start: 60 * ms, End: 70 * ms},
		{Trace: 1, ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms},
		// A grandchild is covered by its own parent only.
		{Trace: 1, ID: 6, Parent: 3, Start: 25 * ms, End: 35 * ms},
		// Same span IDs in another trace do not leak across traces.
		{Trace: 2, ID: 1, Name: "trial", Start: 0, End: 10 * ms},
		{Trace: 2, ID: 2, Parent: 1, Start: 0, End: 10 * ms},
	}
	self := selfTimes(spans)
	for _, c := range []struct {
		trace, id uint64
		want      time.Duration
	}{
		{1, 1, 40 * ms}, // 100 − (40 + 10 + 10)
		{1, 2, 20 * ms},
		{1, 3, 20 * ms}, // 30 − 10
		{1, 5, 30 * ms},
		{2, 1, 0},
	} {
		if got := self[[2]uint64{c.trace, c.id}]; got != c.want {
			t.Errorf("self time of span %d/%d = %v, want %v", c.trace, c.id, got, c.want)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var rec *Recorder
	tr := rec.Start(1)
	id := tr.Begin("x", 0)
	tr.End(id)
	tr.Finish()
	if tr != nil || id != 0 {
		t.Fatalf("nil recorder produced trace %v, span %d", tr, id)
	}
}

func TestFailedFracCounting(t *testing.T) {
	var a tally
	if a.failedFrac() != 0 {
		t.Fatalf("empty tally failed_frac = %g, want 0", a.failedFrac())
	}
	a.check(true, "")
	a.check(false, "wrong output")
	a.check(true, "")
	if a.attempted != 3 || a.failed != 1 || math.Abs(a.failedFrac()-1.0/3) > 1e-12 {
		t.Fatalf("tally = %+v, frac %g; want 3 attempted, 1 failed", a, a.failedFrac())
	}
	for i := 0; i < 10; i++ {
		a.check(false, "cached bytes differ")
	}
	if a.attempted != 13 || a.failed != 11 {
		t.Fatalf("tally = %d/%d, want 11/13", a.failed, a.attempted)
	}
	if len(a.reasons) != 8 || a.reasons[0] != "wrong output" {
		t.Fatalf("reasons = %q, want the first 8 starting with the first failure", a.reasons)
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(7, "trial", 3) != deriveSeed(7, "trial", 3) {
		t.Fatal("deriveSeed is not deterministic")
	}
	seen := make(map[uint64]string)
	for _, seed := range []uint64{0, 1, 2, 1 << 63} {
		for _, stream := range []string{"trial", "setup", "resubmit", "job"} {
			for i := 0; i < 2000; i++ {
				s := deriveSeed(seed, stream, i)
				if s == 0 {
					t.Fatalf("deriveSeed(%d, %q, %d) = 0", seed, stream, i)
				}
				if prev, dup := seen[s]; dup {
					t.Fatalf("deriveSeed collision: %d/%s/%d and %s", seed, stream, i, prev)
				}
				seen[s] = stream
			}
		}
	}
}

func TestCollectRequiresExactMetricSet(t *testing.T) {
	want := [][2]string{{"a", "s"}, {"b", "ms"}}
	r := newReport()
	r.add("a", 1, "s")
	if _, err := r.collect(want); err == nil {
		t.Error("missing metric accepted")
	}
	r.add("b", 2, "s")
	if _, err := r.collect(want); err == nil {
		t.Error("wrong unit accepted")
	}
	r = newReport()
	r.add("a", 1, "s")
	r.add("b", 2, "ms")
	got, err := r.collect(want)
	if err != nil || got["b"].Value != 2 {
		t.Errorf("collect = %v, %v", got, err)
	}
	r.add("c", 3, "s")
	if _, err := r.collect(want); err == nil {
		t.Error("extra metric accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}
