package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSummaryPicksHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		tailName string
		tailVal  float64
		p50      float64
	}{
		{1, "", 0, 1},
		{19, "", 0, 10},
		{20, "p50", 10, 10.5},
		{100, "p90", 90, 50.5},
		{999, "p95", 950, 500},
		{1000, "p99", 990, 500.5},
		{10000, "p99.9", 9990, 5000.5},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailName != c.tailName || s.TailVal != c.tailVal || s.P50 != c.p50 {
			t.Errorf("summarize(1..%d) = %+v, want tail %q=%g p50=%g", c.n, s, c.tailName, c.tailVal, c.p50)
		}
		if s.Min != 1 || s.Max != float64(c.n) {
			t.Errorf("summarize(1..%d) min/max = %g/%g", c.n, s.Min, s.Max)
		}
	}
	if s := summarize(nil); s.N != 0 || s.String() != "n=0" {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("median/percentile of no samples must be NaN")
	}
	if got := percentile([]float64{3, 1, 2, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %g, want 2", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	// Overlapping and nested children count once; parts outside the
	// parent's interval do not count.
	iv := [][2]int64{{20, 40}, {30, 50}, {60, 70}, {90, 130}, {0, 5}}
	if got := covered(iv, 10, 100); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
	tr := newTracer(true)
	tr.Record(0, "root", tr.t0, tr.t0.Add(100))
	root := tr.Spans()[0].ID
	tr.Record(root, "a", tr.t0.Add(10), tr.t0.Add(30))
	tr.Record(root, "b", tr.t0.Add(20), tr.t0.Add(50))
	for _, s := range tr.Spans() {
		want := map[string]int64{"root": 60, "a": 20, "b": 30}[s.Name]
		if s.Self != want {
			t.Errorf("span %s self = %d, want %d", s.Name, s.Self, want)
		}
	}
}

// declared reads the metric lists of BENCHMARK.json at the checkout root.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunEmitsDeclaredMetrics runs one short pass of every workload,
// untraced and traced, and checks the report carries exactly the metrics
// BENCHMARK.json declares, each with its unit, and that the outputs
// checked out.
func TestShortRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	t.Chdir(t.TempDir()) // spans land under the temp dir
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			rep, err := measure(name, options{seed: 3, seconds: 100 * time.Millisecond, trace: trace, setups: 1, datasets: 1}, run)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, rep.Correct, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(rep.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := rep.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", name, trace, m, got.Unit, unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", name, m, got.Value)
				}
			}
		}
	}
}
