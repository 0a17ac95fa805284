package main

import (
	"fmt"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root declares the same lists; the package test keeps the two
// in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the cluster sees, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mb_s", "MB/s"},
	{"reorg_mb_s", "MB/s"},
	{"advise_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"sim_node_s", "node-s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the single-layer metrics, reported by the traced run of
// every workload; a layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.plan_insert.ms", "ms"},
		{"cluster.plan_insert.p50_us", "us"},
		{"cluster.plan_insert.count", "count"},
		{"cluster.execute_plan.ms", "ms"},
		{"cluster.execute_plan.p50_ms", "ms"},
		{"cluster.execute_plan.allocs", "count"},
		{"cluster.execute_plan.wall_per_sim", "ratio"},
		{"cluster.plan_scaleout.ms", "ms"},
		{"cluster.plan_scaleout.count", "count"},
		{"cluster.execute_rebalance.ms", "ms"},
		{"cluster.execute_rebalance.allocs", "count"},
		{"cluster.execute_rebalance.moved_mb", "MB"},
		{"cluster.execute_rebalance.wall_per_sim", "ratio"},
		{"partition.load_rsd", "ratio"},
		{"transport.pushes", "count"},
		{"transport.pushed_mb", "MB"},
		{"transport.pushed_bytes_range", "B"},
		{"transport.fetches", "count"},
		{"transport.fetch_mb", "MB"},
		{"transport.push_mb_per_user_mb", "ratio"},
	}
	for _, op := range queryOps {
		defs = append(defs,
			metricDef{"query." + op + ".p50_ms", "ms"},
			metricDef{"query." + op + ".count", "count"},
			metricDef{"query." + op + ".wall_per_sim", "ratio"})
	}
	return append(defs,
		metricDef{"query.partial", "count"},
		metricDef{"query.wrong", "count"},
		metricDef{"advisor.advise.ms", "ms"},
		metricDef{"advisor.advise.p50_ms", "ms"},
		metricDef{"advisor.rebuilds", "count"},
		metricDef{"supervisor.recover_p50_ms", "ms"},
		metricDef{"supervisor.readmit_p50_ms", "ms"},
		metricDef{"supervisor.detect_ms", "ms"},
		metricDef{"supervisor.fail_to_recovered_ms", "ms"},
		metricDef{"supervisor.alive_to_readmitted_ms", "ms"},
		metricDef{"supervisor.retries", "count"},
		metricDef{"supervisor.gave_up", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the metrics object for defs from values. A metric missing
// from values is 0 when zeroOK (a layer the workload does not exercise)
// and an error otherwise.
func fill(defs []metricDef, values map[string]float64, zeroOK bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// lifecycleMetrics sets the end-to-end metrics the lifecycle passes give:
// the medians of per-cycle ingest throughput, of advise latency and of the
// Eq 1 total (deterministic: equal in every pass over the same data), and
// reorganisation throughput. Scale-outs differ too much in size for a
// median of their rates, so reorg_mb_s is the bytes over the wall time of
// the n-th scale-out of a pass, each taken as its median over the passes,
// summed over n: a collection pausing one pass's scale-out does not move
// it.
func lifecycleMetrics(v map[string]float64, passes []*pass) {
	var ingest, advise, nodeSeconds []float64
	for _, p := range passes {
		ingest = append(ingest, p.ingest...)
		advise = append(advise, p.advise...)
		nodeSeconds = append(nodeSeconds, p.nodeSeconds())
	}
	var moved, wall float64
	for n := 0; ; n++ {
		var bytes, secs []float64
		for _, p := range passes {
			if n < len(p.reorgWall) {
				bytes = append(bytes, float64(p.reorgBytes[n]))
				secs = append(secs, p.reorgWall[n].Seconds())
			}
		}
		if len(secs) == 0 {
			break
		}
		moved += median(bytes)
		wall += median(secs)
	}
	v["ingest_mb_s"] = median(ingest)
	v["reorg_mb_s"] = moved / 1e6 / wall
	v["advise_p50_ms"] = median(advise)
	v["sim_node_s"] = median(nodeSeconds)
}

// layerMetrics derives the per-layer metrics of the lifecycle calls from
// the traced spans, grouped per pass: ".ms" is a call's wall time per
// pass (median over passes), ".count" the calls traced, ".allocs" the
// median objects allocated per call, and ".wall_per_sim" wall seconds
// over the cost model's simulated seconds summed over the calls. Query
// operator metrics come from the lifecycle's suite queries when
// lifecycleQueries is set, and from the workload's own query loop
// otherwise.
func layerMetrics(v map[string]float64, spans []Span, passes map[int64]*pass, userBytes int64, lifecycleQueries bool) {
	cycleOf := map[int64]int64{} // cycle span → pass span
	for _, s := range spans {
		if s.Name == "lifecycle.cycle" {
			cycleOf[s.ID] = s.Parent
		}
	}
	type agg struct {
		walls, allocs []float64
		wall, sim     float64
		perPass       map[int64]float64
	}
	calls := map[string]*agg{}
	for _, s := range spans {
		if _, inCycle := cycleOf[s.Parent]; strings.HasPrefix(s.Name, "query.") && inCycle != lifecycleQueries {
			continue
		}
		a := calls[s.Name]
		if a == nil {
			a = &agg{perPass: map[int64]float64{}}
			calls[s.Name] = a
		}
		d := float64(s.End - s.Start)
		a.walls = append(a.walls, d/1e6)
		a.allocs = append(a.allocs, float64(s.Allocs))
		a.wall += d / 1e9
		a.sim += s.Sim
		if p, ok := cycleOf[s.Parent]; ok {
			a.perPass[p] += d / 1e6
		}
	}
	perPass := func(a *agg) float64 {
		var xs []float64
		for _, x := range a.perPass {
			xs = append(xs, x)
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if a := calls["cluster.plan_insert"]; a != nil {
		v["cluster.plan_insert.ms"] = perPass(a)
		v["cluster.plan_insert.p50_us"] = median(a.walls) * 1e3
		v["cluster.plan_insert.count"] = float64(len(a.walls))
	}
	if a := calls["cluster.execute_plan"]; a != nil {
		v["cluster.execute_plan.ms"] = perPass(a)
		v["cluster.execute_plan.p50_ms"] = median(a.walls)
		v["cluster.execute_plan.allocs"] = median(a.allocs)
		v["cluster.execute_plan.wall_per_sim"] = ratio(a.wall, a.sim)
	}
	if a := calls["cluster.plan_scaleout"]; a != nil {
		v["cluster.plan_scaleout.ms"] = perPass(a)
		v["cluster.plan_scaleout.count"] = float64(len(a.walls))
	}
	if a := calls["cluster.execute_rebalance"]; a != nil {
		v["cluster.execute_rebalance.ms"] = perPass(a)
		v["cluster.execute_rebalance.allocs"] = median(a.allocs)
	}
	if a := calls["advisor.advise"]; a != nil {
		v["advisor.advise.ms"] = perPass(a)
		v["advisor.advise.p50_ms"] = median(a.walls)
	}
	for _, op := range queryOps {
		if a := calls["query."+op]; a != nil {
			v["query."+op+".p50_ms"] = median(a.walls)
			v["query."+op+".count"] = float64(len(a.walls))
			v["query."+op+".wall_per_sim"] = ratio(a.wall, a.sim)
		}
	}
	// Eq 7 calibration and wire traffic per traced pass.
	var measured time.Duration
	var predicted float64
	var moved, rebuilds, rsd, pushes, pushed, fetches, fetched []float64
	for _, p := range passes {
		measured += p.rebalMeasured
		predicted += p.rebalPredicted.Seconds()
		moved = append(moved, mb(p.movedBytes))
		rebuilds = append(rebuilds, float64(p.rebuilds))
		rsd = append(rsd, p.rsd)
		pushes = append(pushes, float64(p.wire.Pushes))
		pushed = append(pushed, float64(p.wire.PushedBytes))
		fetches = append(fetches, float64(p.wire.Fetches))
		fetched = append(fetched, mb(p.wire.FetchBytes))
	}
	if len(passes) > 0 {
		v["partition.load_rsd"] = median(rsd)
		v["cluster.execute_rebalance.moved_mb"] = median(moved)
		v["advisor.rebuilds"] = median(rebuilds)
		v["cluster.execute_rebalance.wall_per_sim"] = ratio(measured.Seconds(), predicted)
		wireMetrics(v, pushes, pushed, fetches, fetched, userBytes)
	}
}

// wireMetrics sets the transport metrics from per-iteration traffic
// samples: medians, and the range of pushed bytes, which varies by a few
// hundred bytes per iteration with ring segmentation.
func wireMetrics(v map[string]float64, pushes, pushedBytes, fetches, fetchMB []float64, userBytes int64) {
	if len(pushedBytes) == 0 {
		return
	}
	s := summarize(append([]float64(nil), pushedBytes...))
	v["transport.pushes"] = median(pushes)
	v["transport.pushed_mb"] = s.P50 / 1e6
	v["transport.pushed_bytes_range"] = s.Max - s.Min
	v["transport.fetches"] = median(fetches)
	v["transport.fetch_mb"] = median(fetchMB)
	v["transport.push_mb_per_user_mb"] = s.P50 / float64(userBytes)
}

// mb converts bytes to megabytes (10^6).
func mb(n int64) float64 { return float64(n) / 1e6 }
