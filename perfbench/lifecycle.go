package main

import (
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Advise arguments: no cap on moves, the 1.4 load slack the examples and
// elasticbench use.
const (
	adviseMaxMoves = 1 << 20
	adviseSlack    = 1.4
)

// lifecycle is the paper's cyclic workload on one cluster shape: a k-d
// tree over 2 nodes growing by 2 at capacity up to 8 (the shape
// elasticbench's suiteCluster uses), every cycle ingesting the next batch,
// advising, and running the use case's six suite queries.
type lifecycle struct {
	gen         workload.Generator
	batches     [][]*array.Chunk
	userBytes   int64
	replication int
	advise      []string
	queries     func(c *cluster.Cluster, cycle int) ([]suiteQuery, error)
	// want is core.Engine.Run's record of the same generator and seed,
	// which every replay must reproduce exactly; nil skips the check.
	want []core.CycleStats
}

// newLifecycle generates every batch of gen.
func newLifecycle(gen workload.Generator, replication int, advise []string,
	queries func(*cluster.Cluster, int) ([]suiteQuery, error)) (*lifecycle, error) {
	l := &lifecycle{gen: gen, replication: replication, advise: advise, queries: queries}
	for i := 0; i < gen.Cycles(); i++ {
		b, err := gen.Batch(i)
		if err != nil {
			return nil, err
		}
		l.batches = append(l.batches, b)
		l.userBytes += workload.BatchBytes(b)
	}
	return l, nil
}

// check runs core.Engine.Run on an in-process cluster of the same shape,
// the reference every later replay must reproduce.
func (l *lifecycle) check() error {
	ref, err := core.NewEngine(l.gen, l.config(nil, false))
	if err != nil {
		return err
	}
	defer ref.Close()
	if l.want, err = ref.Run(); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	return nil
}

// config is the engine configuration; replay attaches the continuous
// advisor the replayed workloads call (the reference runs without).
func (l *lifecycle) config(tr transport.Transport, replay bool) core.Config {
	cfg := core.Config{
		PartitionerKind:   "kdtree",
		InitialNodes:      2,
		NodeCapacity:      l.userBytes/6 + 1,
		FixedStep:         2,
		MaxNodes:          8,
		RunQueries:        true,
		ReplicationFactor: l.replication,
		Transport:         tr,
	}
	if replay {
		cfg.AdviseArrays = l.advise
	}
	return cfg
}

// pass is what one replay of every cycle measured.
type pass struct {
	stats  []core.CycleStats
	ingest []float64 // MB/s per cycle: batch bytes over PlanInsert+ExecutePlan wall
	// reorgWall and reorgBytes hold, per scale-out, the
	// PlanScaleOut+ExecuteRebalance wall time and the bytes it moved.
	reorgWall  []time.Duration
	reorgBytes []int64
	movedBytes int64
	// rebalMeasured/rebalPredicted sum RebalanceResult's execution wall
	// clock and its Eq 7 prediction over the pass's scale-outs.
	rebalMeasured  time.Duration
	rebalPredicted cluster.Duration
	advise         []float64 // ms per Live.Advise call
	queries        []float64 // ms per query call
	queryWall      time.Duration
	attempted      int
	rsd            float64
	rebuilds       int             // the continuous advisor's full graph rebuilds
	wire           transport.Stats // traffic during the pass
}

// nodeSeconds is the pass's Eq 1 total.
func (p *pass) nodeSeconds() float64 { return core.TotalNodeSeconds(p.stats) }

// replay drives every cycle through eng's cluster in core.Engine.RunCycle's
// order — scale out when the batch would exceed capacity
// (PlanScaleOut→ExecuteRebalance), PlanInsert→ExecutePlan, one Live.Advise
// whose plan is discarded, then the six suite queries one by one — and
// checks each cycle against the reference run. parent is the trace span
// the cycles hang under.
func (l *lifecycle) replay(tr *Tracer, parent int64, eng *core.Engine) (*pass, error) {
	c := eng.Cluster()
	p := &pass{}
	var before transport.Stats
	if t := c.Transport(); t != nil {
		before = t.Stats()
	}
	for i, batch := range l.batches {
		cyc := tr.Begin(parent, "lifecycle.cycle")
		st, err := l.cycle(tr, cyc.id, eng, p, i, batch)
		tr.End(cyc, 0)
		if err != nil {
			return p, fmt.Errorf("cycle %d: %w", i, err)
		}
		if l.want != nil {
			if err := sameCycle(st, l.want[i]); err != nil {
				return p, fmt.Errorf("cycle %d differs from core.Engine.Run: %w", i, err)
			}
		}
		p.stats = append(p.stats, st)
	}
	p.rsd = c.RSD()
	if live := eng.Advisor(); live != nil {
		p.rebuilds = live.Rebuilds()
	}
	if t := c.Transport(); t != nil {
		p.wire = traffic(before, t.Stats())
	}
	return p, nil
}

// traffic returns the push and fetch counters accumulated between two
// snapshots of a transport's statistics.
func traffic(before, after transport.Stats) transport.Stats {
	return transport.Stats{
		Pushes: after.Pushes - before.Pushes, PushedBytes: after.PushedBytes - before.PushedBytes,
		Fetches: after.Fetches - before.Fetches, FetchBytes: after.FetchBytes - before.FetchBytes,
	}
}

// cycle runs one workload cycle and returns its statistics.
func (l *lifecycle) cycle(tr *Tracer, parent int64, eng *core.Engine, p *pass, i int, batch []*array.Chunk) (core.CycleStats, error) {
	c := eng.Cluster()
	demand := c.TotalBytes() + workload.BatchBytes(batch)
	st := core.CycleStats{Cycle: i, DemandBytes: demand, NodesBefore: c.NumNodes()}
	k := 0
	if demand > c.Capacity() {
		k = 2
	}
	if c.NumNodes()+k > 8 {
		k = 8 - c.NumNodes()
	}
	if k > 0 {
		p.attempted += 2
		sp := tr.Begin(parent, "cluster.plan_scaleout")
		rplan, err := c.PlanScaleOut(k)
		d := tr.End(sp, 0)
		if err != nil {
			return st, err
		}
		st.Added = len(rplan.Added())
		st.MovedBytes = rplan.Bytes()
		sp = tr.Begin(parent, "cluster.execute_rebalance")
		st.Reorg, err = c.ExecuteRebalance(rplan)
		d += tr.End(sp, st.Reorg.Seconds())
		if err != nil {
			return st, err
		}
		res := rplan.Result()
		p.rebalMeasured += res.MeasuredDuration
		p.rebalPredicted += res.PredictedDuration
		p.reorgWall = append(p.reorgWall, d)
		p.reorgBytes = append(p.reorgBytes, st.MovedBytes)
		p.movedBytes += st.MovedBytes
	}
	st.NodesAfter = c.NumNodes()

	p.attempted += 2
	sp := tr.Begin(parent, "cluster.plan_insert")
	plan, err := c.PlanInsert(batch)
	d := tr.End(sp, 0)
	if err != nil {
		return st, err
	}
	sp = tr.Begin(parent, "cluster.execute_plan")
	st.Insert, err = c.ExecutePlan(plan)
	d += tr.End(sp, st.Insert.Seconds())
	if err != nil {
		return st, err
	}
	p.ingest = append(p.ingest, mb(workload.BatchBytes(batch))/d.Seconds())
	st.RSD = c.RSD()

	if live := eng.Advisor(); live != nil {
		p.attempted++
		sp := tr.Begin(parent, "advisor.advise")
		adv, err := live.Advise(adviseMaxMoves, adviseSlack)
		d := tr.End(sp, 0)
		if err != nil {
			return st, fmt.Errorf("advise: %w", err)
		}
		adv.Plan.Discard()
		p.advise = append(p.advise, ms(d))
	}

	qs, err := l.queries(c, i)
	if err != nil {
		return st, err
	}
	var spj, science cluster.Duration
	for _, q := range qs {
		p.attempted++
		sp := tr.Begin(parent, "query."+q.op)
		r, err := q.run(c)
		d := tr.End(sp, r.Elapsed.Seconds())
		if err != nil {
			return st, fmt.Errorf("%s: %w", q.label, err)
		}
		if l.want != nil && r != l.want[i].Suite.PerQuery[q.label] {
			return st, fmt.Errorf("%s returned %+v, core.Engine.Run %+v", q.label, r, l.want[i].Suite.PerQuery[q.label])
		}
		p.queries = append(p.queries, ms(d))
		p.queryWall += d
		if q.spj {
			spj += r.Elapsed
		} else {
			science += r.Elapsed
		}
	}
	st.Query = spj + science
	return st, nil
}

// cycleRecord is the simulated record of a cycle that a replay must
// reproduce: everything in core.CycleStats but the per-query suite results,
// which cycle compares one by one.
type cycleRecord struct {
	Cycle                int
	Demand               int64
	Before, After, Added int
	Moved                int64
	Insert, Reorg, Query cluster.Duration
	RSD                  float64
}

// sameCycle compares a replayed cycle with the reference run's.
func sameCycle(got, want core.CycleStats) error {
	rec := func(s core.CycleStats) cycleRecord {
		return cycleRecord{s.Cycle, s.DemandBytes, s.NodesBefore, s.NodesAfter, s.Added, s.MovedBytes, s.Insert, s.Reorg, s.Query, s.RSD}
	}
	if g, w := rec(got), rec(want); g != w {
		return fmt.Errorf("replay %+v, reference %+v", g, w)
	}
	return nil
}

// ms converts a wall duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
