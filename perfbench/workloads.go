package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/supervisor"
	"repro/internal/transport"
	"repro/internal/workload"
)

// heapPeriod is the heap sampler's period: short against a query (ms) so
// the peak is seen, long enough that sampling costs nothing measurable.
const heapPeriod = 2 * time.Millisecond

// phase paces a workload's timed phase. In trace mode the first third runs
// untraced and the rest traced, so the traced iterations can be compared
// with untraced ones of the same process (trace.overhead_pct).
type phase struct {
	tr       *Tracer
	end      time.Time
	switchAt time.Time
	pending  bool // tracing still to be switched on
}

func startPhase(tr *Tracer, o options) *phase {
	now := time.Now()
	p := &phase{tr: tr, end: now.Add(o.seconds)}
	if o.trace {
		tr.on.Store(false)
		p.switchAt, p.pending = now.Add(o.seconds/3), true
	}
	return p
}

// more reports whether to run another iteration: until the phase ends,
// and in trace mode at least one iteration on each side of the switch.
func (p *phase) more() bool {
	now := time.Now()
	if p.pending && !now.Before(p.switchAt) {
		p.pending = false
		p.tr.on.Store(true)
		return true
	}
	return now.Before(p.end)
}

// overhead returns the tracing overhead in percent: the median of traced
// samples over the median of untraced ones.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}

// setupTimes runs build o.setups times and returns the median wall time
// in seconds; build releases the previous state before building anew.
// Each build, and the timed phase after the last, starts from a collected
// heap, so garbage the benchmark itself left does not land in a timing.
func setupTimes(o options, build func() error) (float64, error) {
	var times []float64
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	return median(times), nil
}

// runtimeMetrics sets the per-iteration GC and allocation figures of the
// traced part of a phase.
func runtimeMetrics(v map[string]float64, gc0, alloc0 uint64, iterations int) {
	gc1, alloc1 := runtimeCounters()
	if iterations > 0 {
		v["runtime.gc_cycles"] = float64(gc1-gc0) / float64(iterations)
		v["runtime.alloc_mb"] = float64(alloc1-alloc0) / 1e6 / float64(iterations)
	}
}

// queryMetrics sets the end-to-end query metrics from per-call latencies
// (ms) and the wall time the calls were served in.
func queryMetrics(v map[string]float64, lat []float64, wall time.Duration) {
	s := summarize(append([]float64(nil), lat...))
	v["query_p50_ms"] = s.P50
	v["query_p99_ms"] = percentile(append([]float64(nil), lat...), 0.99)
	v["query_qps"] = float64(len(lat)) / wall.Seconds()
	if !supported(len(lat), 0.99) {
		fmt.Fprintf(os.Stderr, "warning: query_p99_ms rests on %d samples, fewer than %d beyond p99\n", len(lat), minTail)
	}
	fmt.Fprintf(os.Stderr, "query latency ms: %v\n", s)
}

// runCycle is cycle-modis-tcp: the paper's lifecycle over TCP, pass after
// pass, each on a fresh 2-node cluster that grows to 8.
func runCycle(o options) (*outcome, error) {
	gen, err := workload.NewMODIS(workload.MODISConfig{Seed: o.seed})
	if err != nil {
		return nil, err
	}
	tr := newTracer(o.trace)
	var l *lifecycle
	var eng *core.Engine
	build := func() error {
		if eng != nil {
			_ = eng.Close()
		}
		var err error
		eng, err = core.NewEngine(gen, l.config(transport.NewTCP(transport.TCPOptions{}), true))
		return err
	}
	setup, err := setupTimes(o, func() error {
		var err error
		if l, err = newLifecycle(gen, 1, []string{"Band1", "Band2"}, modisQueries); err != nil {
			return err
		}
		return build()
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = eng.Close() }()
	if err := l.check(); err != nil {
		return nil, err
	}
	runtime.GC()

	out := &outcome{values: map[string]float64{"setup_s": setup}, correct: true}
	var passes []*pass
	traced := map[int64]*pass{}
	var tracedWall, untracedWall []float64
	heap := startHeapSampler(heapPeriod)
	var gc0, alloc0 uint64
	ph := startPhase(tr, o)
	for ph.more() {
		if tr.on.Load() && len(traced) == 0 {
			gc0, alloc0 = runtimeCounters()
		}
		sp := tr.Begin(0, "lifecycle.pass")
		p, err := l.replay(tr, sp.id, eng)
		d := tr.End(sp, 0)
		out.attempted += p.attempted
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if sp.traced {
			traced[sp.id] = p
			tracedWall = append(tracedWall, ms(d))
		} else {
			untracedWall = append(untracedWall, ms(d))
		}
		if err := build(); err != nil {
			return nil, err
		}
		runtime.GC() // the finished pass's cluster is garbage
	}
	peak := heap.Stop()

	v := out.values
	if !o.trace {
		lifecycleMetrics(v, passes)
		var lat []float64
		var wall time.Duration
		for _, p := range passes {
			lat = append(lat, p.queries...)
			wall += p.queryWall
		}
		queryMetrics(v, lat, wall)
		v["heap_peak_mb"] = float64(peak) / 1e6
		fmt.Fprintf(os.Stderr, "passes: %d\n", len(passes))
		return out, nil
	}
	out.values = map[string]float64{}
	out.spans = tr.Spans()
	layerMetrics(out.values, out.spans, traced, l.userBytes, true)
	runtimeMetrics(out.values, gc0, alloc0, len(traced))
	out.values["trace.spans"] = float64(len(out.spans))
	out.values["trace.overhead_pct"] = overhead(tracedWall, untracedWall)
	return out, nil
}

// aisSlab is one cycle's six AIS queries and AISSuite's answers to them.
type aisSlab struct {
	qs   []suiteQuery
	want map[string]query.Result
}

// runAIS is query-ais-local: the AIS lifecycle ingested in process (no
// transport) during setup, then one client issuing AISSuite's six queries
// round after round, each round against the next cycle, newest first.
//
// Port skew makes one dataset's query cost hinge on where its few hot
// chunks land, so seed against seed a single dataset's figures differ by
// a third. The workload therefore serves o.datasets datasets drawn from the
// seed, one after another, each for an equal share of the timed phase;
// setup_s is the median of their builds. The in-process replay is not
// checked against core.Engine.Run, which would run the same code path; the
// answers are checked against AISSuite.
func runAIS(o options) (*outcome, error) {
	tr := newTracer(o.trace)
	out := &outcome{values: map[string]float64{}, correct: true}
	var setups, peaks, lat, tracedLat, untracedLat []float64
	var setupPasses []*pass
	traced := map[int64]*pass{}
	var wall time.Duration
	var gcCycles, allocBytes uint64
	tracedRounds := 0
	var userBytes int64
	for d := 0; d < o.datasets; d++ {
		gen, err := workload.NewAIS(workload.AISConfig{Seed: o.seed*int64(o.datasets) + int64(d) + 1})
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		l, err := newLifecycle(gen, 1, []string{"Broadcast"}, aisQueries)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(gen, l.config(nil, true))
		if err != nil {
			return nil, err
		}
		sp := tr.Begin(0, "lifecycle.pass")
		p, err := l.replay(tr, sp.id, eng)
		tr.End(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupPasses = append(setupPasses, p)
		if sp.traced {
			traced[sp.id] = p
		}
		userBytes = l.userBytes

		slabs, err := aisSlabs(eng.Cluster(), gen.Cycles())
		if err != nil {
			return nil, err
		}
		runtime.GC()
		heap := startHeapSampler(heapPeriod)
		ph := startPhase(tr, options{seconds: o.seconds / time.Duration(o.datasets), trace: o.trace})
		var gc0, alloc0 uint64
		start := time.Now()
		for rounds := 0; ph.more(); rounds++ {
			if tr.on.Load() && gc0 == 0 {
				gc0, alloc0 = runtimeCounters()
			}
			slab := slabs[rounds%len(slabs)]
			round := tr.Begin(0, "query.round")
			for _, q := range slab.qs {
				out.attempted++
				sp := tr.Begin(round.id, "query."+q.op)
				r, err := q.run(eng.Cluster())
				d := tr.End(sp, r.Elapsed.Seconds())
				if want := slab.want[q.label]; err != nil || r != want {
					out.failed++
					out.correct = false
					fmt.Fprintf(os.Stderr, "%s: got %+v (err %v), AISSuite %+v\n", q.label, r, err, want)
					continue
				}
				lat = append(lat, ms(d))
				if sp.traced {
					tracedLat = append(tracedLat, ms(d))
				} else {
					untracedLat = append(untracedLat, ms(d))
				}
			}
			tr.End(round, 0)
			if round.traced {
				tracedRounds++
			}
		}
		wall += time.Since(start)
		peaks = append(peaks, float64(heap.Stop())/1e6)
		if gc0 != 0 {
			gc1, alloc1 := runtimeCounters()
			gcCycles += gc1 - gc0
			allocBytes += alloc1 - alloc0
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}

	if !o.trace {
		v := out.values
		v["setup_s"] = median(setups)
		lifecycleMetrics(v, setupPasses)
		queryMetrics(v, lat, wall)
		v["heap_peak_mb"] = median(peaks)
		return out, nil
	}
	v := out.values
	out.spans = tr.Spans()
	layerMetrics(v, out.spans, traced, userBytes, false)
	if tracedRounds > 0 {
		v["runtime.gc_cycles"] = float64(gcCycles) / float64(tracedRounds)
		v["runtime.alloc_mb"] = float64(allocBytes) / 1e6 / float64(tracedRounds)
	}
	v["trace.spans"] = float64(len(out.spans))
	v["trace.overhead_pct"] = overhead(tracedLat, untracedLat)
	return out, nil
}

// aisSlabs returns every cycle's queries and AISSuite's answers, newest
// cycle first, so a run's query mix covers every cycle's skew pattern.
func aisSlabs(c *cluster.Cluster, cycles int) ([]aisSlab, error) {
	var slabs []aisSlab
	for k := cycles - 1; k >= 0; k-- {
		ref, err := query.AISSuite(c, k)
		if err != nil {
			return nil, err
		}
		qs, err := aisQueries(c, k)
		if err != nil {
			return nil, err
		}
		slabs = append(slabs, aisSlab{qs: qs, want: ref.PerQuery})
	}
	return slabs, nil
}

// fastSupervision is elasticbench's scaled-down supervisor timing: 5 ms
// heartbeats, suspect after 30 ms, down after 60 ms, 20 ms quarantine.
var fastSupervision = supervisor.Options{
	HeartbeatInterval: 5 * time.Millisecond,
	Detector:          detector.Options{SuspectAfter: 30 * time.Millisecond, DownAfter: 60 * time.Millisecond},
	Quarantine:        20 * time.Millisecond,
}

// eventWait bounds how long the fault driver waits for one supervisor
// event before it counts the round as failed.
const eventWait = 10 * time.Second

// settledPasses is how many times the failover workload's reader runs the
// MODIS suite in each settled state of a fault round.
const settledPasses = 5

// runFailover is failover-modis-r2-tcp: the MODIS lifecycle ingested at
// R=2 over TCP through a fault-injecting transport during setup, then,
// under a supervisor, a fault driver isolating and healing the
// non-coordinator nodes in turn. The supervisor starts once the setup
// lifecycle has been checked against core.Engine.Run: a false Down verdict
// during ingest on a loaded host would fail that check for a reason the
// timed phase is there to measure.
//
// The reader runs the MODIS suite for the last cycle only while the
// cluster is settled: once the victim's recovery is done, before it is
// healed, and once it is readmitted. With concurrent set (the drill) the
// reader instead loops on its own goroutine throughout, racing detection,
// recovery and readmission; reads then fail, as README.md describes.
func runFailover(o options, concurrent bool) (*outcome, error) {
	gen, err := workload.NewMODIS(workload.MODISConfig{Seed: o.seed})
	if err != nil {
		return nil, err
	}
	ref, err := newLifecycle(gen, 2, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := ref.check(); err != nil {
		return nil, err
	}
	tr := newTracer(o.trace)
	var l *lifecycle
	var eng *core.Engine
	var faults *transport.FaultTransport
	var setupPasses []*pass
	traced := map[int64]*pass{}
	setup, err := setupTimes(o, func() error {
		if eng != nil {
			_ = eng.Close()
		}
		var err error
		if l, err = newLifecycle(gen, 2, []string{"Band1", "Band2"}, modisQueries); err != nil {
			return err
		}
		l.want = ref.want
		faults = transport.NewFaultTransport(transport.NewTCP(transport.TCPOptions{}))
		if eng, err = core.NewEngine(gen, l.config(faults, true)); err != nil {
			return err
		}
		sp := tr.Begin(0, "lifecycle.pass")
		p, err := l.replay(tr, sp.id, eng)
		tr.End(sp, 0)
		if err != nil {
			return err
		}
		setupPasses = append(setupPasses, p)
		if sp.traced {
			traced[sp.id] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = eng.Close() }()
	c := eng.Cluster()
	sup, err := supervisor.New(c, fastSupervision)
	if err != nil {
		return nil, err
	}
	if err := sup.Start(); err != nil {
		return nil, err
	}
	defer sup.Stop()
	last := gen.Cycles() - 1
	qs, err := modisQueries(c, last)
	if err != nil {
		return nil, err
	}
	healthy := l.want[last].Suite.PerQuery

	out := &outcome{values: map[string]float64{"setup_s": setup}, correct: true}
	var victims []partition.NodeID
	for _, id := range c.Nodes() {
		if id != c.Coordinator() {
			victims = append(victims, id)
		}
	}

	// The reader: MODIS suite queries for the last cycle, compared with
	// the healthy answers. Failures are counted, never fatal.
	var rd reader
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var settled func(parent int64)
	if concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.loop(tr, c, qs, healthy, stop)
		}()
	} else {
		settled = func(parent int64) {
			for i := 0; i < settledPasses; i++ {
				rd.pass(tr, parent, c, qs, healthy, nil)
			}
		}
	}

	heap := startHeapSampler(heapPeriod)
	var gc0, alloc0 uint64
	var rounds []faultRound
	tracedRounds := 0
	ph := startPhase(tr, o)
	for i := 0; ph.more(); i++ {
		if tr.on.Load() && tracedRounds == 0 {
			gc0, alloc0 = runtimeCounters()
		}
		victim := victims[i%len(victims)]
		r, err := driveRound(tr, c, faults, sup, victim, settled)
		out.attempted++
		if err != nil {
			out.failed++
			out.correct = false
			fmt.Fprintf(os.Stderr, "fault round %d (node %d): %v\n", i, victim, err)
			break
		}
		rounds = append(rounds, r)
		if r.traced {
			tracedRounds++
		}
	}
	close(stop)
	wg.Wait()
	peak := heap.Stop()

	if err := waitWhole(c); err != nil {
		out.correct = false
		fmt.Fprintln(os.Stderr, err)
	} else if err := c.Validate(); err != nil {
		out.correct = false
		fmt.Fprintf(os.Stderr, "cluster invalid after the final readmission: %v\n", err)
	}
	out.attempted += len(rd.lat) + rd.failed()
	out.failed += rd.failed()
	otherDowns := 0
	for _, r := range rounds {
		otherDowns += r.otherDowns
	}
	fmt.Fprintf(os.Stderr, "reads: %d ok, %d partial, %d wrong, %d error; fault rounds: %d; down verdicts on nodes not isolated: %d\n",
		len(rd.lat), rd.partial, rd.wrong, rd.errs, len(rounds), otherDowns)

	v := out.values
	if !o.trace {
		lifecycleMetrics(v, setupPasses)
		queryMetrics(v, rd.lat, rd.wall)
		v["heap_peak_mb"] = float64(peak) / 1e6
		return out, nil
	}
	out.values = map[string]float64{}
	out.spans = tr.Spans()
	v = out.values
	layerMetrics(v, out.spans, traced, l.userBytes, false)
	v["query.partial"] = float64(rd.partial)
	v["query.wrong"] = float64(rd.wrong)
	roundMetrics(v, rounds, l.userBytes)
	runtimeMetrics(v, gc0, alloc0, tracedRounds)
	v["trace.spans"] = float64(len(out.spans))
	v["trace.overhead_pct"] = overhead(rd.tracedLat, rd.untracedLat)
	return out, nil
}

// reader is the failover workload's query client and its tallies.
type reader struct {
	lat, tracedLat, untracedLat []float64
	partial, wrong, errs        int
	wall                        time.Duration // spent in pass
}

func (rd *reader) failed() int { return rd.partial + rd.wrong + rd.errs }

// loop issues the queries round after round until stop is closed.
func (rd *reader) loop(tr *Tracer, c *cluster.Cluster, qs []suiteQuery, healthy map[string]query.Result, stop <-chan struct{}) {
	for rd.pass(tr, 0, c, qs, healthy, stop) {
	}
}

// pass issues the queries once, as one round under parent, and reports
// false if stop closed before it finished (a nil stop never closes). A
// read fails when it errors (ErrPartialResult counted apart) or its
// answer — cell count, value and bytes scanned — differs from the healthy
// one.
func (rd *reader) pass(tr *Tracer, parent int64, c *cluster.Cluster, qs []suiteQuery, healthy map[string]query.Result, stop <-chan struct{}) bool {
	t0 := time.Now()
	defer func() { rd.wall += time.Since(t0) }()
	round := tr.Begin(parent, "query.round")
	defer tr.End(round, 0)
	for _, q := range qs {
		select {
		case <-stop:
			return false
		default:
		}
		sp := tr.Begin(round.id, "query."+q.op)
		r, err := q.run(c)
		d := tr.End(sp, r.Elapsed.Seconds())
		var partial *query.ErrPartialResult
		want := healthy[q.label]
		switch {
		case errors.As(err, &partial):
			rd.partial++
		case err != nil:
			if rd.errs < 3 {
				fmt.Fprintf(os.Stderr, "read error: %v\n", err)
			}
			rd.errs++
		case r.Cells != want.Cells || r.Value != want.Value || r.BytesScanned != want.BytesScanned:
			if rd.wrong < 3 {
				fmt.Fprintf(os.Stderr, "wrong %s: %+v want %+v\n", q.label, r, want)
			}
			rd.wrong++
		default:
			rd.lat = append(rd.lat, ms(d))
			if sp.traced {
				rd.tracedLat = append(rd.tracedLat, ms(d))
			} else {
				rd.untracedLat = append(rd.untracedLat, ms(d))
			}
		}
	}
	return true
}

// faultRound is one isolate → recovered → heal → readmitted cycle, timed
// from the supervisor's event log.
type faultRound struct {
	recover, readmit                time.Duration // isolate → recovered, heal → readmitted
	detect                          time.Duration // isolate → down
	failToRecovered, aliveToReadmit time.Duration
	retries, gaveUp                 int
	otherDowns                      int // Down verdicts on nodes not isolated
	wire                            transport.Stats
	traced                          bool
}

// driveRound waits until no node is down, isolates victim, waits for the
// supervisor to recover the cluster without it, heals it and waits for its
// readmission.
//
// settled, when not nil, runs the reads of the round's settled states: it
// is called under the round's span once the recovery is done, before the
// heal, and once the node is readmitted. The round's wire traffic leaves
// those reads out.
func driveRound(tr *Tracer, c *cluster.Cluster, faults *transport.FaultTransport, sup *supervisor.Supervisor, victim partition.NodeID, settled func(parent int64)) (faultRound, error) {
	if err := waitWhole(c); err != nil {
		return faultRound{}, err
	}
	from := len(sup.Events())
	before := faults.Stats()
	sp := tr.Begin(0, "supervisor.round")
	r := faultRound{traced: sp.traced}
	isolated := time.Now()
	faults.IsolateNode(victim, transport.LinkAll)
	recovered, err := waitEvent(sup, from, victim, supervisor.EventRecovered)
	r.wire = traffic(before, faults.Stats())
	if err == nil && settled != nil {
		settled(sp.id) // the victim is down and its data re-homed
	}
	beforeHeal := faults.Stats()
	healed := time.Now()
	faults.HealNode(victim)
	if err != nil {
		tr.End(sp, 0)
		return r, err
	}
	readmitted, err := waitEvent(sup, from, victim, supervisor.EventReadmitted)
	if err != nil {
		tr.End(sp, 0)
		return r, err
	}
	w := traffic(beforeHeal, faults.Stats())
	r.wire.Pushes += w.Pushes
	r.wire.PushedBytes += w.PushedBytes
	r.wire.Fetches += w.Fetches
	r.wire.FetchBytes += w.FetchBytes
	if settled != nil {
		settled(sp.id) // the cluster is whole again
	}
	tr.End(sp, 0)
	var down, failed, alive time.Time
	for _, e := range sup.Events()[from:] {
		switch {
		case e.Kind == supervisor.EventRetry:
			r.retries++
		case e.Kind == supervisor.EventGaveUp:
			r.gaveUp++
		case e.Node != victim:
			if e.Kind == supervisor.EventDown {
				r.otherDowns++
			}
		case e.Kind == supervisor.EventDown && down.IsZero():
			down = e.At
		case e.Kind == supervisor.EventFailed && failed.IsZero():
			failed = e.At
		case e.Kind == supervisor.EventAlive && alive.IsZero():
			alive = e.At
		}
	}
	r.recover = recovered.At.Sub(isolated)
	r.readmit = readmitted.At.Sub(healed)
	r.detect = down.Sub(isolated)
	r.failToRecovered = recovered.At.Sub(failed)
	r.aliveToReadmit = readmitted.At.Sub(alive)
	tr.Record(sp.id, "supervisor.detect", isolated, down)
	tr.Record(sp.id, "supervisor.fail_to_recovered", failed, recovered.At)
	tr.Record(sp.id, "supervisor.alive_to_readmitted", alive, readmitted.At)
	return r, nil
}

// waitWhole waits until the cluster holds no node down, as a false Down
// verdict on a loaded host can leave one until the supervisor readmits it.
func waitWhole(c *cluster.Cluster) error {
	deadline := time.Now().Add(eventWait)
	for c.Degraded() {
		if time.Now().After(deadline) {
			return fmt.Errorf("a node is still down after %v", eventWait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// waitEvent polls the supervisor's log, from index from on, for an event
// of the kind about node.
func waitEvent(sup *supervisor.Supervisor, from int, node partition.NodeID, kind supervisor.EventKind) (supervisor.Event, error) {
	deadline := time.Now().Add(eventWait)
	for time.Now().Before(deadline) {
		for _, e := range sup.Events()[from:] {
			if e.Kind == kind && e.Node == node {
				return e, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return supervisor.Event{}, fmt.Errorf("no %v event for node %d within %v", kind, node, eventWait)
}

// roundMetrics sets the supervisor and transport metrics from the traced
// fault rounds.
func roundMetrics(v map[string]float64, rounds []faultRound, userBytes int64) {
	var rec, readm, det, f2r, a2r, pushes, pushed, fetches, fetched []float64
	retries, gaveUp := 0, 0
	for _, r := range rounds {
		if !r.traced {
			continue
		}
		rec = append(rec, ms(r.recover))
		readm = append(readm, ms(r.readmit))
		det = append(det, ms(r.detect))
		f2r = append(f2r, ms(r.failToRecovered))
		a2r = append(a2r, ms(r.aliveToReadmit))
		retries += r.retries
		gaveUp += r.gaveUp
		pushes = append(pushes, float64(r.wire.Pushes))
		pushed = append(pushed, float64(r.wire.PushedBytes))
		fetches = append(fetches, float64(r.wire.Fetches))
		fetched = append(fetched, mb(r.wire.FetchBytes))
	}
	if len(rec) == 0 {
		return
	}
	v["supervisor.recover_p50_ms"] = median(rec)
	v["supervisor.readmit_p50_ms"] = median(readm)
	v["supervisor.detect_ms"] = median(det)
	v["supervisor.fail_to_recovered_ms"] = median(f2r)
	v["supervisor.alive_to_readmitted_ms"] = median(a2r)
	v["supervisor.retries"] = float64(retries)
	v["supervisor.gave_up"] = float64(gaveUp)
	wireMetrics(v, pushes, pushed, fetches, fetched, userBytes)
	fmt.Fprintf(os.Stderr, "recover ms: %v\nreadmit ms: %v\n", summarize(rec), summarize(readm))
}
