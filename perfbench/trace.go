package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed public call, or one loop iteration that parents the
// calls it made. Times are nanoseconds since the tracer started.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   int64   `json:"self_ns"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"alloc_bytes"`
	Sim    float64 `json:"sim_s,omitempty"` // the call's simulated cost-model charge
}

// Tracer times calls into the program. Timing is always on, because the
// end-to-end metrics are built from it; recording a span (with allocation
// deltas read from runtime/metrics) happens only when the tracer is on,
// and spans stay in memory until the run ends. Safe for concurrent use.
type Tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// newTracer starts the clock; on selects span recording.
func newTracer(on bool) *Tracer {
	t := &Tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// active is an open span.
type active struct {
	id, parent int64
	name       string
	start      time.Time
	allocs     uint64
	bytes      uint64
	traced     bool
}

// readAllocs returns the process's cumulative heap allocation counters.
func readAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Begin opens a span under parent (0 for a root) and returns it; its ID
// parents the calls made inside it.
func (t *Tracer) Begin(parent int64, name string) *active {
	a := &active{id: t.nextID.Add(1), parent: parent, name: name, traced: t.on.Load()}
	if a.traced {
		a.allocs, a.bytes = readAllocs()
	}
	a.start = time.Now()
	return a
}

// End closes the span, records it when tracing, and returns its wall time.
// sim is the call's simulated charge in seconds (0 when it has none).
func (t *Tracer) End(a *active, sim float64) time.Duration {
	end := time.Now()
	d := end.Sub(a.start)
	if !a.traced {
		return d
	}
	objs, bytes := readAllocs()
	s := Span{
		ID: a.id, Parent: a.parent, Name: a.name,
		Start: a.start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Allocs: objs - a.allocs, Bytes: bytes - a.bytes, Sim: sim,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return d
}

// Record adds a span whose interval was observed rather than timed by the
// benchmark, such as the gap between two supervisor events.
func (t *Tracer) Record(parent int64, name string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := Span{ID: t.nextID.Add(1), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans with self times filled in: a span's
// duration minus the part of its interval its children cover.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(children[out[i].ID], out[i].Start, out[i].End)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// heapSampler tracks the peak Go heap in use by objects, read through
// runtime/metrics (no stop-the-world) on a fixed period.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler begins sampling; call Stop for the peak.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the peak
// in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
