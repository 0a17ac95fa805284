// Command perfbench is the repository's benchmark. It drives the elastic
// array store through its public packages — core, cluster, query, advisor,
// supervisor and transport — on inputs the workload generators make from
// --seed, checks every answer, and prints one JSON result line.
//
//	perfbench --workload cycle-modis-tcp --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with a span recorded around every timed call and reports the
// per-layer metrics, writing the spans to .bench_build/traces/. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// setups is how many times the workload builds its serving state; the
	// median is setup_s.
	setups int
	// datasets is how many AIS datasets query-ais-local draws from the
	// seed and serves in turn.
	datasets int
}

// outcome is what a workload hands back: the values of the metrics of the
// requested kind, and the operation counts.
type outcome struct {
	values    map[string]float64
	spans     []Span
	attempted int
	failed    int
	correct   bool
}

var workloads = map[string]func(options) (*outcome, error){
	"cycle-modis-tcp":       runCycle,
	"query-ais-local":       runAIS,
	"failover-modis-r2-tcp": func(o options) (*outcome, error) { return runFailover(o, false) },
	// Not a benchmark workload: its reader races recovery, which
	// reproduces the known defect README.md describes.
	"failover-drill-modis-r2-tcp": func(o options) (*outcome, error) { return runFailover(o, true) },
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%v} --seed N --seconds S --trace {0,1}\n", names)
		os.Exit(2)
	}
	opts := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   8,
		datasets: 10,
	}
	if err := emit(*name, opts, run); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// emit runs the workload and prints the result line.
func emit(name string, opts options, run func(options) (*outcome, error)) error {
	rep, err := measure(name, opts, run)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs the workload and assembles its report; in trace mode it
// also writes the spans under .bench_build/traces.
func measure(name string, opts options, run func(options) (*outcome, error)) (report, error) {
	out, err := run(opts)
	if err != nil {
		return report{}, err
	}
	if out.attempted < 1 {
		return report{}, fmt.Errorf("no operation was attempted")
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, opts.seed))
		if err := writeSpans(path, out.spans); err != nil {
			return report{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	}
	m, err := fill(defs, out.values, opts.trace)
	if err != nil {
		return report{}, err
	}
	return report{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

// runtimeCounters reads the GC cycle and allocated-bytes counters.
func runtimeCounters() (gcCycles, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// writeSpans stores the spans as JSON in path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
