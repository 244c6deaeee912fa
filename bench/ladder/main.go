// Command ladder is the traced half of the repo benchmark: it times calls
// into each layer's public functions, over the same fixtures and the same
// seeded query set the end-to-end driver uses, and replays the head of a
// workload's request script in-process down the rungs
//
//	server.handle -> miner.mine -> core.query -> topk.run -> plist.scan -> bitpack.decode
//
// recording one span per rung per request. All spans are taken here,
// around the calls; the program under test is not instrumented (in-program
// tracing is a later change, ROADMAP item 4).
//
// This is the only benchmark package that imports phrasemine/internal/...:
// a refactor that removes or reshapes a layer breaks this build, and only
// this build — the end-to-end numbers come from bench/driver, which knows
// the system by its CLI and HTTP API alone.
//
// The driver runs it after a traced workload run (bench/run.sh --trace);
// its last output line is a JSON object of per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"phrasemine/bench/workload"
)

// scriptFile is what the driver hands over: the head of the request
// script it sent, in order.
type scriptFile struct {
	Workload string   `json:"workload"`
	Fixture  string   `json:"fixture"`
	Requests []string `json:"requests"`
	Writes   []string `json:"writes"`
}

// metric is one per-layer number: the median of its repetitions.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	reps  []float64
}

// ladder carries the fixtures, the query set and the results.
type ladder struct {
	fx      string // fixture directory
	seed    int64
	metrics map[string]*metric
	order   []string
}

// record stores a metric from its repetitions (one value for an exact
// count) and reports the median.
func (l *ladder) record(name, unit string, reps ...float64) float64 {
	m := &metric{Value: workload.Median(reps), Unit: unit, reps: reps}
	if _, dup := l.metrics[name]; !dup {
		l.order = append(l.order, name)
	}
	l.metrics[name] = m
	return m.Value
}

func (l *ladder) path(name string) string { return filepath.Join(l.fx, name) }

// repeat calls fn n times and returns what it returned each time.
func repeat(n int, fn func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn()
	}
	return out
}

// passMedian runs fn(i) for every i in [0, n) and returns the median
// duration of one call in microseconds: one repetition of a per-query
// layer metric.
func passMedian(n int, fn func(i int)) float64 {
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		d[i] = float64(time.Since(t)) / 1e3
	}
	return workload.Median(d)
}

// interleaved is passMedian for several functions at once: for each i it
// runs every function once untimed and then times each back to back
// before moving on, so that all of them see the same machine conditions
// and equally warm caches — this host's CPU speed shifts by a quarter
// every few seconds, which separate passes would report as a difference
// between layers, and whichever function touched a query's lists first
// would pay the cache misses for the rest. It returns one repetition list
// per function.
func interleaved(n, reps int, fns ...func(i int)) [][]float64 {
	out := make([][]float64, len(fns))
	d := make([][]float64, len(fns))
	for range reps {
		for f := range fns {
			d[f] = d[f][:0]
		}
		for i := 0; i < n; i++ {
			for _, fn := range fns {
				fn(i)
			}
			for f, fn := range fns {
				t := time.Now()
				fn(i)
				d[f] = append(d[f], float64(time.Since(t))/1e3)
			}
		}
		for f := range fns {
			out[f] = append(out[f], workload.Median(d[f]))
		}
	}
	return out
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

func main() {
	fx := flag.String("fixtures", ".bench_build/fixtures", "fixture directory the driver built")
	scriptPath := flag.String("script", "", "request script written by the driver (replayed down the rungs)")
	traceOut := flag.String("trace-out", "", "span file to append the replay's spans to")
	seed := flag.Int64("seed", 1, "query-set seed (the run's --seed)")
	roundtrip := flag.Float64("roundtrip-us", 0, "the driver's median http.roundtrip span, for http.self_us")
	flag.Parse()

	l := &ladder{fx: *fx, seed: *seed, metrics: map[string]*metric{}}
	l.listLayers()
	l.engineLayers()
	l.ingestLayers()

	if *scriptPath != "" {
		raw, err := os.ReadFile(*scriptPath)
		must(err)
		var sf scriptFile
		must(json.Unmarshal(raw, &sf))
		handle := l.replay(sf, *traceOut)
		// What the request spends outside the handler: sockets, net/http on
		// both sides, the driver's own client code.
		l.record("http.self_us", "us", *roundtrip-handle)
	}

	fmt.Printf("-- layer ladder (seed %d; median of repetitions, quartiles where repeated)\n", *seed)
	for _, name := range l.order {
		m := l.metrics[name]
		note := ""
		if len(m.reps) >= 3 {
			q1, _, q3 := workload.Quartiles(m.reps)
			note = fmt.Sprintf("q1 %.4g  q3 %.4g  (%d reps)", q1, q3, len(m.reps))
		}
		fmt.Printf("   %-36s %14.4f %-7s %s\n", name, m.Value, m.Unit, note)
	}
	raw, err := json.Marshal(l.metrics)
	must(err)
	fmt.Println(string(raw))
}
