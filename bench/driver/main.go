// Command driver is the end-to-end half of the repo benchmark. It builds
// the fixtures with the CLI (datagen, build-index), starts the real
// `phrasemine serve` as a child process on an ephemeral loopback port,
// drives it over HTTP — warm-up sweep, closed phase, open phase, and on
// ingest_mixed a writer connection — checks every answer, and prints every
// end-to-end metric by name with its unit.
//
// It talks to the system only through the CLI and HTTP and imports nothing
// of it, so it keeps working across engine rewrites. The per-layer numbers
// of a traced run come from the separate bench/ladder binary, which this
// command runs as a child when --trace is set.
//
// bench/run.sh builds everything and calls it; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phrasemine/bench/workload"
)

// environment is the fingerprint stored with every report: numbers from
// different fingerprints are not comparable.
type environment struct {
	Commit          string            `json:"commit"`
	Dirty           bool              `json:"dirty"`
	GoVersion       string            `json:"go_version"`
	NumCPU          int               `json:"nproc"`
	DriverProcs     int               `json:"driver_gomaxprocs"`
	ServerProcs     int               `json:"server_gomaxprocs"`
	ReaderConns     int               `json:"reader_connections"`
	Kernel          string            `json:"kernel"`
	Seed            int64             `json:"seed"`
	FixtureHashes   map[string]string `json:"fixture_hashes"`
	PhrasemineBuild string            `json:"phrasemine_binary_sha256"`
}

// fullReport is what a run writes to bench/out/report-seed<N>.json and
// what bench/compare reads.
type fullReport struct {
	Env       environment `json:"env"`
	Quick     bool        `json:"quick"`
	Workloads []*report   `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("driver", flag.ExitOnError)
	wl := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: harvest sampling, request order, Zipf draws, written documents")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload (closed + open phase)")
	trace := fs.Bool("trace", false, "traced run: record spans and run the layer ladder; end-to-end metrics of a traced run are not for comparison")
	quick := fs.Bool("quick", false, "smoke mode: rs in place of rq, 3 measured seconds, one set-up, no sample-count guard")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built phrasemine, datagen and ladder binaries")
	fxDir := fs.String("fixtures", ".bench_build/fixtures", "fixture directory")
	out := fs.String("out", "bench/out", "directory for reports and traces")
	prepare := fs.Bool("prepare", false, "build the fixtures and exit")
	fs.Parse(normalizeTraceFlag(os.Args[1:]))

	// The driver allocates little per request but for minutes on end; a
	// collection in the middle of a spin-wait shows up as lateness.
	debug.SetGCPercent(400)

	specs := workload.Specs
	if *wl != "" {
		spec, ok := workload.SpecByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "driver: unknown workload %q\n", *wl)
			return 2
		}
		specs = []workload.Spec{spec}
	}
	if *quick {
		*seconds = 3
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "driver: --seconds must be at least 1")
		return 2
	}

	// Signals: take the child servers and their temp dirs down with us.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	bench, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		return 1
	}
	fx := fixtures{dir: *fxDir, bin: *bin}
	fixtureOf := func(s workload.Spec) string {
		if *quick && s.Fixture == "rq" {
			return "rs"
		}
		return s.Fixture
	}
	sharded := map[string]bool{}
	for _, s := range workload.Specs {
		if s.Segments > 1 {
			sharded[fixtureOf(s)] = true
		}
	}
	stamp, err := fx.ensure(sharded)
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver: building fixtures:", err)
		return 1
	}
	if *prepare {
		return 0
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		return 1
	}

	procs := max(1, runtime.NumCPU()-1)
	full := fullReport{Quick: *quick, Env: fingerprint(*seed, procs, stamp)}
	exit := 0
	for _, spec := range specs {
		rep, err := runWorkload(fx, spec, fixtureOf(spec), *seed, *seconds, *trace, *quick, procs, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "driver: %s: %v\n", spec.Name, err)
			killChildren()
			return 1
		}
		printReport(rep, spec)
		full.Workloads = append(full.Workloads, rep)
		// Called for one workload, as the benchmark contract's driver calls
		// it, a tripped validity guard is printed and stored but leaves the
		// exit code alone: that driver wants 0 from every run that answered
		// correctly and takes its own medians over many runs, so one host
		// stall must not fail a whole evaluation. A suite or --quick run
		// with a tripped guard exits 3, as does any run with a wrong answer
		// or a failed request.
		if rep.Failed > 0 || len(rep.Problems) > 0 || (len(rep.Invalid) > 0 && *wl == "") {
			exit = 3
		}
	}

	name := fmt.Sprintf("report-seed%d.json", *seed)
	if *trace {
		name = fmt.Sprintf("report-seed%d-traced.json", *seed)
	}
	raw, err := json.MarshalIndent(full, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, name), raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver: writing report:", err)
		return 1
	}
	fmt.Printf("env: %s\nreport: %s\n", mustJSON(full.Env), filepath.Join(*out, name))

	// Last line: the contract's result object. One workload gives its own
	// metrics; a run of all four prefixes each metric with its workload.
	fmt.Println(mustJSON(contractLine(full.Workloads, *trace, *wl != "", bench)))
	return exit
}

// normalizeTraceFlag lets --trace be given bare, or followed by 0 or 1 as
// the benchmark contract passes it (Go's flag package wants --trace=1).
func normalizeTraceFlag(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if args[i] == "--trace" || args[i] == "-trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "--trace="+args[i+1])
				i++
				continue
			}
			out = append(out, "--trace=1")
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func runWorkload(fx fixtures, spec workload.Spec, fixture string, seed int64, seconds float64, trace, quick bool, procs int, out string) (*report, error) {
	corpus, pool, err := fx.load(fixture)
	if err != nil {
		return nil, err
	}
	script, err := workload.BuildScript(spec, pool, corpus, seed, int(spec.WriteRate*seconds))
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(filepath.Dir(fx.dir), "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	r := &runner{
		fx: fx, spec: spec, fixture: fixture, script: script, corpus: corpus,
		conns: procs, procs: procs, scratch: scratch, quick: quick, trace: trace,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: 16, MaxIdleConnsPerHost: 16,
				DisableCompression: true,
			},
		},
	}
	rep, err := r.run(seconds)
	if err != nil {
		return nil, err
	}
	if trace {
		if err := r.runLadder(rep, out); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return rep, nil
}

// runLadder writes the run's spans and the head of its request script,
// runs the ladder binary over them, and merges the per-layer metrics it
// prints into the report.
func (r *runner) runLadder(rep *report, out string) error {
	tracePath := filepath.Join(out, "trace-"+r.spec.Name+".jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			tf.Close()
			return err
		}
	}
	if err := tf.Close(); err != nil {
		return err
	}

	// The replay needs the requests themselves, in order.
	type scriptFile struct {
		Workload string   `json:"workload"`
		Fixture  string   `json:"fixture"`
		Requests []string `json:"requests"`
		Writes   []string `json:"writes"`
	}
	sf := scriptFile{Workload: r.spec.Name, Fixture: r.fixture}
	for i := 0; i < replayRequests; i++ {
		sf.Requests = append(sf.Requests, string(r.script.Queries[r.script.Order[i]].Body))
	}
	for _, w := range r.script.Writes {
		sf.Writes = append(sf.Writes, string(w.Body))
	}
	scriptPath := filepath.Join(out, "script-"+r.spec.Name+".json")
	raw, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(scriptPath, raw, 0o644); err != nil {
		return err
	}

	cmd := exec.Command(filepath.Join(r.fx.bin, "ladder"),
		"-fixtures", r.fx.dir, "-script", scriptPath, "-trace-out", tracePath,
		"-seed", strconv.FormatInt(r.script.Seed, 10),
		"-roundtrip-us", strconv.FormatFloat(rep.Layers["http.roundtrip_us"].Value, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return err
	}
	// The ladder prints its human-readable table first and the metrics
	// object as its last line.
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var layers map[string]metric
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &layers); err != nil {
		return fmt.Errorf("decoding ladder output: %w", err)
	}
	for k, v := range layers {
		rep.Layers[k] = v
	}
	return nil
}

// replayRequests is how many requests of a script the ladder replays
// in-process down the rungs.
const replayRequests = 2000

func fingerprint(seed int64, procs int, stamp stampFile) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		DriverProcs: runtime.GOMAXPROCS(0), ServerProcs: procs, ReaderConns: procs,
		Seed: seed, FixtureHashes: stamp.Hashes, PhrasemineBuild: stamp.Binary,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	// A benchmark checkout need not be a git repository.
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		env.Dirty = err != nil || len(status) > 0
	}
	return env
}

// endToEnd lists the metrics every workload reports, in printing order;
// ingestOnly the ones only a workload with a writer has.
var (
	endToEnd   = []string{"setup_s", "qps", "lat_p50_ms", "lat_p99_ms", "rss_peak_mb", "disk_amp"}
	ingestOnly = []string{"write_p50_ms", "write_p90_ms", "flush_p50_s"}
)

func printReport(rep *report, spec workload.Spec) {
	closed := closedShare * rep.Seconds
	fmt.Printf("== %s  seed %d  %.4g s measured (closed %.4g s, open %.4g s @ %g req/s)  script %.12s\n",
		rep.Workload, rep.Seed, rep.Seconds, closed, rep.Seconds-closed, spec.OpenRate, rep.ScriptHash)
	for _, name := range append(append([]string(nil), endToEnd...), ingestOnly...) {
		m, ok := rep.Metrics[name]
		if !ok {
			continue
		}
		note := ""
		switch name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups: %s", len(rep.SetupRuns), floats(rep.SetupRuns))
		case "qps":
			q1, q2, q3 := workload.Quartiles(rep.QPSSlices)
			note = fmt.Sprintf("closed-phase successes / wall; %d slices: q1 %.1f  median %.1f  q3 %.1f", len(rep.QPSSlices), q1, q2, q3)
		case "lat_p50_ms":
			note = fmt.Sprintf("second lowest of %d windows of %d requests (quartiles %s); whole phase %.4f", rep.LatWindows, rep.WindowSamples, floats(rep.P50Windows[:]), rep.P50Whole)
		case "lat_p99_ms":
			note = fmt.Sprintf("second lowest of %d windows of %d requests (quartiles %s); whole phase %.4f; %d reads, %d beyond; generator lateness p99 %.4f ms",
				rep.LatWindows, rep.WindowSamples, floats(rep.P99Windows[:]), rep.P99Whole, rep.OpenSamples, rep.BeyondP99, rep.LatenessP99)
		}
		fmt.Printf("   %-14s %12.4f %-6s %s\n", name, m.Value, m.Unit, note)
	}
	fmt.Printf("   %-14s %12.6f %-6s %d failed of %d attempted\n", "fail_share", rep.FailShare, "ratio", rep.Failed, rep.Attempted)
	var phases []string
	for name := range rep.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		p := rep.Phases[name]
		fmt.Printf("   phase %-16s sent %6d  succeeded %6d  failed %d  unsent %d\n", name, p.Sent, p.Succeeded, p.Failed, p.Unsent)
	}
	var layers []string
	for name := range rep.Layers {
		layers = append(layers, name)
	}
	sort.Strings(layers)
	for _, name := range layers {
		fmt.Printf("   layer %-32s %14.4f %s\n", name, rep.Layers[name].Value, rep.Layers[name].Unit)
	}
	for _, p := range rep.Problems {
		fmt.Printf("   WRONG: %s\n", p)
	}
	for _, p := range rep.Invalid {
		fmt.Printf("   INVALID: %s\n", p)
	}
	if len(rep.Invalid) == 0 && len(rep.Problems) == 0 && rep.Failed == 0 {
		fmt.Println("   valid, every answer correct")
	}
}

func floats(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(f, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// benchmarkFile is the part of BENCHMARK.json the driver reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func (b *benchmarkFile) workload(name string) *struct {
	Name string `json:"name"`
	Why  string `json:"why"`
} {
	for i := range b.Workloads {
		if b.Workloads[i].Name == name {
			return &b.Workloads[i]
		}
	}
	return nil
}

// loadBenchmarkFile reads BENCHMARK.json from the checkout root, where
// bench/run.sh starts the driver.
func loadBenchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// contractLine builds the result object the benchmark contract wants as
// the last line of output: with tracing off exactly the end_to_end metrics
// BENCHMARK.json lists, with tracing on exactly its per_layer metrics. (A
// report holds more: ingest_mixed's write metrics, which the other
// workloads cannot report, and whatever else the ladder printed.)
func contractLine(reps []*report, trace, single bool, bench *benchmarkFile) map[string]any {
	listed := map[string]bool{}
	defs := bench.EndToEnd
	if trace {
		defs = bench.PerLayer
	}
	for _, d := range defs {
		listed[d.Name] = true
	}
	metrics := map[string]metric{}
	correct := true
	attempted, failed := 0, 0
	for _, rep := range reps {
		prefix := ""
		if !single {
			prefix = rep.Workload + "."
		}
		src := rep.Metrics
		if trace {
			src = rep.Layers
		}
		for name, m := range src {
			if listed[name] {
				metrics[prefix+name] = m
			}
		}
		correct = correct && len(rep.Problems) == 0 && rep.Failed == 0
		attempted += rep.Attempted
		failed += rep.Failed
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite numbers and strings go in
	}
	return string(raw)
}
