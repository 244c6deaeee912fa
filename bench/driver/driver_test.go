package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"phrasemine/bench/workload"
)

func TestNormalizeTraceFlag(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"--workload w --seed 3 --seconds 16 --trace 0", "--workload w --seed 3 --seconds 16 --trace=0"},
		{"--workload w --trace 1 --seed 3", "--workload w --trace=1 --seed 3"},
		{"--trace --seed 2", "--trace=1 --seed 2"},
		{"--seed 2 --trace", "--seed 2 --trace=1"},
		{"--quick", "--quick"},
	} {
		got := strings.Join(normalizeTraceFlag(strings.Fields(tc.in)), " ")
		if got != tc.want {
			t.Errorf("normalizeTraceFlag(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestResultsPartIgnoresOnlyTheCachedFlag(t *testing.T) {
	computed := []byte(`{"results":[{"phrase":"a b","score":1,"interestingness":0.5}],"cached":false}`)
	cached := []byte(`{"results":[{"phrase":"a b","score":1,"interestingness":0.5}],"cached":true}`)
	other := []byte(`{"results":[{"phrase":"a c","score":1,"interestingness":0.5}],"cached":true}`)
	if string(resultsPart(computed)) != string(resultsPart(cached)) {
		t.Error("a cached and a computed answer with equal results compare different")
	}
	if string(resultsPart(cached)) == string(resultsPart(other)) {
		t.Error("answers with different results compare equal")
	}
}

// goldenFor renders results as the golden bytes setUp stores.
func goldenFor(phrases []string, scores []float64) []byte {
	type res struct {
		Phrase string  `json:"phrase"`
		Score  float64 `json:"score"`
	}
	out := make([]res, len(phrases))
	for i := range phrases {
		out[i] = res{phrases[i], scores[i]}
	}
	raw, _ := json.Marshal(map[string]any{"results": out})
	return raw[:len(raw)-1] // as resultsPart leaves it: no closing brace
}

func TestAlgorithmsAgreeUpToTiesAtTheCut(t *testing.T) {
	queries := []workload.Query{
		{Set: 0, Op: "OR", K: 3, Algo: "nra"},
		{Set: 0, Op: "OR", K: 3, Algo: "smj"},
	}
	run := func(nra, smj []byte) []string {
		r := &runner{script: &workload.Script{Queries: queries}, golden: [][]byte{nra, smj}}
		r.checkAlgorithmsAgree()
		return r.problems
	}
	// Same set in another order; the third place is a tie (one side's sum
	// differs in the last bit) broken differently.
	a := goldenFor([]string{"x", "y", "t1"}, []float64{3, 2, 1.7999999999999998})
	b := goldenFor([]string{"y", "x", "t2"}, []float64{3, 2, 1.8000000000000003})
	if problems := run(a, b); len(problems) != 0 {
		t.Errorf("a tie at the k-th score was reported: %v", problems)
	}
	// A phrase clearly above the cut that the other side lacks is a
	// disagreement.
	c := goldenFor([]string{"x", "z", "t1"}, []float64{3, 2.5, 1.8})
	if problems := run(a, c); len(problems) == 0 {
		t.Error("a missing phrase above the k-th score went unreported")
	}
}

// TestContractLineMatchesBenchmarkJSON keeps the driver's last output
// line and BENCHMARK.json in step: with tracing off exactly the
// end_to_end metrics, whatever else the report holds.
func TestContractLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var specNames, benchNames []string
	for _, s := range workload.Specs {
		specNames = append(specNames, s.Name)
		w := bench.workload(s.Name)
		if w == nil {
			t.Errorf("workload %s is missing from BENCHMARK.json", s.Name)
		} else if w.Why != s.Why {
			t.Errorf("workload %s: BENCHMARK.json says why = %q, the spec says %q", s.Name, w.Why, s.Why)
		}
	}
	for _, w := range bench.Workloads {
		benchNames = append(benchNames, w.Name)
	}
	if !reflect.DeepEqual(specNames, benchNames) {
		t.Errorf("workloads: specs %v, BENCHMARK.json %v", specNames, benchNames)
	}

	rep := &report{
		Workload: "ingest_mixed",
		Metrics:  map[string]metric{"write_p50_ms": {1, "ms"}},
		Layers:   map[string]metric{"replay.extra": {1, "us"}},
	}
	for _, name := range endToEnd {
		rep.Metrics[name] = metric{1, "x"}
	}
	for _, d := range bench.PerLayer {
		rep.Layers[d.Name] = metric{1, d.Unit}
	}
	check := func(trace bool, defs []metricDef) {
		line := contractLine([]*report{rep}, trace, true, &bench)
		var got, want []string
		for name := range line["metrics"].(map[string]metric) {
			got = append(got, name)
		}
		for _, d := range defs {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: contract line has %v, BENCHMARK.json lists %v", trace, got, want)
		}
	}
	check(false, bench.EndToEnd)
	check(true, bench.PerLayer)
}

// phaseOf builds an open phase at 1 000 req/s whose request i took
// latency(i) from its due time.
func phaseOf(n int, latency func(i int) time.Duration) workload.OpenResult {
	var res workload.OpenResult
	for i := 0; i < n; i++ {
		due := time.Duration(i) * time.Millisecond
		res.Samples = append(res.Samples, workload.Sample{Index: i, Due: due, Sent: due, Done: due + latency(i), OK: true})
	}
	return res
}

// TestSecondQuietestWindow pins what lat_p50_ms and lat_p99_ms can and
// cannot see: a stall that comes once in the phase (the host's) is dodged,
// a slow request in every hundred (the program's) is not, and neither is a
// stall that recurs within every window (ingest_mixed's flush).
func TestSecondQuietestWindow(t *testing.T) {
	const n = 4000
	base := 200 * time.Microsecond
	metrics := func(latency func(i int) time.Duration) (p50, p99 float64) {
		p50s, p99s, _ := windowStats(phaseOf(n, latency), n, windowSize(n))
		if len(p50s) != n/windowSamples {
			t.Fatalf("%d windows, want %d", len(p50s), n/windowSamples)
		}
		return secondLowest(p50s), secondLowest(p99s)
	}
	if got := windowSize(n); got != windowSamples {
		t.Fatalf("windowSize(%d) = %d, want %d", n, got, windowSamples)
	}
	if got := windowSize(1600); got != 1600/phaseWindows {
		t.Errorf("windowSize(1600) = %d, want a sixth of the phase", got)
	}
	if got := windowSize(190); got != 190 {
		t.Errorf("windowSize(190) = %d, want the whole phase", got)
	}
	if got := secondLowest([]float64{3}); got != 3 {
		t.Errorf("secondLowest of one window = %v, want that window", got)
	}

	// One 300 ms stall: 300 requests queue behind it.
	p50, p99 := metrics(func(i int) time.Duration {
		if i >= 1000 && i < 1300 {
			return base + time.Duration(1300-i)*time.Millisecond
		}
		return base
	})
	if p50 != 0.2 || p99 != 0.2 {
		t.Errorf("one stall in the phase: p50 %v p99 %v, want 0.2 and 0.2", p50, p99)
	}

	// Two requests in a hundred take 2 ms: every window has them beyond p99.
	_, p99 = metrics(func(i int) time.Duration {
		if i%50 == 7 {
			return 2 * time.Millisecond
		}
		return base
	})
	if p99 != 2 {
		t.Errorf("two slow requests in a hundred: p99 %v, want 2", p99)
	}

	// A 50 ms stall every 400 requests: no window of 500 is without one.
	_, p99 = metrics(func(i int) time.Duration {
		if r := i % 400; r < 50 {
			return base + time.Duration(50-r)*time.Millisecond
		}
		return base
	})
	if p99 < 40 {
		t.Errorf("a stall in every window: p99 %v ms, want the stall (> 40)", p99)
	}
}
