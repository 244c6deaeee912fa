// Command compare judges run B of the repo benchmark against run A: for
// every (end-to-end metric, workload) pair it applies the regression
// bound fixed in BENCHMARK.json and prints improved, unchanged, regressed
// or unresolved — the last when A's own runs spread wider than the bound,
// so that noise is never reported as "unchanged". Every ratio is printed
// with its base.
//
//	bench/run.sh compare A.json B.json
//	bench/run.sh compare A1.json,A2.json,... B1.json,B2.json,...
//	bench/run.sh compare --pairs 10 PARENT_DIR CHANGE_DIR
//
// A and B are reports written by bench/run.sh (bench/out/report-seed<N>.json);
// several reports per side, comma-separated, give each side a median and a
// spread. --pairs runs the benchmark itself: N pairs of (parent, change)
// checkouts with the same seed, alternating which side goes first, and
// claims an improvement only when the change wins at least nine tenths of
// the pairs and the medians differ by more than the parent's own
// interquartile range (the choosing-metrics guide's sandbox rule).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"phrasemine/bench/workload"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ingestMetrics are reported by ingest_mixed only, so BENCHMARK.json —
// whose metrics every workload must report — cannot carry them; their
// bounds live here.
var ingestMetrics = []metricDef{
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p90_ms", "ms", "lower", 0.25},
	{"flush_p50_s", "s", "lower", 0.10},
}

// runReport is the part of a driver report compare reads.
type runReport struct {
	Env struct {
		Seed int64 `json:"seed"`
	} `json:"env"`
	Workloads []struct {
		Workload string `json:"workload"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
		Failed  int      `json:"failed"`
		Invalid []string `json:"invalid"`
	} `json:"workloads"`
}

// side holds one side's values: workload -> metric -> seed -> value.
type side map[string]map[string]map[int64]float64

func loadSide(paths []string) (side, error) {
	s := side{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runReport
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, w := range r.Workloads {
			if w.Failed > 0 || len(w.Invalid) > 0 {
				return nil, fmt.Errorf("%s: workload %s has %d failed operations and is marked %v; its numbers must not be compared", p, w.Workload, w.Failed, w.Invalid)
			}
			if s[w.Workload] == nil {
				s[w.Workload] = map[string]map[int64]float64{}
			}
			for name, m := range w.Metrics {
				if s[w.Workload][name] == nil {
					s[w.Workload][name] = map[int64]float64{}
				}
				s[w.Workload][name][r.Env.Seed] = m.Value
			}
		}
	}
	return s, nil
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// verdict judges one (metric, workload) pair.
func verdict(def metricDef, a, b map[int64]float64) string {
	av, bv := values(a), values(b)
	medA, medB := workload.Median(av), workload.Median(bv)
	// worse > 0 means B is worse than A by that share of A.
	worse := (medB - medA) / medA
	if def.Better == "higher" {
		worse = -worse
	}
	spread, iqr := math.NaN(), math.NaN()
	if len(av) >= 4 {
		q1, _, q3 := workload.Quartiles(av)
		iqr = q3 - q1
		spread = iqr / medA
	}
	wins, pairs := 0, 0
	for seed, x := range a {
		y, ok := b[seed]
		if !ok || x == y {
			continue
		}
		pairs++
		if (y < x) == (def.Better == "lower") {
			wins++
		}
	}

	word := "unchanged"
	switch {
	case spread > def.Bound:
		word = "unresolved"
	case worse > def.Bound:
		word = "regressed"
	case worse < 0 && pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(medB-medA) > iqr:
		word = "improved"
	}
	spreadText := "spread n/a"
	if !math.IsNaN(spread) {
		spreadText = fmt.Sprintf("spread %.1f %%", 100*spread)
	}
	return fmt.Sprintf("A %.6g (n=%d, %s)  B %.6g (n=%d)  B/A %.4f  B wins %d/%d  %s",
		medA, len(av), spreadText, medB, len(bv), medB/medA, wins, pairs, word)
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	pairs := flag.Int("pairs", 0, "run this many (parent, change) pairs instead of reading reports; the arguments are then two checkouts")
	wl := flag.String("workload", "", "with --pairs: run only this workload")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [--pairs N] A B   (reports, comma-separated per side; or two checkouts with --pairs)")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *benchPath, err)
		os.Exit(1)
	}

	aPaths, bPaths := strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")
	if *pairs > 0 {
		if *pairs < 10 {
			fmt.Fprintln(os.Stderr, "compare: --pairs must be at least 10 (fewer cannot show nine wins in ten)")
			os.Exit(2)
		}
		aPaths, bPaths, err = runPairs(flag.Arg(0), flag.Arg(1), *pairs, *wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
	}
	a, err := loadSide(aPaths)
	if err == nil {
		var b side
		if b, err = loadSide(bPaths); err == nil {
			report(bench, a, b)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// report prints one block per metric and one row per workload.
func report(bench benchmarkFile, a, b side) {
	for _, def := range append(append([]metricDef(nil), bench.EndToEnd...), ingestMetrics...) {
		fmt.Printf("%s (%s, %s is better, bound %.0f %%)\n", def.Name, def.Unit, def.Better, 100*def.Bound)
		for _, w := range bench.Workloads {
			av, bv := a[w.Name][def.Name], b[w.Name][def.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			fmt.Printf("  %-14s %s\n", w.Name, verdict(def, av, bv))
		}
	}
}

// runPairs runs the benchmark n times in each checkout with seeds 1..n,
// alternating which checkout goes first, and returns the report paths.
func runPairs(dirA, dirB string, n int, wl string) (a, b []string, err error) {
	for seed := 1; seed <= n; seed++ {
		order := []string{dirA, dirB}
		if seed%2 == 0 {
			order = []string{dirB, dirA}
		}
		for _, dir := range order {
			args := []string{"bench/run.sh", "--seed", fmt.Sprint(seed)}
			if wl != "" {
				args = append(args, "--workload", wl)
			}
			cmd := exec.Command("bash", args...)
			cmd.Dir = dir
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, nil, fmt.Errorf("seed %d in %s: %w", seed, dir, err)
			}
			path := filepath.Join(dir, "bench", "out", fmt.Sprintf("report-seed%d.json", seed))
			if dir == dirA {
				a = append(a, path)
			} else {
				b = append(b, path)
			}
		}
	}
	return a, b, nil
}
