package main

import (
	"strings"
	"testing"
)

// runs builds one side's values for seeds 1..n.
func runs(values ...float64) map[int64]float64 {
	m := map[int64]float64{}
	for i, v := range values {
		m[int64(i+1)] = v
	}
	return m
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	qps := metricDef{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b map[int64]float64
		want string
	}{
		{"same numbers", lat, steady, steady, "unchanged"},
		{"5 % slower is inside the bound", lat, steady, runs(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "unchanged"},
		{"20 % slower", lat, steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"20 % faster, every pair", lat, steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"lower throughput is worse", qps, steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "regressed"},
		{"higher throughput is better", qps, steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{"faster on median but wins 6 of 10", lat, steady, runs(80, 120, 79, 130, 82, 110, 80, 125, 79, 80), "unchanged"},
		{"A spreads wider than the bound", lat, runs(100, 140, 70, 100, 150, 60, 100, 130, 80, 100), runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "unresolved"},
		{"one run a side cannot claim a gain", lat, runs(100), runs(50), "unchanged"},
		{"one run a side can still regress", lat, runs(100), runs(150), "regressed"},
	} {
		got := verdict(tc.def, tc.a, tc.b)
		if !strings.HasSuffix(got, "  "+tc.want) {
			t.Errorf("%s: %q, want verdict %q", tc.name, got, tc.want)
		}
	}
	// Every ratio comes with its base.
	if got := verdict(lat, steady, steady); !strings.Contains(got, "A 100 (n=10") || !strings.Contains(got, "B/A 1.0000") {
		t.Errorf("verdict line lacks the base or the ratio: %q", got)
	}
}
