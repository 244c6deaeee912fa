package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndBeyond(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..1000, sorted
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.50, 500, 500},
		{0.90, 900, 100},
		{0.99, 990, 10}, // 1000 samples is the least that leaves ten beyond p99
		{1.00, 1000, 0},
	} {
		if got := Percentile(vals, tc.p); got != tc.want {
			t.Errorf("Percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
		if got := Beyond(len(vals), tc.p); got != tc.beyond {
			t.Errorf("Beyond(1000, %v) = %d, want %d", tc.p, got, tc.beyond)
		}
	}
	if got := Beyond(999, 0.99); got != 9 {
		t.Errorf("Beyond(999, 0.99) = %d, want 9: one sample short of a reportable p99", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(v, n=4),
// which is what the benchmark contract computes its spread with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// >>> statistics.quantiles([3, 1, 4, 1, 5], n=4)
	// [1.0, 3.0, 4.5]
	q1, q2, q3 = Quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("Quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// manualClock is a clock that only moves when told to.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time { return c.now }
func (c *manualClock) WaitUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// TestOpenLoopCountsAStallAgainstLaterRequests is the coordinated-omission
// regression test: one request stalls for a second, and every request
// that fell due during the stall must report the time it waited, not just
// its own service time.
func TestOpenLoopCountsAStallAgainstLaterRequests(t *testing.T) {
	const (
		rate    = 100.0 // one request every 10 ms
		service = time.Millisecond
		stall   = time.Second
	)
	start := time.Unix(1000, 0)
	clk := &manualClock{now: start}
	res := OpenLoop(clk, start, rate, 300, 1, time.Minute, func(_, i int) bool {
		if i == 10 {
			clk.now = clk.now.Add(stall)
		} else {
			clk.now = clk.now.Add(service)
		}
		return true
	})
	if res.Unsent != 0 || len(res.Samples) != 300 {
		t.Fatalf("sent %d, unsent %d; want 300, 0", len(res.Samples), res.Unsent)
	}
	// Request 11 was due 10 ms into the stall, went out when it ended, and
	// took 1 ms: 991 ms from its due time.
	s := res.Samples[11]
	if got := s.Done - s.Due; got != 991*time.Millisecond {
		t.Errorf("request 11 latency from due = %v, want 991ms", got)
	}
	if got := s.Done - s.Sent; got != service {
		t.Errorf("request 11 latency from send = %v, want %v (the number a coordinated-omission measurement would report)", got, service)
	}
	// About a hundred requests fell due during the stall; measured from
	// their due times they put the p90 of the phase far above the service
	// time, which measured from send times would be 1 ms throughout.
	lat := res.LatenciesFromDue()
	if p90 := Percentile(lat, 0.90); p90 < 500 {
		t.Errorf("p90 from due times = %v ms, want the stall to show (> 500 ms)", p90)
	}
	// The generator itself was never late: every request left the moment
	// it could.
	if late := Percentile(res.Lateness(), 1.0); late != 0 {
		t.Errorf("generator lateness = %v ms, want 0", late)
	}
	// The queue drained (100 req/s offered, 1 000 req/s of capacity), so
	// the backlog is not growing at the end.
	if res.BacklogGrowing(rate) {
		t.Error("BacklogGrowing = true for a stall the system recovered from")
	}
}

func TestOpenLoopOverloadIsFlagged(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &manualClock{now: start}
	// 100 req/s offered, 20 ms per request: capacity is half the rate.
	res := OpenLoop(clk, start, 100, 400, 1, time.Second, func(_, _ int) bool {
		clk.now = clk.now.Add(20 * time.Millisecond)
		return true
	})
	if !res.BacklogGrowing(100) {
		t.Error("BacklogGrowing = false at twice the capacity")
	}
	if res.Unsent == 0 {
		t.Error("an overloaded phase should run out of time with requests unsent")
	}
	lat := res.LatenciesFromDue()
	if !math.IsInf(lat[len(lat)-1], 1) {
		t.Error("unsent requests must count as +Inf latencies")
	}
	if got := len(lat); got != 400 {
		t.Errorf("%d latencies for 400 scheduled requests", got)
	}
}

func TestClosedLoopKeepsScriptOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &manualClock{now: start}
	var order []int
	samples := ClosedLoop(clk, start, 100*time.Millisecond, 1, func(_, i int) bool {
		order = append(order, i)
		clk.now = clk.now.Add(10 * time.Millisecond)
		return i != 3
	})
	if len(samples) != 10 {
		t.Fatalf("%d requests in 100 ms at 10 ms each, want 10", len(samples))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("request order %v, want 0..9", order)
		}
	}
	if samples[3].OK || !samples[4].OK {
		t.Error("per-request outcome not recorded")
	}
}

// testCorpus builds a small synthetic corpus with a known phrase
// structure: frequent collocations of rare words among filler.
func testCorpus() *Corpus {
	rng := rand.New(rand.NewSource(1))
	word := func(i int) string { return fmt.Sprintf("w%03d", i) }
	var texts []string
	for d := 0; d < 400; d++ {
		var sentences []string
		for s := 0; s < 6; s++ {
			var words []string
			// Collocation c appears as "cXa cXb cXc cXd" in about 1 in 8 docs.
			c := rng.Intn(120)
			words = append(words, fmt.Sprintf("c%da c%db c%dc c%dd", c, c, c, c))
			for k := 0; k < 5; k++ {
				words = append(words, word(rng.Intn(300)))
			}
			words = append(words, "the") // in every document: a stop word
			sentences = append(sentences, strings.Join(words, " "))
		}
		texts = append(texts, strings.Join(sentences, ". ")+".")
	}
	c := &Corpus{Texts: texts}
	for _, t := range texts {
		c.TextBytes += int64(len(t)) + 1
	}
	return c
}

func testSpec() Spec {
	return Spec{
		Name: "test", Sets: 30, Ops: []string{"AND", "OR"}, Ks: []int{5}, Algos: []string{"nra", "smj"},
		OpenRate: 100, WriteRate: 5, FlushEvery: 10, SentinelEvery: 5,
	}
}

func TestSameSeedSameScript(t *testing.T) {
	c := testCorpus()
	pool := BuildPool(c, 5)
	build := func(seed int64) *Script {
		s, err := BuildScript(testSpec(), pool, c, seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, other := build(7), build(7), build(8)
	if a.Hash() != b.Hash() {
		t.Error("same seed gave two different request scripts")
	}
	if a.Hash() == other.Hash() {
		t.Error("different seeds gave the same request script")
	}
	if a.Sentinel == other.Sentinel {
		t.Error("different seeds share a sentinel collocation")
	}
	if got := len(a.Queries); got != 30*2*2 {
		t.Errorf("%d distinct queries, want 120", got)
	}
	// Keyword sets are content words: the stop word never appears.
	for _, q := range a.Queries {
		if strings.Contains(string(q.Body), `"the"`) {
			t.Fatalf("stop word harvested as a keyword: %s", q.Body)
		}
	}
	// Writes: a flush after every tenth, a sentinel in every fifth.
	flushes, sentinels := 0, 0
	for i, w := range a.Writes {
		if w.FlushAfter {
			flushes++
		}
		if w.Sentinel {
			sentinels++
			if !strings.Contains(string(w.Body), a.Sentinel[0]+" "+a.Sentinel[1]+". ") {
				t.Errorf("write %d is marked sentinel but does not carry the collocation as its own sentence", i)
			}
		}
	}
	if flushes != 4 || sentinels != 8 {
		t.Errorf("40 writes gave %d flushes and %d sentinels, want 4 and 8", flushes, sentinels)
	}
}

// TestZipfOrderShape checks the Zipf draw: rank 0 is the most frequent
// key, frequencies fall off as a power law with the configured exponent,
// and a cache a quarter the size of the key space would hit most draws.
func TestZipfOrderShape(t *testing.T) {
	c := testCorpus()
	pool := BuildPool(c, 5)
	spec := testSpec()
	spec.WriteRate, spec.ZipfS, spec.Keys = 0, 1.1, 100
	s, err := BuildScript(spec, pool, c, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries) != 100 {
		t.Fatalf("%d keys, want 100", len(s.Queries))
	}
	counts := make([]float64, len(s.Queries))
	for _, i := range s.Order {
		counts[i]++
	}
	for r := 1; r < 8; r++ {
		if counts[r] > counts[r-1] {
			t.Errorf("rank %d drawn more often (%v) than rank %d (%v)", r, counts[r], r-1, counts[r-1])
		}
	}
	// P(r) ~ (1+r)^-s: the log-log slope between ranks 0 and 9 is -s.
	slope := math.Log(counts[9]/counts[0]) / math.Log(10)
	if math.Abs(slope+spec.ZipfS) > 0.1 {
		t.Errorf("log-log slope over the first ten ranks = %.3f, want about -%.1f", slope, spec.ZipfS)
	}
	top := 0.0
	for _, n := range counts[:25] {
		top += n
	}
	if share := top / float64(len(s.Order)); share < 0.6 || share > 0.9 {
		t.Errorf("top quarter of the keys takes %.2f of the draws, want 0.6-0.9", share)
	}
}

func TestUniformOrderCoversEveryQuery(t *testing.T) {
	c := testCorpus()
	s, err := BuildScript(testSpec(), BuildPool(c, 5), c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled cycles: every window of len(Queries) slots is a permutation.
	n := len(s.Queries)
	seen := make([]bool, n)
	for _, i := range s.Order[n : 2*n] {
		if seen[i] {
			t.Fatalf("query %d twice within one cycle", i)
		}
		seen[i] = true
	}
}

func TestHarvestFallsBackToShorterPhrases(t *testing.T) {
	pool := Pool{ByLen: map[int][]Phrase{
		2: make([]Phrase, 50),
		3: make([]Phrase, 10),
		4: make([]Phrase, 2),
	}}
	for n, list := range pool.ByLen {
		for i := range list {
			list[i] = Phrase{Words: strings.Fields(strings.Repeat(fmt.Sprintf("p%d_%d ", n, i), n)), DF: 100 - i}
		}
	}
	sets, err := pool.Harvest(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 40 {
		t.Fatalf("harvested %d sets, want 40", len(sets))
	}
	if _, err := pool.Harvest(100, 1); err == nil {
		t.Error("harvesting more sets than the pool holds should fail")
	}
}

// TestPoolKeepsOneOrderOfAKeywordSet: "x y" and "y x" are the same query
// to the server's cache but not to a byte-for-byte answer check.
func TestPoolKeepsOneOrderOfAKeywordSet(t *testing.T) {
	c := &Corpus{}
	for d := 0; d < 40; d++ {
		text := fmt.Sprintf("alpha beta f%d. f%d g%d.", d, d, d)
		if d%2 == 0 {
			text = fmt.Sprintf("beta alpha f%d. f%d g%d.", d, d, d)
		}
		c.Texts = append(c.Texts, text)
	}
	// Pad so that alpha and beta are content words (in under a quarter of
	// the documents).
	for d := 0; d < 200; d++ {
		c.Texts = append(c.Texts, fmt.Sprintf("pad%d filler%d.", d, d))
	}
	pool := BuildPool(c, 5)
	if got := len(pool.ByLen[2]); got != 1 {
		t.Fatalf("pool holds %d two-word phrases %v, want one of {alpha beta, beta alpha}", got, pool.ByLen[2])
	}
}
