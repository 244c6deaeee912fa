package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"phrasemine/bench/workload"
)

const (
	// closedShare of the measured seconds goes to the closed phase
	// (capacity), the rest to the open phase (latency): 9 s and 16 s of the
	// 25 s BENCHMARK.json fixes.
	closedShare = 0.36
	// maxSetupReps and setupBudget bound how often a run repeats its
	// set-up to report a median: cheap set-ups (an mmap open) repeat seven
	// times, a set-up that alone costs more than the budget runs once.
	maxSetupReps = 7
	setupBudget  = 4 * time.Second
	// openGrace is how long after the last due time an open phase keeps
	// sending before it abandons the rest as unsent.
	openGrace = 3 * time.Second
	// qpsSlices cuts the closed phase for the quartiles printed beside qps.
	qpsSlices = 12
	// The open phase is cut into equal windows of consecutive requests —
	// windowSamples each, or a phaseWindows-th of the phase where that is
	// fewer, but no fewer than minWindowSamples (2.5 s at 100 req/s: longer
	// than ingest_mixed's flush cycle plus its stall, so every window holds
	// a whole stall) — and lat_p50_ms and lat_p99_ms are the second lowest
	// of the windows' p50s and p99s. The sandbox this runs in loses a vCPU
	// for 50-200 ms every few seconds, switches each core between two
	// speeds a quarter apart, and for minutes at a time runs everything up
	// to 1.5x slower; all of it only ever adds latency, so the quiet
	// windows are what the host disturbed least, and the second lowest
	// leaves out the one window that was merely lucky. See "Why the
	// second-quietest window" in bench/README.md for the estimators tried.
	windowSamples    = 500
	minWindowSamples = 250
	phaseWindows     = 6
	// latenessLimitMs invalidates a run whose generator fired its p99
	// request more than this late.
	latenessLimitMs = 1.0
	// capacityMargin: a backlog still growing at the end of the open phase
	// invalidates the run only if the closed phase measured less than this
	// multiple of the open rate. Rates are set under half the capacity, so a
	// backlog beside ample capacity is the host stalling, not the program.
	capacityMargin = 1.25
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a non-finite value — a percentile that landed on a
// failed request's +Inf — as 1e18, which JSON can carry.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = 1e18
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// phaseCount is the sent/succeeded/failed tally of one phase.
type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Unsent    int `json:"unsent"`
}

func (p *phaseCount) add(ok bool) {
	p.Sent++
	if ok {
		p.Succeeded++
	} else {
		p.Failed++
	}
}

// report is everything one workload run produced.
type report struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Traced     bool                  `json:"traced"`
	ScriptHash string                `json:"script_hash"`
	Metrics    map[string]metric     `json:"metrics"`
	Layers     map[string]metric     `json:"layers,omitempty"`
	Phases     map[string]phaseCount `json:"phases"`
	// QPSSlices are the closed phase's per-slice rates, printed beside
	// qps. The open phase is cut into LatWindows windows of WindowSamples
	// requests; lat_p50_ms and lat_p99_ms are the second lowest of their
	// p50s and p99s, P50Windows and P99Windows the quartiles of those, and
	// P50Whole and P99Whole the percentiles over the whole phase.
	QPSSlices     []float64  `json:"qps_slices"`
	LatWindows    int        `json:"lat_windows"`
	WindowSamples int        `json:"lat_window_samples"`
	P50Windows    [3]float64 `json:"lat_p50_window_quartiles_ms"`
	P99Windows    [3]float64 `json:"lat_p99_window_quartiles_ms"`
	P50Whole      float64    `json:"lat_p50_whole_ms"`
	P99Whole      float64    `json:"lat_p99_whole_ms"`
	SetupRuns     []float64  `json:"setup_runs_s"`
	OpenSamples   int        `json:"open_samples"`
	BeyondP99     int        `json:"beyond_p99"`
	LatenessP99   float64    `json:"lateness_p99_ms"`
	Shed          int        `json:"shed"`
	// AgreePairs NRA/SMJ answer pairs were compared at warm-up and
	// AgreeDiffering of them differed by one phrase (see checkAlgorithmsAgree).
	AgreePairs     int     `json:"agree_pairs"`
	AgreeDiffering int     `json:"agree_differing"`
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	FailShare      float64 `json:"fail_share"`
	// Problems lists answer-check failures (wrong answers); Invalid lists
	// reasons the run's numbers must not be used.
	Problems []string `json:"problems,omitempty"`
	Invalid  []string `json:"invalid,omitempty"`
}

// runner holds what every phase of one workload run shares.
type runner struct {
	fx      fixtures
	spec    workload.Spec
	fixture string
	script  *workload.Script
	corpus  *workload.Corpus
	conns   int
	procs   int // server GOMAXPROCS
	scratch string
	quick   bool
	trace   bool

	http   *http.Client
	srv    *server
	bufs   []bytes.Buffer // one response buffer per connection
	golden [][]byte       // results part of each distinct query's first answer
	sizes  []int          // body size of each distinct query's first answer

	agreeCompared, agreeDiffering int // NRA/SMJ answer pairs checked, and differing by one phrase

	mu       sync.Mutex
	problems []string
	shed     int
	spans    []span
}

// span is one traced interval, written to bench/out/trace-<workload>.jsonl.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// post sends one request on connection conn and returns the status and
// body; the body aliases the connection's buffer until its next request.
func (r *runner) post(conn int, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := &r.bufs[conn]
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		r.mu.Lock()
		r.shed++
		r.mu.Unlock()
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// resultsPart cuts a /mine answer down to its results array: everything
// before the "cached" flag, which is the one field allowed to differ
// between a computed and a cached answer to the same query.
func resultsPart(body []byte) []byte {
	if i := bytes.Index(body, []byte(`,"cached":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// mine sends distinct query q and checks the answer: 200, and on a static
// corpus byte-identical to the golden answer stored at warm-up.
func (r *runner) mine(conn, q int) bool {
	status, body, err := r.post(conn, "POST", "/mine", r.script.Queries[q].Body)
	if err != nil || status != http.StatusOK {
		r.problem("query %d: status %d err %v", q, status, err)
		return false
	}
	if !bytes.HasPrefix(body, []byte(`{"results":[`)) {
		r.problem("query %d: malformed answer %.80q", q, body)
		return false
	}
	if r.spec.Static() && !bytes.Equal(resultsPart(body), r.golden[q]) {
		r.problem("query %d: answer differs from its warm-up answer", q)
		return false
	}
	return true
}

// setUp is what setup_s times: spawn the server, wait for /healthz, then
// send every distinct query once. The sweep absorbs the lazy structures
// (the SMJ index, the sharded engine's globalized lists) and stores each
// answer as the query's golden.
func (r *runner) setUp() (time.Duration, phaseCount, error) {
	var pc phaseCount
	start := time.Now()
	srv, err := startServer(r.fx, r.spec, r.fixture, r.procs, r.scratch)
	if err != nil {
		return 0, pc, err
	}
	r.srv = srv
	if err := srv.waitHealthy(r.http, 60*time.Second); err != nil {
		return 0, pc, err
	}
	r.golden = make([][]byte, len(r.script.Queries))
	r.sizes = make([]int, len(r.script.Queries))
	for q := range r.script.Queries {
		status, body, err := r.post(0, "POST", "/mine", r.script.Queries[q].Body)
		ok := err == nil && status == http.StatusOK && bytes.HasPrefix(body, []byte(`{"results":[`))
		pc.add(ok)
		if !ok {
			r.problem("warm-up query %d: status %d err %v", q, status, err)
			continue
		}
		r.golden[q] = append([]byte(nil), resultsPart(body)...)
		r.sizes[q] = len(body)
	}
	return time.Since(start), pc, nil
}

// mineAnswer is the part of a /mine answer the checks read.
type mineAnswer struct {
	Results []struct {
		Phrase string  `json:"phrase"`
		Score  float64 `json:"score"`
	} `json:"results"`
	TailDocs int `json:"tail_docs"`
}

// checkAlgorithmsAgree checks NRA against SMJ: the two must return the
// same phrase set for a query at full lists. Two things are allowed for.
// Which of several phrases tied at the k-th score makes the cut may differ
// — and the two traversals' float sums differ in the last bits — so only
// phrases scoring clearly above both k-th scores are compared. And NRA
// stops on score bounds, which on rare OR queries leaves one phrase short
// of its true score (the repo thresholds multi-keyword precision rather
// than demanding equality): up to agreeSlack of the groups may differ by
// one phrase. Anything beyond that is a wrong answer.
func (r *runner) checkAlgorithmsAgree() {
	type answer struct {
		q      int
		algo   string
		scores map[string]float64
		kth    float64 // score of the last result of a full answer, else -Inf
	}
	groups := map[string][]answer{}
	for q, query := range r.script.Queries {
		if r.golden[q] == nil {
			continue
		}
		var a mineAnswer
		if err := json.Unmarshal(append(append([]byte(nil), r.golden[q]...), '}'), &a); err != nil {
			r.problem("query %d: undecodable golden answer: %v", q, err)
			continue
		}
		ans := answer{q: q, algo: query.Algo, scores: map[string]float64{}, kth: math.Inf(-1)}
		for _, res := range a.Results {
			ans.scores[res.Phrase] = res.Score
		}
		if len(a.Results) == query.K {
			ans.kth = a.Results[query.K-1].Score
		}
		groups[query.Group()] = append(groups[query.Group()], ans)
	}
	compared := 0
	var differing []string
	for _, answers := range groups {
		for _, b := range answers[1:] {
			a := answers[0]
			compared++
			cut := math.Max(a.kth, b.kth)
			cut += 1e-9 * math.Max(1, math.Abs(cut))
			missing := 0
			detail := ""
			for _, pair := range [][2]answer{{a, b}, {b, a}} {
				for phrase, score := range pair[0].scores {
					if _, ok := pair[1].scores[phrase]; !ok && score > cut {
						missing++
						detail = fmt.Sprintf("query %d (%s) ranks %q at %v, above the k-th score, but query %d (%s) does not return it",
							pair[0].q, pair[0].algo, phrase, score, pair[1].q, pair[1].algo)
					}
				}
			}
			if missing > 1 {
				r.problem("%s (and %d more phrases)", detail, missing-1)
			} else if missing == 1 {
				differing = append(differing, detail)
			}
		}
	}
	r.agreeCompared, r.agreeDiffering = compared, len(differing)
	if float64(len(differing)) > agreeSlack*float64(compared) {
		for _, d := range differing {
			r.problem("%s", d)
		}
	}
}

// agreeSlack is the share of NRA/SMJ answer pairs allowed to differ by
// one phrase above the cut. Over ten seeds of zipf_cached (about 2 000
// pairs each) the seed commit shows 0 or 1.
const agreeSlack = 0.005

// stats is the part of /stats the driver reads.
type stats struct {
	Documents      int `json:"documents"`
	PendingUpdates int `json:"pending_updates"`
	Cache          struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (r *runner) stats() (stats, bool) {
	var st stats
	status, body, err := r.post(0, "GET", "/stats", nil)
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		r.problem("/stats: status %d err %v", status, err)
		return st, false
	}
	return st, true
}

// writeResult is what the writer connection measured.
type writeResult struct {
	docs, flushes, checks phaseCount
	ackMs                 []float64
	flushS                []float64
	ackedBytes            int64
}

// runWriter plays the script's writes on their schedule over its own
// connection (index conn): POST /docs; after a sentinel document the
// sentinel query, which must be served from the live tail (tail_docs > 0;
// every new n-gram of an un-flushed document ties at interestingness 1,
// so rank says nothing yet); after every FlushEvery-th document POST
// /flush and the sentinel query again, which must now rank the
// collocation. A write whose turn comes while a flush is still running
// goes out as soon as the flush returns.
func (r *runner) runWriter(conn int, start time.Time) writeResult {
	var res writeResult
	clk := workload.WallClock{}
	interval := time.Duration(float64(time.Second) / r.spec.WriteRate)
	sentinels := 0
	phrase := r.script.Sentinel[0] + " " + r.script.Sentinel[1]
	sentinelVisible := func(wantTail bool) {
		status, body, err := r.post(conn, "POST", "/mine", r.script.SentinelQuery)
		var a mineAnswer
		ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &a) == nil
		if ok {
			found := false
			for _, res := range a.Results {
				found = found || res.Phrase == phrase
			}
			switch {
			case wantTail && a.TailDocs == 0:
				ok = false
				r.problem("acked sentinel document not served from the live tail (tail_docs = 0)")
			case !wantTail && !found:
				ok = false
				r.problem("sentinel phrase %q not ranked after a flush with %d acked sentinel documents: %.200s", phrase, sentinels, body)
			}
		} else {
			r.problem("sentinel query: status %d err %v", status, err)
		}
		res.checks.add(ok)
	}
	for i, w := range r.script.Writes {
		clk.WaitUntil(start.Add(time.Duration(i) * interval))
		t0 := time.Now()
		status, _, err := r.post(conn, "POST", "/docs", w.Body)
		ok := err == nil && status == http.StatusAccepted
		res.docs.add(ok)
		if !ok {
			r.problem("POST /docs %d: status %d err %v", i, status, err)
			continue
		}
		res.ackMs = append(res.ackMs, float64(time.Since(t0))/float64(time.Millisecond))
		res.ackedBytes += int64(w.TextBytes)
		if w.Sentinel {
			sentinels++
			sentinelVisible(true)
		}
		if w.FlushAfter {
			t0 := time.Now()
			status, _, err := r.post(conn, "POST", "/flush", nil)
			ok := err == nil && status == http.StatusOK
			res.flushes.add(ok)
			if !ok {
				r.problem("POST /flush: status %d err %v", status, err)
				continue
			}
			res.flushS = append(res.flushS, time.Since(t0).Seconds())
			// A collocation enters the phrase dictionary at the indexer's
			// minimum document frequency of 5.
			if sentinels >= 5 {
				sentinelVisible(false)
			}
		}
	}
	return res
}

// closedPhase runs the closed loop for dur and returns its samples. Query
// slots come from the first half of the script's order.
func (r *runner) closedPhase(dur time.Duration, offset int) ([]workload.Sample, time.Duration) {
	half := len(r.script.Order) / 2
	start := time.Now()
	samples := workload.ClosedLoop(workload.WallClock{}, start, dur, r.conns, func(conn, i int) bool {
		return r.mine(conn, int(r.script.Order[(offset+i)%half]))
	})
	return samples, time.Since(start)
}

// windowSize is how many consecutive requests make a latency window in an
// open phase of n: windowSamples, or a phaseWindows-th of the phase where
// that is fewer, but no fewer than minWindowSamples and no more than n.
func windowSize(n int) int {
	return min(max(n/phaseWindows, minWindowSamples), windowSamples, n)
}

// windowStats cuts an open phase of n scheduled requests into windows of
// size requests (a remainder shorter than a window is left out) and
// returns each window's p50 and p99 latency from due time and p99
// generator lateness, each list sorted ascending.
func windowStats(open workload.OpenResult, n, size int) (p50s, p99s, lateness []float64) {
	for from := 0; from+size <= n; from += size {
		win := open.Window(from, from+size)
		part := win.LatenciesFromDue()
		p50s = append(p50s, workload.Percentile(part, 0.50))
		p99s = append(p99s, workload.Percentile(part, 0.99))
		lateness = append(lateness, workload.Percentile(win.Lateness(), 0.99))
	}
	sort.Float64s(p50s)
	sort.Float64s(p99s)
	sort.Float64s(lateness)
	return p50s, p99s, lateness
}

// secondLowest is the metric taken from a phase's sorted window values; a
// phase too short for a second window has only the one.
func secondLowest(sorted []float64) float64 {
	return sorted[min(1, len(sorted)-1)]
}

// quartiles returns the three quartiles of a phase's window values; a
// phase too short for a second window has all three equal to its one value.
func quartiles(windows []float64) [3]float64 {
	if len(windows) < 2 {
		return [3]float64{windows[0], windows[0], windows[0]}
	}
	q1, q2, q3 := workload.Quartiles(windows)
	return [3]float64{q1, q2, q3}
}

// tally counts a phase's samples.
func tally(samples []workload.Sample) phaseCount {
	var pc phaseCount
	for _, s := range samples {
		pc.add(s.OK)
	}
	return pc
}

// run executes the whole workload: set-up (repeated), closed phase, open
// phase, teardown, and fills the report.
func (r *runner) run(seconds float64) (*report, error) {
	rep := &report{
		Workload: r.spec.Name, Seed: r.script.Seed, Seconds: seconds, Traced: r.trace,
		ScriptHash: r.script.Hash(),
		Metrics:    map[string]metric{}, Phases: map[string]phaseCount{},
	}
	r.bufs = make([]bytes.Buffer, r.conns+1)

	// Set-up, repeated while it is cheap; the last server stays up.
	var setupTotal time.Duration
	var warm phaseCount
	for {
		d, pc, err := r.setUp()
		if err != nil {
			if r.srv != nil {
				r.srv.stop()
			}
			return nil, err
		}
		rep.SetupRuns = append(rep.SetupRuns, d.Seconds())
		setupTotal += d
		warm.Sent += pc.Sent
		warm.Succeeded += pc.Succeeded
		warm.Failed += pc.Failed
		if len(rep.SetupRuns) >= maxSetupReps || setupTotal > setupBudget || r.quick {
			break
		}
		r.srv.stop()
	}
	defer r.srv.stop()
	rep.Phases["warmup"] = warm
	r.checkAlgorithmsAgree()
	before, _ := r.stats()

	closedDur := time.Duration(closedShare * seconds * float64(time.Second))
	openDur := time.Duration(seconds*float64(time.Second)) - closedDur

	// The writer runs beside both phases on its own connection, and on
	// its own thread: sharing the reader's, its request building and answer
	// parsing would make the reader fire late.
	var writer writeResult
	var writerDone sync.WaitGroup
	if !r.spec.Static() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		writerDone.Add(1)
		start := time.Now()
		go func() {
			defer writerDone.Done()
			writer = r.runWriter(r.conns, start)
		}()
	}

	// Closed phase. A traced run spends half of it recording a span per
	// request — the head of the script, which is what the ladder replays —
	// and half untraced; the gap is the tracing overhead.
	var closed []workload.Sample
	var closedWall time.Duration
	tracedQPS := 0.0
	if r.trace {
		traced, wall := r.closedPhase(closedDur/2, 0)
		r.recordSpans("c", traced)
		rep.Phases["closed_traced"] = tally(traced)
		tracedQPS = float64(rep.Phases["closed_traced"].Succeeded) / wall.Seconds()
		closed, closedWall = r.closedPhase(closedDur/2, len(traced))
	} else {
		closed, closedWall = r.closedPhase(closedDur, 0)
	}
	cp := tally(closed)
	rep.Phases["closed"] = cp
	qps := float64(cp.Succeeded) / closedWall.Seconds()
	slice := closedWall / qpsSlices
	counts := make([]float64, qpsSlices)
	for _, s := range closed {
		if i := int(s.Done / slice); s.OK && i < qpsSlices {
			counts[i]++
		}
	}
	for _, c := range counts {
		rep.QPSSlices = append(rep.QPSSlices, c/slice.Seconds())
	}

	// Open phase, from the second half of the order.
	half := len(r.script.Order) / 2
	n := int(math.Round(r.spec.OpenRate * openDur.Seconds()))
	open := workload.OpenLoop(workload.WallClock{}, time.Now(), r.spec.OpenRate, n, r.conns, openGrace, func(conn, i int) bool {
		return r.mine(conn, int(r.script.Order[half+i%half]))
	})
	if r.trace {
		r.recordSpans("o", open.Samples)
	}
	op := tally(open.Samples)
	op.Unsent = open.Unsent
	rep.Phases["open"] = op
	lat := open.LatenciesFromDue()
	rep.OpenSamples = len(lat)
	rep.P50Whole = workload.Percentile(lat, 0.50)
	rep.P99Whole = workload.Percentile(lat, 0.99)
	rep.BeyondP99 = workload.Beyond(len(lat), 0.99)
	size := windowSize(n)
	p50s, p99s, lateness := windowStats(open, n, size)
	rep.LatWindows, rep.WindowSamples = len(p50s), size
	rep.P50Windows, rep.P99Windows = quartiles(p50s), quartiles(p99s)
	rep.LatenessP99 = workload.Median(lateness)

	writerDone.Wait()
	after, _ := r.stats()
	rss, err := r.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	disk, err := r.srv.diskBytes()
	if err != nil {
		return nil, err
	}

	m := rep.Metrics
	m["setup_s"] = metric{workload.Median(rep.SetupRuns), "s"}
	m["qps"] = metric{qps, "1/s"}
	m["lat_p50_ms"] = metric{secondLowest(p50s), "ms"}
	m["lat_p99_ms"] = metric{secondLowest(p99s), "ms"}
	m["rss_peak_mb"] = metric{rss, "MiB"}
	m["disk_amp"] = metric{float64(disk) / float64(r.corpus.TextBytes+writer.ackedBytes), "ratio"}
	if !r.spec.Static() {
		sort.Float64s(writer.ackMs)
		m["write_p50_ms"] = metric{workload.Percentile(writer.ackMs, 0.50), "ms"}
		m["write_p90_ms"] = metric{workload.Percentile(writer.ackMs, 0.90), "ms"}
		m["flush_p50_s"] = metric{workload.Median(writer.flushS), "s"}
		rep.Phases["writes"] = writer.docs
		rep.Phases["flushes"] = writer.flushes
		rep.Phases["sentinel_checks"] = writer.checks
		// Indexed plus still pending: every acknowledged document, once.
		if got, want := after.Documents+after.PendingUpdates, before.Documents+writer.docs.Succeeded; got != want {
			r.problem("/stats reports %d documents + %d pending at the end, want %d initial + %d acked",
				after.Documents, after.PendingUpdates, before.Documents, writer.docs.Succeeded)
			rep.Failed++
		}
	}

	// Layer numbers the driver itself can see.
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	share := 0.0
	if !r.spec.CacheOff && hits+misses > 0 {
		share = hits / (hits + misses)
	}
	var respBytes []float64
	for _, s := range open.Samples {
		respBytes = append(respBytes, float64(r.sizes[r.script.Order[half+s.Index%half]]))
	}
	rep.Layers = map[string]metric{
		"server.cache_hit_share": {share, "ratio"},
		"server.shed_share":      {float64(r.shed) / float64(max(1, cp.Sent+op.Sent)), "ratio"},
		"server.resp_bytes":      {workload.Median(respBytes), "B"},
	}
	if r.trace {
		// Over the requests the ladder replays: the head of the script.
		var rt []float64
		for _, s := range r.spans {
			if strings.HasPrefix(s.Trace, r.spec.Name+"-c") && len(rt) < replayRequests {
				rt = append(rt, float64(s.End-s.Start)/1e3)
			}
		}
		rep.Layers["http.roundtrip_us"] = metric{workload.Median(rt), "us"}
		rep.Layers["trace_overhead_share"] = metric{1 - tracedQPS/qps, "ratio"}
	}

	// Failure accounting over every phase.
	for _, pc := range rep.Phases {
		rep.Attempted += pc.Sent + pc.Unsent
		rep.Failed += pc.Failed + pc.Unsent
	}
	rep.FailShare = float64(rep.Failed) / float64(rep.Attempted)
	rep.Shed = r.shed
	rep.AgreePairs, rep.AgreeDiffering = r.agreeCompared, r.agreeDiffering
	rep.Problems = r.problems

	// Validity guards.
	if rep.LatenessP99 > latenessLimitMs {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("generator lateness p99 %.3f ms exceeds %.1f ms", rep.LatenessP99, latenessLimitMs))
	}
	if open.BacklogGrowing(r.spec.OpenRate) && qps < capacityMargin*r.spec.OpenRate {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("open-phase backlog still growing in the last quarter and the closed phase measured %.0f req/s: the rate is above capacity", qps))
	}
	if rep.BeyondP99 < 10 && !r.quick {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("only %d samples beyond the open phase's p99 (%d reads), need 10", rep.BeyondP99, rep.OpenSamples))
	}
	if r.shed > 0 {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("server shed %d requests (503)", r.shed))
	}
	return rep, nil
}

// recordSpans keeps one http.roundtrip span per request of a phase.
func (r *runner) recordSpans(phase string, samples []workload.Sample) {
	for _, s := range samples {
		r.spans = append(r.spans, span{
			Trace: fmt.Sprintf("%s-%s%d", r.spec.Name, phase, s.Index),
			Name:  "http.roundtrip",
			Start: int64(s.Sent), End: int64(s.Done),
		})
	}
}
