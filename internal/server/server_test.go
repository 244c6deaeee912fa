package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"phrasemine"
	"phrasemine/internal/core"
)

func testMiner(t *testing.T) *phrasemine.Miner {
	t.Helper()
	topics := []string{
		"the ministry reported foreign trade reserves rising against the dollar",
		"crude oil production quotas were discussed at the energy summit",
		"wheat and grain exports fell sharply after the harvest report",
		"database query optimization improves system throughput substantially",
	}
	var texts []string
	for round := 0; round < 8; round++ {
		for _, tp := range topics {
			texts = append(texts, fmt.Sprintf("%s in period %d", tp, round%3))
		}
	}
	m, err := phrasemine.NewMinerFromTexts(texts, phrasemine.Config{MinDocFreq: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	return New(testMiner(t), opts)
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = httptest.NewRequest(method, path, bytes.NewReader(b))
		r.Header.Set("Content-Type", "application/json")
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	w := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	if got := decode[map[string]string](t, w); got["status"] != "ok" {
		t.Fatalf("healthz body = %v", got)
	}
}

func TestMineAndCacheHit(t *testing.T) {
	s := newTestServer(t, Options{})
	req := MineRequest{Keywords: []string{"trade", "reserves"}, Op: "AND", K: 5}

	w := doJSON(t, s, http.MethodPost, "/mine", req)
	if w.Code != http.StatusOK {
		t.Fatalf("mine = %d: %s", w.Code, w.Body)
	}
	first := decode[MineResponse](t, w)
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if len(first.Results) == 0 {
		t.Fatal("no results")
	}

	// Identical query: served from cache.
	w = doJSON(t, s, http.MethodPost, "/mine", req)
	second := decode[MineResponse](t, w)
	if !second.Cached {
		t.Fatal("repeated query missed the cache")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached results differ")
	}

	// Same normalized query, different keyword order / casing: also a hit.
	w = doJSON(t, s, http.MethodPost, "/mine",
		MineRequest{Keywords: []string{"Reserves", "TRADE"}, Op: "and", K: 5})
	third := decode[MineResponse](t, w)
	if !third.Cached {
		t.Fatal("normalization-equivalent query missed the cache")
	}

	// Different K: a distinct cache entry.
	w = doJSON(t, s, http.MethodPost, "/mine",
		MineRequest{Keywords: []string{"trade", "reserves"}, Op: "AND", K: 3})
	if decode[MineResponse](t, w).Cached {
		t.Fatal("different-K query falsely reported cached")
	}

	stats := decode[StatsResponse](t, doJSON(t, s, http.MethodGet, "/stats", nil))
	if stats.Cache.Hits < 2 || stats.Cache.Misses < 2 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
}

func TestCacheInvalidationOnMutations(t *testing.T) {
	s := newTestServer(t, Options{})
	req := MineRequest{Keywords: []string{"trade"}, K: 5}
	doJSON(t, s, http.MethodPost, "/mine", req)
	if w := doJSON(t, s, http.MethodPost, "/mine", req); !decode[MineResponse](t, w).Cached {
		t.Fatal("warmup query not cached")
	}

	// Adding a document must invalidate.
	w := doJSON(t, s, http.MethodPost, "/docs",
		AddDocRequest{Text: "new discussion of trade reserves and tariffs"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("add doc = %d: %s", w.Code, w.Body)
	}
	if decode[MineResponse](t, doJSON(t, s, http.MethodPost, "/mine", req)).Cached {
		t.Fatal("cache survived /docs")
	}

	// Re-warm, then flush must invalidate again.
	if !decode[MineResponse](t, doJSON(t, s, http.MethodPost, "/mine", req)).Cached {
		t.Fatal("re-warm missed")
	}
	if w := doJSON(t, s, http.MethodPost, "/flush", nil); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
	if decode[MineResponse](t, doJSON(t, s, http.MethodPost, "/mine", req)).Cached {
		t.Fatal("cache survived /flush")
	}

	stats := decode[StatsResponse](t, doJSON(t, s, http.MethodGet, "/stats", nil))
	if stats.PendingUpdates != 0 {
		t.Fatalf("pending updates = %d after flush", stats.PendingUpdates)
	}
	if stats.Documents != 33 {
		t.Fatalf("documents = %d, want 33", stats.Documents)
	}
}

func TestRemoveDoc(t *testing.T) {
	s := newTestServer(t, Options{})
	w := doJSON(t, s, http.MethodDelete, "/docs/0", nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("remove = %d: %s", w.Code, w.Body)
	}
	if w := doJSON(t, s, http.MethodDelete, "/docs/notanumber", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad id = %d", w.Code)
	}
	if w := doJSON(t, s, http.MethodDelete, "/docs/999999", nil); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range id = %d: %s", w.Code, w.Body)
	}
}

func TestMineBatch(t *testing.T) {
	s := newTestServer(t, Options{})
	// Warm one query so the batch sees a cache hit alongside misses.
	doJSON(t, s, http.MethodPost, "/mine", MineRequest{Keywords: []string{"oil"}})

	w := doJSON(t, s, http.MethodPost, "/mine/batch", BatchRequest{Queries: []MineRequest{
		{Keywords: []string{"oil"}},
		{Keywords: []string{"grain", "exports"}, Op: "AND"},
		{Keywords: nil}, // per-item failure, not a batch failure
		{Keywords: []string{"database"}, Algorithm: "gm"},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if len(resp.Results) != 4 {
		t.Fatalf("%d batch results", len(resp.Results))
	}
	if !resp.Results[0].Cached {
		t.Fatal("warmed batch slot not served from cache")
	}
	if resp.Results[1].Error != "" || len(resp.Results[1].Results) == 0 {
		t.Fatalf("slot 1 = %+v", resp.Results[1])
	}
	if resp.Results[2].Error == "" {
		t.Fatal("empty-keywords slot did not fail")
	}
	if resp.Results[3].Error != "" {
		t.Fatalf("gm slot error: %s", resp.Results[3].Error)
	}

	// Batch misses populate the cache for later /mine calls.
	w = doJSON(t, s, http.MethodPost, "/mine", MineRequest{Keywords: []string{"grain", "exports"}, Op: "AND"})
	if !decode[MineResponse](t, w).Cached {
		t.Fatal("batch result not cached for single mine")
	}
}

func TestBatchLimits(t *testing.T) {
	s := newTestServer(t, Options{MaxBatch: 2})
	if w := doJSON(t, s, http.MethodPost, "/mine/batch", BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d", w.Code)
	}
	over := BatchRequest{Queries: []MineRequest{
		{Keywords: []string{"a"}}, {Keywords: []string{"b"}}, {Keywords: []string{"c"}},
	}}
	if w := doJSON(t, s, http.MethodPost, "/mine/batch", over); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d", w.Code)
	}
}

func TestMalformedRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"keywords": [`},
		{"unknown field", `{"keywords":["x"],"bogus":1}`},
		{"trailing garbage", `{"keywords":["x"]} extra`},
		{"wrong type", `{"keywords":"not-an-array"}`},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/mine", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
		}
		if decode[map[string]string](t, w)["error"] == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}

	// Semantic errors.
	for _, req := range []MineRequest{
		{Keywords: []string{}},
		{Keywords: []string{"x"}, Op: "XOR"},
		{Keywords: []string{"x"}, Algorithm: "quantum"},
		{Keywords: []string{"x"}, K: -1},
		{Keywords: []string{"x"}, Fraction: 1.5},
		{Keywords: []string{"x"}, Fraction: -0.1},
	} {
		if w := doJSON(t, s, http.MethodPost, "/mine", req); w.Code != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400", req, w.Code)
		}
	}

	// Wrong method / path.
	if w := doJSON(t, s, http.MethodGet, "/mine", nil); w.Code == http.StatusOK {
		t.Error("GET /mine succeeded")
	}
	if w := doJSON(t, s, http.MethodGet, "/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d", w.Code)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := newTestServer(t, Options{QueryTimeout: time.Nanosecond})
	w := doJSON(t, s, http.MethodPost, "/mine", MineRequest{Keywords: []string{"trade"}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	r := []phrasemine.Result{{Phrase: "p"}}
	gen := c.Generation()
	c.Put("a", r, gen)
	c.Put("b", r, gen)
	if _, ok := c.Get("a"); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	c.Put("c", r, gen) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be cached", k)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheRejectsStaleGeneration pins the invalidation race fix: a result
// computed before an Invalidate must not enter the cache afterwards.
func TestCacheRejectsStaleGeneration(t *testing.T) {
	c := newResultCache(8)
	r := []phrasemine.Result{{Phrase: "stale"}}
	gen := c.Generation() // query starts here...
	c.Invalidate()        // ...corpus mutates while it runs...
	c.Put("q", r, gen)    // ...and its result must be dropped.
	if _, ok := c.Get("q"); ok {
		t.Fatal("stale-generation result entered the cache")
	}
	// A result computed after the invalidation is accepted.
	c.Put("q", r, c.Generation())
	if _, ok := c.Get("q"); !ok {
		t.Fatal("current-generation result rejected")
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	req := MineRequest{Keywords: []string{"trade"}}
	doJSON(t, s, http.MethodPost, "/mine", req)
	if decode[MineResponse](t, doJSON(t, s, http.MethodPost, "/mine", req)).Cached {
		t.Fatal("disabled cache served a hit")
	}
}

// TestMineFractionsKeepIDOrderedCopiesBounded is the HTTP face of the
// ID-ordered cache bound: the "fraction" of an SMJ /mine request is the
// client's to choose and each new value builds another copy of that share
// of the lists, so a client walking through distinct values must leave
// /stats reporting at most the full-list copy plus core.MaxPartialSMJ
// partial ones, every request still answered.
func TestMineFractionsKeepIDOrderedCopiesBounded(t *testing.T) {
	s := newTestServer(t, Options{})
	const limit = 1 + core.MaxPartialSMJ
	for i := 0; i < core.MaxPartialSMJ+2; i++ {
		req := MineRequest{Keywords: []string{"trade", "reserves"}, Algorithm: "smj", Fraction: 0.3 + 0.1*float64(i)}
		w := doJSON(t, s, http.MethodPost, "/mine", req)
		if w.Code != http.StatusOK {
			t.Fatalf("fraction %v: mine = %d: %s", req.Fraction, w.Code, w.Body)
		}
		if len(decode[MineResponse](t, w).Results) == 0 {
			t.Fatalf("fraction %v: no results", req.Fraction)
		}
		st := decode[StatsResponse](t, doJSON(t, s, http.MethodGet, "/stats", nil))
		if st.Index.IDOrderedCopies == 0 || st.Index.IDOrderedCopies > limit {
			t.Fatalf("after fraction %v: /stats reports %d ID-ordered copies, want 1..%d", req.Fraction, st.Index.IDOrderedCopies, limit)
		}
	}
}
