package phrasemine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"phrasemine/internal/core"
)

// newsCorpus fabricates a small plain-text corpus with two clear topics so
// public-API behaviour is human-checkable: "trade" documents feature the
// collocation "economic minister"; "database" documents feature "query
// optimization".
func newsCorpus() []string {
	rng := rand.New(rand.NewSource(1))
	filler := []string{"report", "week", "official", "statement", "figures",
		"meeting", "growth", "public", "sector", "announcement"}
	sentence := func(words ...string) string {
		out := append([]string{}, words...)
		for i := 0; i < 4; i++ {
			out = append(out, filler[rng.Intn(len(filler))])
		}
		return strings.Join(out, " ") + "."
	}
	var docs []string
	for i := 0; i < 30; i++ {
		docs = append(docs, sentence("trade", "reserves", "economic", "minister")+
			" "+sentence("economic", "minister", "spoke"))
	}
	for i := 0; i < 30; i++ {
		docs = append(docs, sentence("database", "systems", "query", "optimization")+
			" "+sentence("query", "optimization", "improves"))
	}
	for i := 0; i < 40; i++ {
		docs = append(docs, sentence("weather", "sports", "local"))
	}
	return docs
}

func newTestMiner(t *testing.T) *Miner {
	t.Helper()
	m, err := NewMinerFromTexts(newsCorpus(), Config{
		MinPhraseWords:      1,
		MaxPhraseWords:      4,
		MinDocFreq:          3,
		DropStopwordPhrases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMinerBasicStats(t *testing.T) {
	m := newTestMiner(t)
	if m.NumDocuments() != 100 {
		t.Fatalf("NumDocuments = %d", m.NumDocuments())
	}
	if m.NumPhrases() == 0 || m.VocabSize() == 0 {
		t.Fatal("empty index")
	}
}

func TestMineFindsTopicPhrases(t *testing.T) {
	m := newTestMiner(t)
	for _, algo := range []Algorithm{AlgoNRA, AlgoSMJ, AlgoGM, AlgoExact} {
		res, err := m.Mine([]string{"trade", "reserves"}, OR, QueryOptions{K: 8, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res) == 0 {
			t.Fatalf("%s: no results", algo)
		}
		found := false
		for _, r := range res {
			if r.Phrase == "economic minister" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: 'economic minister' not among results: %+v", algo, res)
		}
	}
}

func TestMineANDvsOR(t *testing.T) {
	m := newTestMiner(t)
	and, err := m.MineAND("query", "optimization")
	if err != nil {
		t.Fatal(err)
	}
	or, err := m.MineOR("query", "optimization")
	if err != nil {
		t.Fatal(err)
	}
	if len(and) == 0 || len(or) == 0 {
		t.Fatal("no results")
	}
	for _, r := range and {
		if strings.Contains(r.Phrase, "economic") {
			t.Fatalf("AND query leaked cross-topic phrase: %+v", and)
		}
	}
}

func TestMineNormalizesKeywords(t *testing.T) {
	m := newTestMiner(t)
	lower, err := m.MineOR("trade")
	if err != nil {
		t.Fatal(err)
	}
	upper, err := m.Mine([]string{"  TRADE "}, OR, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lower) == 0 || len(lower) != len(upper) {
		t.Fatalf("case normalization broken: %d vs %d results", len(lower), len(upper))
	}
	for i := range lower {
		if lower[i].Phrase != upper[i].Phrase {
			t.Fatal("case-differing queries disagree")
		}
	}
}

func TestMineDefaultsK5(t *testing.T) {
	m := newTestMiner(t)
	res, err := m.MineOR("trade")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) > 5 {
		t.Fatalf("default K should cap at 5, got %d", len(res))
	}
}

func TestMinePartialLists(t *testing.T) {
	m := newTestMiner(t)
	res, err := m.Mine([]string{"trade", "reserves"}, OR,
		QueryOptions{K: 5, Algorithm: AlgoNRA, ListFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results from partial lists")
	}
	// Auto algorithm selection: small fraction routes to SMJ.
	res2, err := m.Mine([]string{"trade", "reserves"}, OR,
		QueryOptions{K: 5, ListFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) == 0 {
		t.Fatal("auto algorithm returned nothing")
	}
}

// TestIDOrderedCopiesBounded drives more distinct ListFraction values
// through SMJ than an index keeps ID-ordered copies for. The fraction is
// the caller's to choose (over HTTP, the client's) and every new value
// builds a second physical copy of that share of the lists, so residency
// must stay at the full-list copy plus core.MaxPartialSMJ partial ones per
// index — and an answer must not depend on what was evicted before it.
func TestIDOrderedCopiesBounded(t *testing.T) {
	for _, segments := range []int{0, 3} {
		build := newTestMiner
		perIndex := 1
		if segments > 0 {
			build = func(t *testing.T) *Miner { return newShardedTestMiner(t, segments) }
			perIndex = segments
		}
		limit := perIndex * (1 + core.MaxPartialSMJ)
		m := build(t)
		mine := func(m *Miner, frac float64) []Result {
			t.Helper()
			res, err := m.Mine([]string{"trade", "reserves"}, OR, QueryOptions{K: 5, Algorithm: AlgoSMJ, ListFraction: frac})
			if err != nil {
				t.Fatalf("segments=%d frac=%v: %v", segments, frac, err)
			}
			return res
		}
		var fracs []float64
		for i := 0; i < core.MaxPartialSMJ+2; i++ {
			fracs = append(fracs, 0.3+0.1*float64(i))
		}
		fracs = append(fracs, 1, fracs[0]) // the full lists, then an evicted value again
		for _, frac := range fracs {
			// A fresh miner has seen no other fraction: its answer is the
			// reference for this one.
			if got, want := mine(m, frac), mine(build(t), frac); !reflect.DeepEqual(got, want) {
				t.Errorf("segments=%d frac=%v: answer after evictions %v, fresh miner %v", segments, frac, got, want)
			}
			if n := m.IndexStats().IDOrderedCopies; n > limit {
				t.Fatalf("segments=%d: %d ID-ordered copies resident after frac=%v, limit %d", segments, n, frac, limit)
			}
		}
		if n := m.IndexStats().IDOrderedCopies; n != limit {
			t.Errorf("segments=%d: %d ID-ordered copies resident after the sweep, want the cache full at %d", segments, n, limit)
		}
	}
}

func TestMineExactMatchesGM(t *testing.T) {
	m := newTestMiner(t)
	gm, err := m.Mine([]string{"database"}, OR, QueryOptions{K: 5, Algorithm: AlgoGM})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.Mine([]string{"database"}, OR, QueryOptions{K: 5, Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(gm) != len(exact) {
		t.Fatalf("GM %d results, Exact %d", len(gm), len(exact))
	}
	for i := range gm {
		if gm[i] != exact[i] {
			t.Fatalf("GM[%d] = %+v != Exact %+v", i, gm[i], exact[i])
		}
	}
}

func TestMineValidation(t *testing.T) {
	m := newTestMiner(t)
	if _, err := m.Mine(nil, OR, QueryOptions{}); err == nil {
		t.Fatal("empty keywords should error")
	}
	if _, err := m.Mine([]string{"trade"}, Operator(9), QueryOptions{}); err == nil {
		t.Fatal("bad operator should error")
	}
	if _, err := m.Mine([]string{"trade"}, OR, QueryOptions{Algorithm: "bogus"}); err == nil {
		t.Fatal("bad algorithm should error")
	}
}

func TestNewMinerValidation(t *testing.T) {
	if _, err := NewMinerFromTexts(nil, DefaultConfig()); err == nil {
		t.Fatal("no documents should error")
	}
}

func TestFacetQueries(t *testing.T) {
	docs := []Document{}
	for i := 0; i < 20; i++ {
		docs = append(docs, Document{
			Text:   "earnings growth quarterly report strong earnings growth",
			Facets: map[string]string{"venue": "sigmod"},
		})
	}
	for i := 0; i < 20; i++ {
		docs = append(docs, Document{
			Text:   "protein expression bacteria binding protein study",
			Facets: map[string]string{"venue": "pubmed"},
		})
	}
	m, err := NewMinerFromDocuments(docs, Config{MinDocFreq: 3, MaxPhraseWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine([]string{Facet("venue", "sigmod")}, OR, QueryOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("facet query returned nothing")
	}
	for _, r := range res {
		if strings.Contains(r.Phrase, "protein") {
			t.Fatalf("facet filter leaked: %+v", res)
		}
	}
}

// TestFacetQueriesAnyCase checks that a facet is matched whatever case
// its document or its query wrote — in the built index, in the pending
// delta, and after a flush folds the delta in.
func TestFacetQueriesAnyCase(t *testing.T) {
	var docs []Document
	for i := 0; i < 20; i++ {
		docs = append(docs,
			Document{Text: "earnings growth quarterly report strong earnings growth", Facets: map[string]string{"Venue": "SIGMOD"}},
			Document{Text: "protein expression bacteria binding protein study", Facets: map[string]string{"venue": "vldb"}})
	}
	m, err := NewMinerFromDocuments(docs, Config{MinDocFreq: 3, MaxPhraseWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	check := func(stage string) {
		t.Helper()
		want, err := m.Mine([]string{"venue:sigmod"}, OR, QueryOptions{K: 5, Algorithm: AlgoSMJ})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: venue:sigmod answered nothing", stage)
		}
		for _, kw := range []string{Facet("Venue", "SIGMOD"), "VENUE:sigmod"} {
			got, err := m.Mine([]string{kw}, OR, QueryOptions{K: 5, Algorithm: AlgoSMJ})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %q answered %v, venue:sigmod answered %v", stage, kw, got, want)
			}
		}
		if res, err := m.Mine([]string{Facet("VENUE", "VLDB")}, OR, QueryOptions{K: 5, Algorithm: AlgoSMJ}); err != nil || len(res) == 0 {
			t.Fatalf("%s: VENUE:VLDB = %v, %v", stage, res, err)
		}
	}
	check("built")
	for i := 0; i < 5; i++ {
		if err := m.Add(Document{Text: "earnings growth quarterly outlook", Facets: map[string]string{"VENUE": "Sigmod"}}); err != nil {
			t.Fatal(err)
		}
	}
	check("pending")
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}

func TestIncrementalAddAndFlush(t *testing.T) {
	m := newTestMiner(t)
	if m.PendingUpdates() != 0 {
		t.Fatal("fresh miner has pending updates")
	}
	// Add documents strengthening the tie between "weather" and
	// "economic minister". ("briefing" is absent from the base corpus so
	// these docs introduce no other phrase overlaps.)
	for i := 0; i < 10; i++ {
		m.Add(Document{Text: "weather economic minister briefing"})
	}
	if m.PendingUpdates() != 10 {
		t.Fatalf("PendingUpdates = %d", m.PendingUpdates())
	}
	// Queries still work while the delta is pending. Before the updates,
	// no phrase co-occurred with both "weather" and "minister", so this
	// AND query can only be answered through the delta corrections.
	res, err := m.Mine([]string{"weather", "minister"}, AND, QueryOptions{K: 5, Algorithm: AlgoSMJ})
	if err != nil {
		t.Fatal(err)
	}
	foundPending := false
	for _, r := range res {
		if r.Phrase == "economic minister" {
			foundPending = true
		}
	}
	if !foundPending {
		t.Fatalf("delta-adjusted query missed the new correlation: %+v", res)
	}
	docsBefore := m.NumDocuments()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.PendingUpdates() != 0 {
		t.Fatal("Flush left pending updates")
	}
	if m.NumDocuments() != docsBefore+10 {
		t.Fatalf("flushed corpus has %d docs, want %d", m.NumDocuments(), docsBefore+10)
	}
	// Flush with nothing pending is a no-op.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRemove(t *testing.T) {
	m := newTestMiner(t)
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(m.NumDocuments() + 5); err == nil {
		t.Fatal("out-of-range removal should error")
	}
	if m.PendingUpdates() != 1 {
		t.Fatalf("PendingUpdates = %d", m.PendingUpdates())
	}
	before := m.NumDocuments()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.NumDocuments() != before-1 {
		t.Fatalf("removal not applied: %d docs", m.NumDocuments())
	}
}

func TestInterestingnessScaleSanity(t *testing.T) {
	m := newTestMiner(t)
	res, err := m.Mine([]string{"trade"}, OR, QueryOptions{K: 5, Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Interestingness < 0 || r.Interestingness > 1 {
			t.Fatalf("exact interestingness out of [0,1]: %+v", r)
		}
	}
	// The estimate from the independence assumption should land near the
	// exact value for the top phrase (the paper's Table 6 shows mean
	// absolute differences of 0.001-0.05).
	est, err := m.Mine([]string{"trade"}, OR, QueryOptions{K: 1, Algorithm: AlgoNRA})
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 {
		t.Fatal("no NRA results")
	}
	if est[0].Interestingness <= 0 {
		t.Fatalf("estimate should be positive: %+v", est[0])
	}
}

func TestOperatorString(t *testing.T) {
	if AND.String() != "AND" || OR.String() != "OR" {
		t.Fatal("operator strings")
	}
}

func ExampleMiner_Mine() {
	texts := []string{}
	for i := 0; i < 10; i++ {
		texts = append(texts, "the economic minister discussed trade reserves")
		texts = append(texts, "query optimization in database systems")
	}
	miner, err := NewMinerFromTexts(texts, Config{MinDocFreq: 3, MaxPhraseWords: 2})
	if err != nil {
		panic(err)
	}
	results, err := miner.Mine([]string{"trade"}, OR, QueryOptions{K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(results[0].Phrase != "")
	// Output: true
}
