package livetail

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"phrasemine/internal/corpus"
	"phrasemine/internal/textproc"
)

// fakeClock returns a Now func stepping forward by step per call.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

func tokenize(text string) []string {
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	return tok.Tokenize(text)
}

func mustTail(t *testing.T, cfg Config) *Tail {
	t.Helper()
	tail, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tail
}

func addText(tail *Tail, text string, facets map[string]string) {
	tail.Add(corpus.Document{Tokens: tokenize(text), Facets: facets})
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate, got %v", err)
	}
	bad := []Config{
		{SketchWidth: -1},
		{SketchDepth: -1},
		{WindowPeriod: -time.Second},
		{WindowPeriods: -1},
		{MinWords: -1},
		{MinWords: 4, MaxWords: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d must not validate", i)
		}
	}
}

func TestExactCounts(t *testing.T) {
	tail := mustTail(t, Config{DropAllStopwordPhrases: true})
	addText(tail, "neural phrase mining", nil)
	addText(tail, "neural networks", nil)
	addText(tail, "phrase mining systems", map[string]string{"venue": "edbt"})

	and := corpus.NewQuery(corpus.OpAND, "phrase", "mining")
	counts, consulted, approx := tail.Counts(and)
	if approx {
		t.Fatal("tail below threshold must answer exactly")
	}
	if consulted != 2 {
		t.Fatalf("AND consulted = %d, want 2", consulted)
	}
	if got := counts["phrase mining"]; got != 2 {
		t.Errorf(`counts["phrase mining"] = %d, want 2`, got)
	}
	if got := counts["neural"]; got != 1 {
		t.Errorf(`counts["neural"] = %d, want 1 (only the matching doc)`, got)
	}

	// Facet features select like words.
	facet := corpus.NewQuery(corpus.OpAND, corpus.FacetFeature("venue", "edbt"))
	counts, consulted, _ = tail.Counts(facet)
	if consulted != 1 || counts["phrase mining systems"] != 1 {
		t.Errorf("facet query: consulted=%d counts=%v", consulted, counts)
	}

	or := corpus.NewQuery(corpus.OpOR, "networks", "systems")
	_, consulted, _ = tail.Counts(or)
	if consulted != 2 {
		t.Errorf("OR consulted = %d, want 2", consulted)
	}

	if tail.Docs() != 3 {
		t.Errorf("Docs = %d, want 3", tail.Docs())
	}
	if tail.DF("phrase mining") != 2 {
		t.Errorf(`DF("phrase mining") = %d, want 2`, tail.DF("phrase mining"))
	}
}

// TestSketchCountsNeverUndercount pins the sketch path's one-sided error
// against the exact scan on the same tail: every exact count is covered,
// and no estimate exceeds the phrase's tail document frequency.
func TestSketchCountsNeverUndercount(t *testing.T) {
	exactTail := mustTail(t, Config{ExactThreshold: 1 << 20})
	sketchTail := mustTail(t, Config{ExactThreshold: -1, SketchWidth: 512})
	for i := 0; i < 60; i++ {
		text := fmt.Sprintf("shared phrase plus token%d filler%d", i%7, i%5)
		addText(exactTail, text, nil)
		addText(sketchTail, text, nil)
	}
	for _, q := range []corpus.Query{
		corpus.NewQuery(corpus.OpAND, "shared", "phrase"),
		corpus.NewQuery(corpus.OpOR, "token3", "filler2"),
		corpus.NewQuery(corpus.OpAND, "token1", "filler4"),
	} {
		exact, _, approx := exactTail.Counts(q)
		if approx {
			t.Fatal("exactTail must answer exactly")
		}
		est, consulted, approx := sketchTail.Counts(q)
		if !approx {
			t.Fatal("sketchTail must answer from the sketch")
		}
		if consulted != sketchTail.Docs() {
			t.Errorf("sketch consulted = %d, want whole tail %d", consulted, sketchTail.Docs())
		}
		for p, want := range exact {
			if got := est[p]; got < want {
				t.Errorf("%v: sketch count for %q = %d undercounts exact %d", q, p, got, want)
			}
		}
		for p, got := range est {
			if df := sketchTail.DF(p); got > df {
				t.Errorf("%v: sketch count for %q = %d exceeds tail df %d", q, p, got, df)
			}
		}
	}
}

// TestNewPhrasesVisible pins the reason the tail ignores MinDocFreq: a
// phrase seen once — which the base index would drop — is countable.
func TestNewPhrasesVisible(t *testing.T) {
	tail := mustTail(t, Config{})
	addText(tail, "zeitgeist quantification", nil)
	counts, _, _ := tail.Counts(corpus.NewQuery(corpus.OpAND, "zeitgeist"))
	if counts["zeitgeist quantification"] != 1 {
		t.Fatalf("single-occurrence phrase not visible: %v", counts)
	}
}

func TestPhraseExtractionRules(t *testing.T) {
	tail := mustTail(t, Config{MaxWords: 2, DropAllStopwordPhrases: true})
	addText(tail, "the of. neural mining", nil)
	if tail.DF("the of") != 0 {
		t.Error("all-stopword phrase must be dropped")
	}
	if tail.DF("of. neural") != 0 && tail.DF("of neural") != 1 {
		// Tokenization strips punctuation; the sentence break must still
		// block the cross-sentence bigram.
		t.Errorf("cross-sentence bigram must not be extracted")
	}
	if tail.DF("neural mining") != 1 {
		t.Error("in-sentence bigram must be extracted")
	}
}

func TestWindowCountsAndCompaction(t *testing.T) {
	start := time.Unix(1_700_000_000, 0).Truncate(time.Minute)
	tail := mustTail(t, Config{
		WindowPeriod:  time.Minute,
		WindowPeriods: 16,
		Now:           fakeClock(start, time.Minute),
	})
	// Three docs, one per minute.
	addText(tail, "trending topic alpha", nil)
	addText(tail, "trending topic beta", nil)
	addText(tail, "trending topic gamma", nil)

	q := corpus.NewQuery(corpus.OpAND, "trending")
	// The clock has advanced to minute 3; a 2-minute window covers the
	// last two ingests (whole-period rounding adds the boundary period).
	counts, windowDF := tail.WindowCounts(q, 2*time.Minute)
	if windowDF["trending topic"] != 2 {
		t.Errorf(`windowDF["trending topic"] = %d, want 2`, windowDF["trending topic"])
	}
	if counts["trending topic"] < 2 {
		t.Errorf(`window counts["trending topic"] = %d, want >= 2`, counts["trending topic"])
	}
	full, _ := tail.WindowCounts(q, time.Hour)
	if full["trending topic"] < 3 {
		t.Errorf("1h window must cover all 3 ingests, got %d", full["trending topic"])
	}

	// Compaction clears the buffer but windowed history survives.
	tail.Clear()
	if tail.Docs() != 0 || tail.Phrases() != 0 {
		t.Fatalf("Clear left docs=%d phrases=%d", tail.Docs(), tail.Phrases())
	}
	if c, _, _ := tail.Counts(q); len(c) != 0 {
		t.Fatalf("Counts after Clear = %v, want empty", c)
	}
	full, _ = tail.WindowCounts(q, time.Hour)
	if full["trending topic"] < 3 {
		t.Errorf("windowed counts must survive compaction, got %d", full["trending topic"])
	}

	// Discard drops the windowed history too.
	tail.Reset()
	if c, df := tail.WindowCounts(q, time.Hour); len(c) != 0 || len(df) != 0 {
		t.Errorf("WindowCounts after Reset = %v/%v, want empty", c, df)
	}
}

// TestDropOldestMatchesFreshTail pins the partial compaction an off-lock
// flush performs: dropping the oldest n documents leaves a tail that answers
// exactly like one fed only the survivors, while the windowed history —
// which describes the ingest stream — is untouched.
func TestDropOldestMatchesFreshTail(t *testing.T) {
	start := time.Unix(1_700_000_000, 0).Truncate(time.Minute)
	cfg := Config{Now: fakeClock(start, 0)}
	texts := []string{
		"alpha phrase mining systems",
		"beta phrase mining engines",
		"gamma stream sketch counts",
		"delta phrase sketch counts",
		"epsilon stream mining engines",
	}
	facets := []map[string]string{nil, {"venue": "edbt"}, nil, {"venue": "vldb"}, nil}
	tail := mustTail(t, cfg)
	fresh := mustTail(t, cfg)
	for i, text := range texts {
		addText(tail, text, facets[i])
		if i >= 3 {
			addText(fresh, text, facets[i])
		}
	}
	queries := []corpus.Query{
		corpus.NewQuery(corpus.OpAND, "phrase", "mining"),
		corpus.NewQuery(corpus.OpOR, "sketch", "engines"),
		corpus.NewQuery(corpus.OpAND, corpus.FacetFeature("venue", "vldb")),
		corpus.NewQuery(corpus.OpOR, "alpha", "beta"),
	}
	type window struct{ counts, df map[string]int }
	windowsBefore := make([]window, len(queries))
	for i, q := range queries {
		windowsBefore[i].counts, windowsBefore[i].df = tail.WindowCounts(q, time.Hour)
	}

	tail.DropOldest(3)

	if got, want := tail.Stats().Docs, fresh.Stats().Docs; got != want || got != 2 {
		t.Fatalf("Stats().Docs = %d, fresh tail %d, want 2", got, want)
	}
	for i, q := range queries {
		got, gotN, gotApprox := tail.Counts(q)
		want, wantN, wantApprox := fresh.Counts(q)
		if !reflect.DeepEqual(got, want) || gotN != wantN || gotApprox != wantApprox {
			t.Errorf("%v: Counts = %v/%d/%v, fresh tail %v/%d/%v", q, got, gotN, gotApprox, want, wantN, wantApprox)
		}
		c, df := tail.WindowCounts(q, time.Hour)
		if !reflect.DeepEqual(c, windowsBefore[i].counts) || !reflect.DeepEqual(df, windowsBefore[i].df) {
			t.Errorf("%v: WindowCounts changed by DropOldest", q)
		}
	}
	for _, text := range texts {
		toks := tokenize(text)
		for _, p := range []string{text, toks[0], toks[1] + " " + toks[2]} {
			if got, want := tail.DF(p), fresh.DF(p); got != want {
				t.Errorf("DF(%q) = %d, fresh tail %d", p, got, want)
			}
			for _, f := range append(toks, corpus.FacetFeature("venue", "vldb")) {
				if got, want := tail.PairEstimate(f, p), fresh.PairEstimate(f, p); got != want {
					t.Errorf("PairEstimate(%q, %q) = %d, fresh tail %d", f, p, got, want)
				}
			}
		}
	}

	// Dropping at least everything is a Clear.
	tail.DropOldest(5)
	if tail.Docs() != 0 || tail.Phrases() != 0 {
		t.Fatalf("DropOldest(all) left docs=%d phrases=%d", tail.Docs(), tail.Phrases())
	}
}

func TestStats(t *testing.T) {
	tail := mustTail(t, Config{})
	addText(tail, "neural phrase mining", nil)
	st := tail.Stats()
	if st.Docs != 1 || st.Phrases == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if st.SketchBytes == 0 {
		t.Error("SketchBytes must be non-zero")
	}
	if st.ExactThreshold != DefaultExactThreshold {
		t.Errorf("ExactThreshold = %d, want default %d", st.ExactThreshold, DefaultExactThreshold)
	}
}
