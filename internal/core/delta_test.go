package core

import (
	"math"
	"reflect"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// deltaFixture builds a tiny hand-written corpus where probabilities can be
// verified by inspection. Phrase universe with MinDocFreq=2 over:
//
//	doc 0: alpha beta gamma
//	doc 1: alpha beta delta
//	doc 2: alpha gamma
//	doc 3: beta gamma
//
// yields unigrams alpha{0,1,2}, beta{0,1,3}, gamma{0,2,3}, and the bigram
// "alpha beta"{0,1}.
func deltaFixture(t *testing.T) *Index {
	t.Helper()
	c := corpus.New()
	add := func(tokens ...string) { c.Add(corpus.Document{Tokens: tokens}) }
	add("alpha", "beta", "gamma")
	add("alpha", "beta", "delta")
	add("alpha", "gamma")
	add("beta", "gamma")
	ix, err := Build(c, BuildOptions{
		Extractor: textproc.ExtractorOptions{MinWords: 1, MaxWords: 3, MinDocFreq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDeltaAddDocumentAdjustsProbabilities(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)

	abID, ok := mustID(ix.Dict, "alpha beta")
	if !ok {
		t.Fatal("bigram missing from dictionary")
	}
	// Base: P(gamma | alpha beta) = |{0,1} ∩ {0,2,3}| / 2 = 1/2.
	if got := d.adjusted(d.dCo["gamma"], abID, 0.5); got != 0.5 {
		t.Fatalf("no-op delta changed probability: %v", got)
	}

	// Add a doc containing both "alpha beta" and "gamma":
	// df(alpha beta) 2->3, co(gamma, alpha beta) 1->2 => 2/3.
	d.AddDocument(corpus.Document{Tokens: []string{"alpha", "beta", "gamma"}})
	if d.Size() != 1 {
		t.Fatalf("Size = %d", d.Size())
	}
	got := d.adjusted(d.dCo["gamma"], abID, 0.5)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("adjusted P(gamma|alpha beta) = %v, want 2/3", got)
	}
}

func TestDeltaRemoveDocumentAdjustsProbabilities(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	abID, _ := mustID(ix.Dict, "alpha beta")

	// Remove doc 0 (contains alpha beta and gamma):
	// df(alpha beta) 2->1, co(gamma, alpha beta) 1->0 => 0.
	if err := d.RemoveDocument(0); err != nil {
		t.Fatal(err)
	}
	if got := d.adjusted(d.dCo["gamma"], abID, 0.5); got != 0 {
		t.Fatalf("adjusted prob = %v, want 0", got)
	}
	// co(delta, alpha beta) stays 1 while df drops to 1 => 1.
	if got := d.adjusted(d.dCo["delta"], abID, 0.5); got != 1 {
		t.Fatalf("adjusted P(delta|alpha beta) = %v, want 1", got)
	}
}

func TestDeltaRemoveValidation(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	if err := d.RemoveDocument(99); err == nil {
		t.Fatal("out-of-range removal should error")
	}
	if err := d.RemoveDocument(1); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveDocument(1); err == nil {
		t.Fatal("double removal should error")
	}
}

func TestDeltaQueriesMatchFlushedIndex(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	// A few updates that only touch existing phrases.
	d.AddDocument(corpus.Document{Tokens: []string{"alpha", "beta", "gamma"}})
	d.AddDocument(corpus.Document{Tokens: []string{"beta", "gamma"}})
	if err := d.RemoveDocument(2); err != nil {
		t.Fatal(err)
	}

	flushed, err := d.Flush()
	if err != nil {
		t.Fatal(err)
	}

	// Compare phrase->score maps over the BASE dictionary's phrases with
	// a large K: phrase IDs differ between the two dictionaries (so
	// rank-order tie-breaks may differ) and the flushed index mints new
	// phrases the delta cannot know about, but every base phrase's
	// adjusted score must equal its recomputed score exactly.
	const bigK = 100
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		q := corpus.NewQuery(op, "alpha", "beta")
		adjusted, _, err := d.QuerySMJ(mustSMJ(ix, 1.0), q, topk.SMJOptions{K: bigK})
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := flushed.QuerySMJ(mustSMJ(flushed, 1.0), q, topk.SMJOptions{K: bigK})
		if err != nil {
			t.Fatal(err)
		}
		adjScores := scoreMap(t, ix, adjusted)
		freshScores := scoreMap(t, flushed, fresh)
		for text := range freshScores {
			if _, ok := mustID(ix.Dict, text); !ok {
				delete(freshScores, text) // phrase minted at flush
			}
		}
		if len(adjScores) != len(freshScores) {
			t.Fatalf("%v: candidate sets differ: %v vs %v", q, adjScores, freshScores)
		}
		for text, want := range freshScores {
			got, ok := adjScores[text]
			if !ok {
				t.Fatalf("%v: delta run missing %q", q, text)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v: score(%q) = %v, flushed %v", q, text, got, want)
			}
		}
	}
}

func scoreMap(t *testing.T, ix *Index, rs []topk.Result) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(rs))
	for _, r := range rs {
		text, err := ix.PhraseText(r.Phrase)
		if err != nil {
			t.Fatal(err)
		}
		out[text] = r.Score
	}
	return out
}

func TestDeltaFlushIncorporatesNewDocuments(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	// Add enough new docs to mint a brand-new phrase "zeta eta".
	for i := 0; i < 3; i++ {
		d.AddDocument(corpus.Document{Tokens: []string{"zeta", "eta"}})
	}
	flushed, err := d.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if flushed.Corpus.Len() != ix.Corpus.Len()+3 {
		t.Fatalf("flushed corpus has %d docs", flushed.Corpus.Len())
	}
	if _, ok := mustID(flushed.Dict, "zeta eta"); !ok {
		t.Fatal("flush did not mint the new phrase")
	}
	// The delta itself cannot see the new phrase (paper semantics).
	if _, ok := mustID(ix.Dict, "zeta eta"); ok {
		t.Fatal("base dictionary mutated")
	}
}

func TestDeltaProbClamping(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	abID, _ := mustID(ix.Dict, "alpha beta")
	// Remove both docs containing the bigram: df -> 0.
	if err := d.RemoveDocument(0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveDocument(1); err != nil {
		t.Fatal(err)
	}
	if got := d.adjusted(d.dCo["alpha"], abID, 1.0); got != 0 {
		t.Fatalf("df=0 should clamp to 0, got %v", got)
	}
}

// TestDeltaFreezeBuildRebase pins the off-lock flush seam: a frozen view
// builds exactly the updates made before the freeze, Rebase carries the
// later additions over to the rebuilt index (answering like a fresh delta
// holding just those), and a removal after the freeze is refused.
func TestDeltaFreezeBuildRebase(t *testing.T) {
	ix := deltaFixture(t)
	d := mustDelta(ix)
	before := corpus.Document{Tokens: []string{"zeta", "eta"}}
	after := corpus.Document{Tokens: []string{"alpha", "beta", "gamma"}}
	for i := 0; i < 3; i++ {
		if err := d.AddDocument(before); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RemoveDocument(1); err != nil {
		t.Fatal(err)
	}
	frozen := d.Freeze()
	if err := d.AddDocument(after); err != nil {
		t.Fatal(err)
	}
	built, err := frozen.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := built.Corpus.Len(), ix.Corpus.Len()-1+3; got != want || frozen.Added() != 3 {
		t.Fatalf("frozen build has %d docs (%d additions), want %d (3)", got, frozen.Added(), want)
	}
	next, err := d.Rebase(built, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if next.Size() != 1 {
		t.Fatalf("rebased delta holds %d updates, want the 1 addition after the freeze", next.Size())
	}
	fresh := mustDelta(built)
	if err := fresh.AddDocument(after); err != nil {
		t.Fatal(err)
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		q := corpus.NewQuery(op, "alpha", "beta")
		got, _, err := next.QueryNRA(q, topk.NRAOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.QueryNRA(q, topk.NRAOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: rebased delta answers %v, fresh delta %v", q, got, want)
		}
	}

	if err := d.RemoveDocument(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rebase(built, frozen); err == nil {
		t.Fatal("Rebase accepted a removal made after the freeze")
	}
}
