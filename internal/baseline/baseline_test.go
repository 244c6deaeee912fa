package baseline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
)

// fixture is a randomly generated corpus with aligned phrase postings and
// forward lists, the shared substrate of all baselines.
type fixture struct {
	corpus     *corpus.Corpus
	inverted   *corpus.Inverted
	phraseDocs [][]corpus.DocID
	forward    [][]phrasedict.PhraseID
	phraseDF   []uint32
}

// makeFixture builds numDocs documents over a small word vocabulary and
// numPhrases phrases with random postings.
func makeFixture(rng *rand.Rand, numDocs, vocab, numPhrases int) *fixture {
	c := corpus.New()
	for d := 0; d < numDocs; d++ {
		n := 3 + rng.Intn(8)
		tokens := make([]string, n)
		for i := range tokens {
			tokens[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
		}
		c.Add(corpus.Document{Tokens: tokens})
	}
	f := &fixture{
		corpus:     c,
		inverted:   mustInverted(c),
		phraseDocs: make([][]corpus.DocID, numPhrases),
		forward:    make([][]phrasedict.PhraseID, numDocs),
		phraseDF:   make([]uint32, numPhrases),
	}
	for p := 0; p < numPhrases; p++ {
		df := 1 + rng.Intn(numDocs/2+1)
		seen := map[corpus.DocID]bool{}
		for len(seen) < df {
			seen[corpus.DocID(rng.Intn(numDocs))] = true
		}
		docs := make([]corpus.DocID, 0, df)
		for d := range seen {
			docs = append(docs, d)
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		f.phraseDocs[p] = docs
		f.phraseDF[p] = uint32(df)
		for _, d := range docs {
			f.forward[d] = append(f.forward[d], phrasedict.PhraseID(p))
		}
	}
	// Forward lists were appended in increasing phrase order already
	// (outer loop over p), so they are sorted.
	return f
}

func (f *fixture) gm(t *testing.T) *GM {
	t.Helper()
	g, err := NewGM(f.inverted, f.forward, f.phraseDF)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (f *fixture) exact(t *testing.T) *Exact {
	t.Helper()
	e, err := NewExact(f.inverted, f.phraseDocs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (f *fixture) randomQuery(rng *rand.Rand, vocab int) corpus.Query {
	n := 1 + rng.Intn(4)
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
	}
	op := corpus.OpOR
	if rng.Intn(2) == 0 {
		op = corpus.OpAND
	}
	return corpus.NewQuery(op, words...)
}

func scoredIDs(rs []Scored) []phrasedict.PhraseID {
	out := make([]phrasedict.PhraseID, len(rs))
	for i, r := range rs {
		out[i] = r.Phrase
	}
	return out
}

func TestGMAgainstExactRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const vocab = 12
	f := makeFixture(rng, 120, vocab, 80)
	g := f.gm(t)
	e := f.exact(t)
	for trial := 0; trial < 150; trial++ {
		q := f.randomQuery(rng, vocab)
		k := 1 + rng.Intn(8)
		gmRes, _, err := g.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exRes, err := e.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gmRes, exRes) {
			t.Fatalf("trial %d (%v k=%d): GM %v != Exact %v", trial, q, k, gmRes, exRes)
		}
	}
}

func TestGMKnownCorpus(t *testing.T) {
	// 4 docs; phrase 0 in docs {0,1}, phrase 1 in {0,1,2,3}, phrase 2 in {3}.
	c := corpus.New()
	c.Add(corpus.Document{Tokens: []string{"trade", "pact"}})   // 0
	c.Add(corpus.Document{Tokens: []string{"trade", "pact"}})   // 1
	c.Add(corpus.Document{Tokens: []string{"trade"}})           // 2
	c.Add(corpus.Document{Tokens: []string{"farm", "exports"}}) // 3
	ix := mustInverted(c)
	forward := [][]phrasedict.PhraseID{{0, 1}, {0, 1}, {1}, {1, 2}}
	df := []uint32{2, 4, 1}
	g, err := NewGM(ix, forward, df)
	if err != nil {
		t.Fatal(err)
	}
	// D'(trade) = {0,1,2}: phrase 0 freq 2/df 2 = 1.0; phrase 1 freq 3/4 = 0.75.
	got, stats, err := g.TopK(corpus.NewQuery(corpus.OpOR, "trade"), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Scored{{Phrase: 0, Score: 1.0, Freq: 2}, {Phrase: 1, Score: 0.75, Freq: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GM = %v, want %v", got, want)
	}
	if stats.DocsScanned != 3 || stats.ForwardEntries != 5 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestGMCountsResetBetweenQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := makeFixture(rng, 50, 8, 30)
	g := f.gm(t)
	q := corpus.NewQuery(corpus.OpOR, "w1", "w2")
	first, _, err := g.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := g.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeat query differs: %v vs %v", first, second)
	}
}

func TestGMClone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := makeFixture(rng, 40, 8, 30)
	g := f.gm(t)
	clone := g.Clone()
	q := corpus.NewQuery(corpus.OpAND, "w0", "w1")
	a, _, err := g.TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := clone.TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("clone disagrees with original")
	}
}

func TestGMValidation(t *testing.T) {
	if _, err := NewGM(nil, nil, nil); err == nil {
		t.Fatal("nil inverted should error")
	}
	c := corpus.New()
	c.Add(corpus.Document{Tokens: []string{"a"}})
	ix := mustInverted(c)
	if _, err := NewGM(ix, nil, nil); err == nil {
		t.Fatal("mismatched forward index should error")
	}
	g, err := NewGM(ix, make([][]phrasedict.PhraseID, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.TopK(corpus.NewQuery(corpus.OpOR, "a"), 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestExactEmptySubCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := makeFixture(rng, 30, 6, 20)
	e := f.exact(t)
	res, err := e.TopK(corpus.NewQuery(corpus.OpAND, "nonexistent-word"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results for empty D': %v", res)
	}
}

func TestExactInterestingness(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	f := makeFixture(rng, 60, 8, 40)
	e := f.exact(t)
	q := corpus.NewQuery(corpus.OpOR, "w0", "w3")
	dPrime, err := e.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	set := corpus.BitmapFromList(dPrime, f.corpus.Len())
	top, err := e.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range top {
		if got := e.Interestingness(s.Phrase, set); got != s.Score {
			t.Fatalf("Interestingness(%d) = %v, TopK said %v", s.Phrase, got, s.Score)
		}
	}
	// Out-of-range phrase scores 0.
	if e.Interestingness(phrasedict.PhraseID(1<<30), set) != 0 {
		t.Fatal("out-of-range phrase should score 0")
	}
}

func TestTopKHeapOrderingAndBounds(t *testing.T) {
	h := newTopKHeap(3)
	for i, s := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		h.offer(Scored{Phrase: phrasedict.PhraseID(i), Score: s})
	}
	got := h.sorted()
	if len(got) != 3 {
		t.Fatalf("heap kept %d", len(got))
	}
	wantScores := []float64{0.9, 0.7, 0.5}
	for i := range got {
		if got[i].Score != wantScores[i] {
			t.Fatalf("heap order = %v", got)
		}
	}
}

func TestTopKHeapTies(t *testing.T) {
	h := newTopKHeap(2)
	h.offer(Scored{Phrase: 9, Score: 0.5})
	h.offer(Scored{Phrase: 1, Score: 0.5})
	h.offer(Scored{Phrase: 5, Score: 0.5})
	got := h.sorted()
	// Ties resolve to ascending phrase IDs: {1, 5}.
	if got[0].Phrase != 1 || got[1].Phrase != 5 {
		t.Fatalf("tie handling = %v", got)
	}
}
