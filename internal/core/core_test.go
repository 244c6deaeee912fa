package core

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/synth"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// testIndex builds a small but realistic index once per test binary.
var sharedIndex *Index

func getIndex(t *testing.T) *Index {
	t.Helper()
	if sharedIndex != nil {
		return sharedIndex
	}
	cfg := synth.ReutersLike().Scale(0.02) // ~430 docs
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(c, BuildOptions{
		Extractor: textproc.ExtractorOptions{MinWords: 1, MaxWords: 6, MinDocFreq: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedIndex = ix
	return ix
}

// someQuery returns a query whose features all occur in the corpus.
func someQuery(t *testing.T, ix *Index, op corpus.Operator, nWords int) corpus.Query {
	t.Helper()
	// Use the most frequent plain-word features (skip facets).
	var words []string
	for _, f := range ix.Inverted.TopFeaturesByDocFreq(50) {
		if !bytes.ContainsRune([]byte(f), ':') {
			words = append(words, f)
		}
		if len(words) == nWords {
			break
		}
	}
	if len(words) < nWords {
		t.Fatalf("not enough words for a %d-word query", nWords)
	}
	return corpus.NewQuery(op, words...)
}

func TestBuildStructuralInvariants(t *testing.T) {
	ix := getIndex(t)
	if ix.NumPhrases() == 0 {
		t.Fatal("no phrases extracted")
	}
	if len(ix.PhraseDocs) != ix.NumPhrases() || len(ix.PhraseDF) != ix.NumPhrases() {
		t.Fatal("phrase table sizes disagree")
	}
	// DF matches postings; postings sorted.
	for p, docs := range ix.PhraseDocs {
		if int(ix.PhraseDF[p]) != len(docs) {
			t.Fatalf("phrase %d: DF %d != |docs| %d", p, ix.PhraseDF[p], len(docs))
		}
		for i := 1; i < len(docs); i++ {
			if docs[i-1] >= docs[i] {
				t.Fatalf("phrase %d postings unsorted", p)
			}
		}
	}
	// Forward lists sorted, and every phrase occurrence is reflected.
	entries := 0
	for d, phrases := range ix.Forward {
		for i := 1; i < len(phrases); i++ {
			if phrases[i-1] >= phrases[i] {
				t.Fatalf("doc %d forward list unsorted", d)
			}
		}
		entries += len(phrases)
	}
	total := 0
	for _, docs := range ix.PhraseDocs {
		total += len(docs)
	}
	if entries != total {
		t.Fatalf("forward entries %d != posting entries %d", entries, total)
	}
	// Dictionary round-trips.
	for p := 0; p < ix.NumPhrases(); p += 97 {
		text, err := ix.PhraseText(phrasedict.PhraseID(p))
		if err != nil {
			t.Fatal(err)
		}
		id, ok := mustID(ix.Dict, text)
		if !ok || id != phrasedict.PhraseID(p) {
			t.Fatalf("dict round trip failed for %d (%q)", p, text)
		}
	}
}

func TestBuildRejectsEmptyCorpus(t *testing.T) {
	if _, err := Build(corpus.New(), BuildOptions{}); err == nil {
		t.Fatal("empty corpus should error")
	}
	if _, err := Build(nil, BuildOptions{}); err == nil {
		t.Fatal("nil corpus should error")
	}
}

func TestListsMatchEq13(t *testing.T) {
	ix := getIndex(t)
	// Spot-check P(q|p) = |docs(q) ∩ docs(p)| / |docs(p)| on a frequent
	// word.
	q := someQuery(t, ix, corpus.OpOR, 1)
	word := q.Features[0]
	wordList, err := ix.Inverted.Docs(word)
	if err != nil {
		t.Fatal(err)
	}
	wordDocs := corpus.BitmapFromList(wordList, ix.Corpus.Len())
	list := ix.Lists[word]
	if len(list) == 0 {
		t.Fatalf("no list for %q", word)
	}
	for _, e := range list[:min(len(list), 200)] {
		co := wordDocs.IntersectCountList(ix.PhraseDocs[e.Phrase])
		want := float64(co) / float64(ix.PhraseDF[e.Phrase])
		if math.Abs(e.Prob-want) > 1e-12 {
			t.Fatalf("P(%s|%d) = %v, want %v", word, e.Phrase, e.Prob, want)
		}
	}
}

func TestNRAvsSMJvsFullAggregation(t *testing.T) {
	ix := getIndex(t)
	smjFull := mustSMJ(ix, 1.0)
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, n := range []int{2, 3} {
			q := someQuery(t, ix, op, n)
			nra, _, err := ix.QueryNRA(q, topk.NRAOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			smj, _, err := ix.QuerySMJ(smjFull, q, topk.SMJOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			a := idSet(nra)
			b := idSet(smj)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: NRA set %v != SMJ set %v", q, a, b)
			}
		}
	}
}

func idSet(rs []topk.Result) []phrasedict.PhraseID {
	out := make([]phrasedict.PhraseID, len(rs))
	for i, r := range rs {
		out[i] = r.Phrase
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGMAndExactAgreeOnRealCorpus(t *testing.T) {
	ix := getIndex(t)
	g, err := ix.GM()
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Exact()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		q := someQuery(t, ix, op, 2)
		gr, _, err := g.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		er, err := e.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr, er) {
			t.Fatalf("%v: GM %v != Exact %v", q, gr, er)
		}
	}
}

func TestQueryUnknownWordFullBuild(t *testing.T) {
	ix := getIndex(t)
	q := corpus.NewQuery(corpus.OpOR, "zzzz-not-a-word")
	res, _, err := ix.QueryNRA(q, topk.NRAOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results for unknown word: %v", res)
	}
}

func TestRestrictedBuildErrorsOnUncoveredFeature(t *testing.T) {
	cfg := synth.ReutersLike().Scale(0.005)
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(c, BuildOptions{
		Extractor: textproc.ExtractorOptions{MinDocFreq: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := full.Inverted.TopFeaturesByDocFreq(3)
	uncovered := full.Inverted.TopFeaturesByDocFreq(10)[9]
	ix, err := Build(c, BuildOptions{
		Extractor:    textproc.ExtractorOptions{MinDocFreq: 3},
		ListFeatures: covered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.QueryNRA(corpus.NewQuery(corpus.OpOR, covered[0]), topk.NRAOptions{K: 3}); err != nil {
		t.Fatalf("covered feature should work: %v", err)
	}
	if _, _, err := ix.QueryNRA(corpus.NewQuery(corpus.OpOR, uncovered), topk.NRAOptions{K: 3}); err == nil {
		t.Fatal("uncovered existing feature should error under restricted build")
	}
}

func TestResolveAttachesTextAndEstimate(t *testing.T) {
	ix := getIndex(t)
	q := someQuery(t, ix, corpus.OpOR, 2)
	res, _, err := ix.QueryNRA(q, topk.NRAOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := ix.Resolve(res, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != len(res) {
		t.Fatal("Resolve changed cardinality")
	}
	for i, m := range mined {
		if m.Phrase == "" {
			t.Fatalf("result %d has empty phrase text", i)
		}
		if m.Estimate < 0 {
			t.Fatalf("negative interestingness estimate: %+v", m)
		}
		if m.ID != res[i].Phrase {
			t.Fatal("Resolve reordered results")
		}
	}
}

func TestIndexSizeAccounting(t *testing.T) {
	ix := getIndex(t)
	full := ix.ListIndexSize(1.0)
	half := ix.ListIndexSize(0.5)
	tenth := ix.ListIndexSize(0.1)
	if !(tenth < half && half < full) {
		t.Fatalf("sizes not monotone: %d, %d, %d", tenth, half, full)
	}
	if full == 0 {
		t.Fatal("full index size is zero")
	}
	if est := ix.EstimateFullIndexSize(1.0); est < full {
		// The estimate extrapolates the built features' average list
		// length to the whole vocabulary, so with a full-vocabulary
		// build it equals the true size (within rounding).
		diff := math.Abs(float64(est - full))
		if diff/float64(full) > 0.01 {
			t.Fatalf("full-build estimate %d far from true %d", est, full)
		}
	}
}

func TestPhraseDictRoundTrip(t *testing.T) {
	ix := getIndex(t)
	var buf bytes.Buffer
	if _, err := ix.Dict.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := phrasedict.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != ix.NumPhrases() {
		t.Fatalf("reloaded dict has %d phrases, want %d", d2.Len(), ix.NumPhrases())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSMJCacheConcurrentFractions hammers Index.SMJ from several goroutines
// at once over more fractions than the cache keeps, so slots are created,
// built under their Once and evicted while other queries still read them.
// Every answer must equal the one from a privately built copy, and the
// cache must stay within its bound. Run under -race.
func TestSMJCacheConcurrentFractions(t *testing.T) {
	ix := buildTestIndex(t)
	features := ix.Inverted.TopFeaturesByDocFreq(2)
	q := corpus.NewQuery(corpus.OpOR, features...)
	fracs := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1}
	want := make([][]topk.Result, len(fracs))
	for i, frac := range fracs {
		var err error
		if want[i], _, err = ix.QuerySMJ(mustSMJ(ix, frac), q, topk.SMJOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				i := (g + round) % len(fracs)
				smj, err := ix.SMJ(fracs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := ix.QuerySMJ(smj, q, topk.SMJOptions{K: 5})
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("frac %v: got %v (err %v), want %v", fracs[i], got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := ix.MemStats().IDOrderedCopies; n != 1+MaxPartialSMJ {
		t.Fatalf("%d ID-ordered copies resident, want the cache full at %d", n, 1+MaxPartialSMJ)
	}
}
