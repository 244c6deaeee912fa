package textproc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tokensOf builds a tiny corpus from space-separated strings.
func tokensOf(docs ...string) [][]string {
	out := make([][]string, len(docs))
	var tok Tokenizer
	for i, d := range docs {
		out[i] = tok.Tokenize(d)
	}
	return out
}

func statsByPhrase(stats []PhraseStats) map[string]PhraseStats {
	m := make(map[string]PhraseStats, len(stats))
	for _, s := range stats {
		m[s.Phrase] = s
	}
	return m
}

func TestExtractBasicCounts(t *testing.T) {
	docs := tokensOf(
		"query optimization in databases",
		"query optimization is hard",
		"query optimization rules",
		"databases love query optimization",
	)
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 3, MaxWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhrase(stats)
	qo, ok := m["query optimization"]
	if !ok {
		t.Fatal("phrase 'query optimization' not extracted")
	}
	if qo.DocFreq != 4 {
		t.Fatalf("docfreq(query optimization) = %d, want 4", qo.DocFreq)
	}
	if !reflect.DeepEqual(qo.Docs, []int{0, 1, 2, 3}) {
		t.Fatalf("docs = %v", qo.Docs)
	}
	if _, ok := m["optimization rules"]; ok {
		t.Fatal("'optimization rules' (docfreq 1) should be below threshold")
	}
}

func TestExtractMinDocFreqBoundary(t *testing.T) {
	docs := tokensOf("alpha beta", "alpha beta", "alpha gamma")
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 2, MaxWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhrase(stats)
	if _, ok := m["alpha beta"]; !ok {
		t.Error("'alpha beta' at exactly the threshold should be kept")
	}
	if _, ok := m["alpha gamma"]; ok {
		t.Error("'alpha gamma' below threshold should be dropped")
	}
	if got := m["alpha"].DocFreq; got != 3 {
		t.Errorf("docfreq(alpha) = %d, want 3", got)
	}
}

func TestExtractDocFreqNotOccurrenceFreq(t *testing.T) {
	// "x y" appears twice inside one doc but that is one document.
	docs := tokensOf("x y and x y again", "x y")
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 2, MaxWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhrase(stats)
	if got := m["x y"].DocFreq; got != 2 {
		t.Fatalf("docfreq(x y) = %d, want 2 (distinct docs)", got)
	}
}

func TestExtractRespectsSentenceBreaks(t *testing.T) {
	tok := Tokenizer{EmitSentenceBreaks: true}
	docs := [][]string{
		tok.Tokenize("trade ends. reserves fall"),
		tok.Tokenize("trade ends. reserves fall"),
	}
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 2, MaxWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhrase(stats)
	if _, ok := m["ends reserves"]; ok {
		t.Fatal("n-gram crossed a sentence boundary")
	}
	if _, ok := m["trade ends"]; !ok {
		t.Fatal("'trade ends' should be extracted")
	}
}

func TestExtractMaxWordsCap(t *testing.T) {
	line := "a1 a2 a3 a4 a5 a6 a7 a8"
	docs := tokensOf(line, line, line, line, line)
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 5, MaxWords: 6})
	if err != nil {
		t.Fatal(err)
	}
	maxWords := 0
	for _, s := range stats {
		if s.Words > maxWords {
			maxWords = s.Words
		}
	}
	if maxWords != 6 {
		t.Fatalf("longest extracted phrase has %d words, want 6", maxWords)
	}
}

func TestExtractMinWordsFloor(t *testing.T) {
	docs := tokensOf("a b c", "a b c", "a b c")
	stats, err := Extract(docs, ExtractorOptions{MinWords: 2, MinDocFreq: 3, MaxWords: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Words < 2 {
			t.Fatalf("unigram %q leaked despite MinWords=2", s.Phrase)
		}
	}
}

func TestExtractDropAllStopwordPhrases(t *testing.T) {
	docs := tokensOf("of the trade", "of the trade", "of the trade", "of the trade", "of the trade")
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 5, MaxWords: 2, DropAllStopwordPhrases: true})
	if err != nil {
		t.Fatal(err)
	}
	m := statsByPhrase(stats)
	if _, ok := m["of the"]; ok {
		t.Error("all-stopword phrase 'of the' should be dropped")
	}
	if _, ok := m["the trade"]; !ok {
		t.Error("'the trade' contains a content word and should be kept")
	}
}

func TestExtractMaxPhraseBytes(t *testing.T) {
	long := "verylongtokennumberone verylongtokennumbertwo verylongtokennumberthree"
	docs := tokensOf(long, long, long, long, long)
	stats, err := Extract(docs, ExtractorOptions{MinDocFreq: 5, MaxWords: 3, MaxPhraseBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if len(s.Phrase) > 50 {
			t.Fatalf("phrase %q exceeds 50 bytes", s.Phrase)
		}
	}
}

func TestExtractDeterministicOrder(t *testing.T) {
	docs := tokensOf(
		"b a c", "b a c", "b a c",
		"z y", "z y", "z y",
	)
	a, err := Extract(docs, ExtractorOptions{MinDocFreq: 3, MaxWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(docs, ExtractorOptions{MinDocFreq: 3, MaxWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Extract is not deterministic")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool {
		if a[i].Words != a[j].Words {
			return a[i].Words < a[j].Words
		}
		return a[i].Phrase < a[j].Phrase
	}) {
		t.Fatal("Extract output is not sorted by (words, phrase)")
	}
}

func TestExtractValidate(t *testing.T) {
	_, err := Extract(nil, ExtractorOptions{MinWords: 4, MaxWords: 2})
	if err == nil {
		t.Fatal("expected error for MinWords > MaxWords")
	}
}

func TestExtractEmptyCorpus(t *testing.T) {
	stats, err := Extract(nil, ExtractorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 {
		t.Fatalf("Extract(nil) = %d phrases, want 0", len(stats))
	}
}

// naiveExtract is an O(everything) reference implementation used to verify
// the Apriori-pruned extractor on random corpora.
func naiveExtract(docs [][]string, minDF, maxWords int) map[string][]int {
	found := make(map[string]map[int]struct{})
	for docIdx, tokens := range docs {
		for n := 1; n <= maxWords; n++ {
			for s := 0; s+n <= len(tokens); s++ {
				window := tokens[s : s+n]
				if ContainsBreak(window) {
					continue
				}
				p := JoinPhrase(window)
				if found[p] == nil {
					found[p] = make(map[int]struct{})
				}
				found[p][docIdx] = struct{}{}
			}
		}
	}
	out := make(map[string][]int)
	for p, set := range found {
		if len(set) < minDF {
			continue
		}
		var list []int
		for d := range set {
			list = append(list, d)
		}
		sort.Ints(list)
		out[p] = list
	}
	return out
}

// Property: the level-wise extractor agrees exactly with the naive one on
// random corpora.
func TestExtractMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nDocs := 5 + rng.Intn(20)
		vocab := 3 + rng.Intn(8)
		docs := make([][]string, nDocs)
		for i := range docs {
			docLen := 1 + rng.Intn(30)
			toks := make([]string, docLen)
			for j := range toks {
				toks[j] = fmt.Sprintf("w%d", rng.Intn(vocab))
			}
			docs[i] = toks
		}
		minDF := 1 + rng.Intn(4)
		maxWords := 1 + rng.Intn(5)

		want := naiveExtract(docs, minDF, maxWords)
		got, err := Extract(docs, ExtractorOptions{MinDocFreq: minDF, MaxWords: maxWords, MaxPhraseBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		gotMap := make(map[string][]int, len(got))
		for _, s := range got {
			gotMap[s.Phrase] = s.Docs
		}
		if !reflect.DeepEqual(gotMap, want) {
			t.Fatalf("trial %d: extractor disagrees with naive reference\n got: %v\nwant: %v",
				trial, gotMap, want)
		}
	}
}
