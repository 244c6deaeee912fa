package plist

import (
	"math"
	"reflect"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
)

// buildTinySource creates a 6-document corpus with a known phrase layout:
//
//	phrase 0 "economic minister": docs {0, 1, 2}
//	phrase 1 "trade reserves":    docs {0, 3}
//	phrase 2 "query optimizer":   docs {4, 5}
//
// and words: trade {0,1,3}, reserves {0,2,3}, minister {1,2}, query {4,5}.
func buildTinySource(t *testing.T) *Source {
	t.Helper()
	c := corpus.New()
	add := func(tokens ...string) { c.Add(corpus.Document{Tokens: tokens}) }
	add("trade", "reserves")    // 0
	add("trade", "minister")    // 1
	add("reserves", "minister") // 2
	add("trade", "reserves")    // 3
	add("query")                // 4
	add("query")                // 5
	ix, err := corpus.BuildInverted(c)
	if err != nil {
		t.Fatal(err)
	}

	forward := [][]phrasedict.PhraseID{
		{0, 1}, // doc 0
		{0},    // doc 1
		{0},    // doc 2
		{1},    // doc 3
		{2},    // doc 4
		{2},    // doc 5
	}
	return &Source{
		Inverted:      ix,
		Forward:       forward,
		PhraseDocFreq: []uint32{3, 2, 2},
	}
}

// mustScoreList builds one word's score list, failing the test on decode
// errors (impossible on these heap-resident fixtures).
func mustScoreList(t *testing.T, src *Source, word string) ScoreList {
	t.Helper()
	lists, err := BuildListsParallel(src, []string{word}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lists[word]
}

func TestBuildScoreListProbabilities(t *testing.T) {
	src := buildTinySource(t)
	// P(trade|p0) = |{0,1,3} ∩ {0,1,2}| / 3 = 2/3
	// P(trade|p1) = |{0,1,3} ∩ {0,3}| / 2 = 1
	// P(trade|p2) = 0 -> omitted
	l := mustScoreList(t, src, "trade")
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	want := ScoreList{entry(1, 1.0), entry(0, 2.0/3.0)}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("list(trade) = %v, want %v", l, want)
	}
}

func TestBuildScoreListOmitsZeroProb(t *testing.T) {
	src := buildTinySource(t)
	l := mustScoreList(t, src, "query")
	// Only phrase 2 co-occurs with "query": P = 2/2 = 1.
	want := ScoreList{entry(2, 1.0)}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("list(query) = %v, want %v", l, want)
	}
}

func TestBuildScoreListUnknownWord(t *testing.T) {
	src := buildTinySource(t)
	if l := mustScoreList(t, src, "absent"); l != nil {
		t.Fatalf("list(absent) = %v, want nil", l)
	}
}

// referenceScoreList is the map-based oracle for one feature's list: count
// co-occurrences through the forward lists into a map, divide, sort.
func referenceScoreList(t *testing.T, src *Source, feature string) ScoreList {
	t.Helper()
	docs, err := src.Inverted.Docs(feature)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[phrasedict.PhraseID]uint32)
	for _, doc := range docs {
		for _, p := range src.Forward[doc] {
			counts[p]++
		}
	}
	var out ScoreList
	for p, co := range counts {
		if df := src.PhraseDocFreq[p]; df > 0 {
			out = append(out, Entry{Phrase: p, Prob: float64(co) / float64(df)})
		}
	}
	SortScoreOrder(out)
	return out
}

func TestBuildListsMatchesSingle(t *testing.T) {
	src := buildTinySource(t)
	words := []string{"trade", "reserves", "minister", "query", "absent"}
	all, err := BuildListsParallel(src, words, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		if want := referenceScoreList(t, src, w); !reflect.DeepEqual(all[w], want) {
			t.Fatalf("batch[%s] = %v, reference = %v", w, all[w], want)
		}
		if single := mustScoreList(t, src, w); !reflect.DeepEqual(all[w], single) {
			t.Fatalf("batch[%s] = %v, single = %v", w, all[w], single)
		}
	}
}

func TestBuildListsFullVocabulary(t *testing.T) {
	src := buildTinySource(t)
	all, err := BuildListsParallel(src, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != src.Inverted.VocabSize() {
		t.Fatalf("full build covered %d words, want %d", len(all), src.Inverted.VocabSize())
	}
	for w, l := range all {
		if err := l.Validate(); err != nil {
			t.Fatalf("list %q invalid: %v", w, err)
		}
	}
}

func TestBuildListsDuplicateWords(t *testing.T) {
	src := buildTinySource(t)
	all, err := BuildListsParallel(src, []string{"trade", "trade"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("duplicate words produced %d lists", len(all))
	}
}

func TestBuildListsProbabilityInvariants(t *testing.T) {
	src := buildTinySource(t)
	all, err := BuildListsParallel(src, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w, l := range all {
		for _, e := range l {
			if e.Prob <= 0 || e.Prob > 1 || math.IsNaN(e.Prob) {
				t.Fatalf("list %q has out-of-range prob %v", w, e.Prob)
			}
			// Cross-check against direct set computation (Eq. 13).
			df := src.PhraseDocFreq[e.Phrase]
			co := 0
			docs, err := src.Inverted.Docs(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				for _, p := range src.Forward[d] {
					if p == e.Phrase {
						co++
					}
				}
			}
			want := float64(co) / float64(df)
			if e.Prob != want {
				t.Fatalf("list %q phrase %d: prob %v, want %v", w, e.Phrase, e.Prob, want)
			}
		}
	}
}

func TestSourceValidate(t *testing.T) {
	src := buildTinySource(t)
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *src
	bad.Forward = src.Forward[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("short forward index should fail validation")
	}
	bad2 := *src
	bad2.Forward = [][]phrasedict.PhraseID{{99}, {}, {}, {}, {}, {}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range phrase should fail validation")
	}
	bad3 := *src
	bad3.Forward = [][]phrasedict.PhraseID{{1, 0}, {}, {}, {}, {}, {}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("unsorted forward list should fail validation")
	}
	var nilSrc Source
	if err := nilSrc.Validate(); err == nil {
		t.Fatal("nil inverted index should fail validation")
	}
}

func TestTruncateAllAndIDOrderAll(t *testing.T) {
	src := buildTinySource(t)
	all, err := BuildListsParallel(src, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := TruncateAll(all, 0.5)
	for w, l := range half {
		if full := all[w]; len(full) > 0 {
			wantLen := (len(full) + 1) / 2 // ceil(0.5n)
			if len(l) != wantLen {
				t.Fatalf("TruncateAll[%s] len = %d, want %d", w, len(l), wantLen)
			}
		}
	}
	idls := ToIDOrderedAllParallel(half, 1)
	for w, l := range idls {
		if err := l.Validate(); err != nil {
			t.Fatalf("ID list %q invalid: %v", w, err)
		}
		if len(l) != len(half[w]) {
			t.Fatalf("ID list %q length changed", w)
		}
	}
}
