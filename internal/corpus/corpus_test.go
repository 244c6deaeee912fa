package corpus

import (
	"reflect"
	"testing"
)

func docOf(tokens ...string) Document {
	return Document{Tokens: tokens}
}

func buildTestCorpus() (*Corpus, *Inverted) {
	c := New()
	c.Add(docOf("trade", "reserves", "minister"))          // 0
	c.Add(docOf("trade", "deficit"))                       // 1
	c.Add(docOf("reserves", "fall"))                       // 2
	c.Add(docOf("minister", "resigns"))                    // 3
	c.Add(docOf("trade", "trade", "trade"))                // 4 (dupes)
	c.Add(Document{Tokens: []string{"earnings", "report"}, // 5
		Facets: map[string]string{"venue": "sigmod", "year": "1997"}})
	return c, mustInverted(c)
}

func TestCorpusAddLenDoc(t *testing.T) {
	c := New()
	if c.Len() != 0 {
		t.Fatalf("new corpus Len = %d", c.Len())
	}
	id := mustAdd(c, docOf("a"))
	if id != 0 {
		t.Fatalf("first DocID = %d, want 0", id)
	}
	id = mustAdd(c, docOf("b"))
	if id != 1 {
		t.Fatalf("second DocID = %d, want 1", id)
	}
	d, err := c.Doc(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Tokens, []string{"b"}) {
		t.Fatalf("Doc(1).Tokens = %v", d.Tokens)
	}
	if _, err := c.Doc(2); err == nil {
		t.Fatal("Doc(2) out of range should error")
	}
}

func TestInvertedPostingsSortedDeduped(t *testing.T) {
	_, ix := buildTestCorpus()
	got := mustDocs(ix, "trade")
	want := []DocID{0, 1, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Docs(trade) = %v, want %v", got, want)
	}
	if ix.DocFreq("trade") != 3 {
		t.Fatalf("DocFreq(trade) = %d, want 3", ix.DocFreq("trade"))
	}
	if ix.DocFreq("absent") != 0 {
		t.Fatalf("DocFreq(absent) = %d, want 0", ix.DocFreq("absent"))
	}
}

func TestInvertedDuplicateTokensCountOnce(t *testing.T) {
	_, ix := buildTestCorpus()
	// Doc 4 contains "trade" three times but must appear once in postings.
	got := mustDocs(ix, "trade")
	seen := map[DocID]int{}
	for _, id := range got {
		seen[id]++
	}
	if seen[4] != 1 {
		t.Fatalf("doc 4 appears %d times in postings", seen[4])
	}
}

func TestInvertedFacets(t *testing.T) {
	_, ix := buildTestCorpus()
	if got := mustDocs(ix, FacetFeature("venue", "sigmod")); !reflect.DeepEqual(got, []DocID{5}) {
		t.Fatalf("Docs(venue:sigmod) = %v, want [5]", got)
	}
	if got := mustDocs(ix, FacetFeature("year", "1997")); !reflect.DeepEqual(got, []DocID{5}) {
		t.Fatalf("Docs(year:1997) = %v, want [5]", got)
	}
	if !ix.Has("venue:sigmod") {
		t.Fatal("Has(venue:sigmod) = false")
	}
}

func TestInvertedSentenceBreakNotIndexed(t *testing.T) {
	c := New()
	c.Add(docOf("a", "\x00", "b"))
	ix := mustInverted(c)
	if ix.Has("\x00") {
		t.Fatal("sentence break marker leaked into the index")
	}
}

func TestVocabSizeAndFeatures(t *testing.T) {
	_, ix := buildTestCorpus()
	feats := ix.Features()
	if len(feats) != ix.VocabSize() {
		t.Fatalf("Features len %d != VocabSize %d", len(feats), ix.VocabSize())
	}
	for i := 1; i < len(feats); i++ {
		if feats[i-1] >= feats[i] {
			t.Fatalf("Features not sorted: %q >= %q", feats[i-1], feats[i])
		}
	}
}

func TestTopFeaturesByDocFreq(t *testing.T) {
	_, ix := buildTestCorpus()
	top := ix.TopFeaturesByDocFreq(2)
	if len(top) != 2 {
		t.Fatalf("TopFeatures len = %d", len(top))
	}
	if top[0] != "trade" {
		t.Fatalf("most frequent feature = %q, want trade", top[0])
	}
	// Ask for more than exist.
	all := ix.TopFeaturesByDocFreq(1000)
	if len(all) != ix.VocabSize() {
		t.Fatalf("TopFeatures(1000) len = %d, want %d", len(all), ix.VocabSize())
	}
}

func TestSelectAND(t *testing.T) {
	_, ix := buildTestCorpus()
	got, err := ix.Select(NewQuery(OpAND, "trade", "reserves"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []DocID{0}) {
		t.Fatalf("Select(trade AND reserves) = %v, want [0]", got)
	}
}

func TestSelectOR(t *testing.T) {
	_, ix := buildTestCorpus()
	got, err := ix.Select(NewQuery(OpOR, "trade", "reserves"))
	if err != nil {
		t.Fatal(err)
	}
	want := []DocID{0, 1, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Select(trade OR reserves) = %v, want %v", got, want)
	}
}

func TestSelectANDNoMatch(t *testing.T) {
	_, ix := buildTestCorpus()
	got, err := ix.Select(NewQuery(OpAND, "trade", "resigns"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Select = %v, want empty", got)
	}
}

func TestSelectMixedKeywordFacet(t *testing.T) {
	_, ix := buildTestCorpus()
	got, err := ix.Select(NewQuery(OpAND, "earnings", FacetFeature("venue", "sigmod")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []DocID{5}) {
		t.Fatalf("Select = %v, want [5]", got)
	}
}

func TestSelectEmptyQueryErrors(t *testing.T) {
	_, ix := buildTestCorpus()
	if _, err := ix.Select(Query{}); err == nil {
		t.Fatal("Select(empty) should error")
	}
}

func TestNewQueryDeduplicates(t *testing.T) {
	q := NewQuery(OpAND, "a", "b", "a", "", "b")
	if !reflect.DeepEqual(q.Features, []string{"a", "b"}) {
		t.Fatalf("Features = %v, want [a b]", q.Features)
	}
}

func TestOperatorString(t *testing.T) {
	if OpAND.String() != "AND" || OpOR.String() != "OR" {
		t.Fatal("Operator.String mismatch")
	}
	if Operator(9).String() == "" {
		t.Fatal("unknown operator should still render")
	}
}

func TestQueryString(t *testing.T) {
	q := NewQuery(OpAND, "trade", "reserves")
	if got := q.String(); got != "trade AND reserves" {
		t.Fatalf("String = %q", got)
	}
}
