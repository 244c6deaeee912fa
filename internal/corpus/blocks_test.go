package corpus

import (
	"math/rand"
	"reflect"
	"testing"

	"phrasemine/internal/bitpack"
)

func randomPostings(rng *rand.Rand, n int) []DocID {
	out := make([]DocID, 0, n)
	id := uint32(0)
	for i := 0; i < n; i++ {
		id += uint32(1 + rng.Intn(9))
		out = append(out, DocID(id))
	}
	return out
}

func TestBlockPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, PostingBlockLen, PostingBlockLen + 1, 5*PostingBlockLen + 3} {
		list := randomPostings(rng, n)
		data, _, _, err := AppendBlockPostingsCodec(nil, list, bitpack.CodecAuto)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := NewBlockPostings(data, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bp.DecodeAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(list) {
			t.Fatalf("n=%d: decoded %d postings", n, len(got))
		}
		for i := range got {
			if got[i] != list[i] {
				t.Fatalf("n=%d: posting %d = %d, want %d", n, i, got[i], list[i])
			}
		}
	}
}

func TestPostingCursorSkipToMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	list := randomPostings(rng, 1200)
	data, _, _, err := AppendBlockPostingsCodec(nil, list, bitpack.CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBlockPostings(data, len(list))
	if err != nil {
		t.Fatal(err)
	}
	maxDoc := int(list[len(list)-1])
	for trial := 0; trial < 100; trial++ {
		c := &PostingCursor{}
		c.Reset(bp)
		ref := 0 // index of the next unconsumed posting
		for probe := 0; probe < 10; probe++ {
			id := DocID(rng.Intn(maxDoc + 50))
			got, ok := c.SkipTo(id)
			for ref < len(list) && list[ref] < id {
				ref++
			}
			if ref >= len(list) {
				if ok {
					t.Fatalf("SkipTo(%d) = %d past end", id, got)
				}
				break
			}
			if !ok || got != list[ref] {
				t.Fatalf("SkipTo(%d) = (%d,%v), want %d", id, got, ok, list[ref])
			}
			ref++
		}
	}
}

func TestPostingCursorNext(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	list := randomPostings(rng, 700)
	data, _, _, err := AppendBlockPostingsCodec(nil, list, bitpack.CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBlockPostings(data, len(list))
	if err != nil {
		t.Fatal(err)
	}
	c := &PostingCursor{}
	c.Reset(bp)
	for i, want := range list {
		got, ok := c.Next()
		if !ok || got != want {
			t.Fatalf("Next %d = (%d,%v), want %d", i, got, ok, want)
		}
	}
	if _, ok := c.Next(); ok || c.Err() != nil {
		t.Fatalf("cursor did not end cleanly: err=%v", c.Err())
	}
}

func buildTestInverted(t *testing.T) *Inverted {
	t.Helper()
	c := New()
	docs := []string{
		"trade oil reserves", "oil price trade", "weather report",
		"trade deficit", "oil spill weather", "reserves bank trade",
	}
	for _, d := range docs {
		c.Add(Document{Tokens: splitWords(d)})
	}
	return mustInverted(c)
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

func TestBlockInvertedRoundTrip(t *testing.T) {
	ix := buildTestInverted(t)
	data, err := ix.AppendBlockIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism.
	again, err := ix.AppendBlockIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("block inverted encoding is not deterministic")
	}

	opened, err := OpenBlockInverted(data)
	if err != nil {
		t.Fatal(err)
	}
	if opened.NumDocs() != ix.NumDocs() || opened.VocabSize() != ix.VocabSize() {
		t.Fatalf("header mismatch: %d/%d docs, %d/%d features",
			opened.NumDocs(), ix.NumDocs(), opened.VocabSize(), ix.VocabSize())
	}
	if !reflect.DeepEqual(opened.Features(), ix.Features()) {
		t.Fatal("feature sets differ")
	}
	for _, f := range ix.Features() {
		if opened.DocFreq(f) != ix.DocFreq(f) {
			t.Fatalf("DocFreq(%q) = %d, want %d", f, opened.DocFreq(f), ix.DocFreq(f))
		}
		if !reflect.DeepEqual(mustDocs(opened, f), mustDocs(ix, f)) {
			t.Fatalf("Docs(%q) mismatch", f)
		}
		// Second access must hit the cache and return the same slice.
		a, b := mustDocs(opened, f), mustDocs(opened, f)
		if len(a) > 0 && &a[0] != &b[0] {
			t.Fatalf("Docs(%q) not cached", f)
		}
	}
	if opened.Has("nonexistent") || mustDocs(opened, "nonexistent") != nil {
		t.Fatal("phantom feature")
	}

	// Queries must answer identically over the lazy form.
	q := NewQuery(OpAND, "trade", "oil")
	want, err := ix.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opened.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Select mismatch: %v vs %v", got, want)
	}

	// Materializing flattens to the eager form with identical contents.
	if err := opened.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	p, bytes, compressed := opened.PostingStats()
	if compressed {
		t.Fatal("still compressed after MaterializeAll")
	}
	wantP, _, _ := ix.PostingStats()
	if p != wantP || bytes != int64(p)*4 {
		t.Fatalf("PostingStats = (%d,%d), want %d postings", p, bytes, wantP)
	}
	for _, f := range ix.Features() {
		if !reflect.DeepEqual(mustDocs(opened, f), mustDocs(ix, f)) {
			t.Fatalf("Docs(%q) mismatch after materialize", f)
		}
	}
}

func TestOpenBlockInvertedRejectsOverflowingExtent(t *testing.T) {
	ix := buildTestInverted(t)
	data, err := ix.AppendBlockIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first directory entry's offset to a value that wraps
	// uint64 when added to its size: the open must error, not panic.
	pos := invertedBlockHeaderSize
	nl := int(data[pos]) | int(data[pos+1])<<8
	off := pos + 2 + nl
	for i := 0; i < 8; i++ {
		data[off+i] = 0xFF
	}
	if _, err := OpenBlockInverted(data); err == nil {
		t.Fatal("overflowing directory extent accepted")
	}
}

func TestDecodeCorpusLazy(t *testing.T) {
	c := New()
	c.Add(Document{Tokens: []string{"alpha", "beta"}, Facets: map[string]string{"venue": "edbt"}})
	c.Add(Document{Tokens: []string{"gamma"}})
	data := mustCorpusBytes(c)

	lazy, err := DecodeCorpusLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Len() != 2 {
		t.Fatalf("lazy Len = %d", lazy.Len())
	}
	doc, err := lazy.Doc(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Tokens, []string{"alpha", "beta"}) || doc.Facets["venue"] != "edbt" {
		t.Fatalf("lazy doc 0 = %+v", doc)
	}
	if lazy.Len() != 2 {
		t.Fatalf("Len changed after materialize: %d", lazy.Len())
	}
	if got := lazy.MustDoc(1).Tokens; !reflect.DeepEqual(got, []string{"gamma"}) {
		t.Fatalf("lazy doc 1 tokens = %v", got)
	}

	if _, err := DecodeCorpusLazy(nil); err == nil {
		t.Fatal("empty data must be rejected")
	}
}
