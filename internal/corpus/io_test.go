package corpus

import (
	"bytes"
	"reflect"
	"testing"
)

func testCorpus() *Corpus {
	c := New()
	c.Add(Document{Tokens: []string{"the", "quick", "brown", "fox", "\x00", "the", "fox"}})
	c.Add(Document{
		Tokens: []string{"query", "optimization", "in", "database", "systems"},
		Facets: map[string]string{"venue": "sigmod", "year": "1997"},
	})
	c.Add(Document{Tokens: nil, Facets: map[string]string{"venue": "vldb"}})
	c.Add(Document{Tokens: []string{"the", "quick", "database"}})
	return c
}

func TestCorpusBinaryRoundTrip(t *testing.T) {
	c := testCorpus()
	data := mustCorpusBytes(c)
	got, err := DecodeCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("decoded %d docs, want %d", got.Len(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		want, _ := c.Doc(DocID(i))
		d, _ := got.Doc(DocID(i))
		if !reflect.DeepEqual(d.Tokens, want.Tokens) {
			t.Fatalf("doc %d tokens = %v, want %v", i, d.Tokens, want.Tokens)
		}
		if !reflect.DeepEqual(d.Facets, want.Facets) {
			t.Fatalf("doc %d facets = %v, want %v", i, d.Facets, want.Facets)
		}
	}
}

func TestCorpusBinaryDeterministic(t *testing.T) {
	c := testCorpus()
	a := mustCorpusBytes(c)
	b := mustCorpusBytes(c)
	if !bytes.Equal(a, b) {
		t.Fatal("corpus encoding is not deterministic")
	}
}

func TestDecodeCorpusRejectsGarbage(t *testing.T) {
	c := testCorpus()
	data := mustCorpusBytes(c)
	if _, err := DecodeCorpus(data[:len(data)-3]); err == nil {
		t.Fatal("truncated corpus accepted")
	}
	if _, err := DecodeCorpus(append(append([]byte(nil), data...), 0x01)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeCorpus([]byte{0xFF}); err == nil {
		t.Fatal("malformed header accepted")
	}
}
