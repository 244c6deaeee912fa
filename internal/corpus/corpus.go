// Package corpus implements the document-corpus substrate: the document
// model with keyword and metadata-facet features, the inverted feature
// index, sorted document-set algebra, and the sub-collection selection
// queries of Equation 2 of the paper (D' = union or intersection of
// docs(D, qi)).
package corpus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"phrasemine/internal/diskio"
)

// DocID identifies a document by its position in the corpus. IDs are dense:
// the i-th added document has DocID i.
type DocID uint32

// Document is one text document plus optional metadata facets. Tokens are
// the normalized token stream produced by textproc.Tokenizer (possibly
// containing textproc.SentenceBreak markers).
type Document struct {
	Tokens []string
	// Facets are metadata name/value pairs ("venue" -> "sigmod",
	// "year" -> "1997"). They are indexed as features alongside words
	// using the FacetFeature encoding, so queries may mix keywords and
	// facets exactly as Table 1 of the paper describes.
	Facets map[string]string
}

// FacetFeature renders a metadata facet as an indexable feature string.
// The ':' separator cannot appear in tokenizer output, so facet features
// can never collide with word features. Name and value are lowercased, as
// query keywords are, so a facet matches whatever case either side wrote.
func FacetFeature(name, value string) string {
	return strings.ToLower(name) + ":" + strings.ToLower(value)
}

// Corpus is an append-only collection of documents (the paper's static
// corpus D).
//
// A corpus opened from a snapshot in lazy mode (DecodeCorpusLazy) defers
// document decoding: Len answers from the encoded header, and the first
// access to document contents (Doc, MustDoc, TokenSlices, Add) decodes the
// whole corpus once. Serving paths that never touch document text — query
// processing reads only indexes — therefore never pay the decode.
type Corpus struct {
	docs []Document

	// Lazy backing (nil for eagerly built corpora).
	raw      []byte
	rawDocs  int
	lazyOnce sync.Once
	lazyErr  error
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{}
}

// Materialize decodes a lazily opened corpus, idempotently. Every accessor
// that touches document contents calls it; callers that want the decode
// cost (and any corruption error) up front may call it directly. A decode
// failure is sticky and wraps diskio.ErrCorruptSnapshot: the backing bytes
// are a snapshot section that passed open-time validation, so bad bytes
// here mean the stored corpus is corrupt.
func (c *Corpus) Materialize() error {
	if c.raw == nil {
		return nil
	}
	c.lazyOnce.Do(func() {
		decoded, err := DecodeCorpus(c.raw)
		if err != nil {
			c.lazyErr = diskio.Corruptf("corpus: lazy decode: %v", err)
			return
		}
		c.docs = decoded.docs
	})
	return c.lazyErr
}

// Add appends a document and returns its DocID. On a lazily opened corpus
// the first Add materializes the stored documents, so a corrupt snapshot
// surfaces here as an error rather than later as a partial corpus.
func (c *Corpus) Add(d Document) (DocID, error) {
	if err := c.Materialize(); err != nil {
		return 0, err
	}
	c.raw, c.rawDocs = nil, 0
	c.docs = append(c.docs, d)
	return DocID(len(c.docs) - 1), nil
}

// Len reports the number of documents. On a lazily opened corpus it answers
// from the encoded header without decoding any document.
func (c *Corpus) Len() int {
	if c.raw != nil {
		return c.rawDocs
	}
	return len(c.docs)
}

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id DocID) (Document, error) {
	if err := c.Materialize(); err != nil {
		return Document{}, err
	}
	if int(id) >= len(c.docs) {
		return Document{}, fmt.Errorf("corpus: doc %d out of range [0,%d)", id, len(c.docs))
	}
	return c.docs[id], nil
}

// MustDoc is Doc for callers that have already validated the ID against an
// eagerly built or already materialized corpus. Calling it first on a lazy
// corpus whose backing bytes are corrupt is a programming error and
// panics; serving paths use Doc (or Materialize up front) instead.
func (c *Corpus) MustDoc(id DocID) Document {
	if err := c.Materialize(); err != nil {
		panic(err)
	}
	return c.docs[id]
}

// TokenSlices returns one token slice per document, in DocID order, for use
// by textproc.Extract. The returned slices alias corpus memory.
func (c *Corpus) TokenSlices() ([][]string, error) {
	if err := c.Materialize(); err != nil {
		return nil, err
	}
	out := make([][]string, len(c.docs))
	for i := range c.docs {
		out[i] = c.docs[i].Tokens
	}
	return out, nil
}

// FeatureSet returns the distinct features (word tokens plus facet
// features) of a document. SentenceBreak markers are excluded.
func FeatureSet(d Document) map[string]struct{} {
	seen := make(map[string]struct{}, len(d.Tokens))
	for _, t := range d.Tokens {
		if t == "\x00" { // textproc.SentenceBreak
			continue
		}
		seen[t] = struct{}{}
	}
	for name, value := range d.Facets {
		seen[FacetFeature(name, value)] = struct{}{}
	}
	return seen
}

// distinctFeatures returns a document's FeatureSet as a sorted slice.
func distinctFeatures(d Document) []string {
	seen := FeatureSet(d)
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
