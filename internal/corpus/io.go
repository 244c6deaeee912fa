package corpus

// This file implements the binary codecs used by the miner snapshot
// (internal/core's snapshot sections): a token-interned encoding of the
// corpus and a delta-compressed encoding of the inverted index. Both are
// deterministic — the same corpus always encodes to the same bytes — so
// snapshots are reproducible and diffable.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// AppendBinary appends the corpus encoding to buf and returns the extended
// slice. Layout (all integers are uvarints):
//
//	numDocs
//	tableLen, then tableLen strings (len + bytes) — the distinct tokens in
//	    first-occurrence order
//	per document:
//	    numTokens, then one table index per token
//	    numFacets, then per facet (sorted by name): name, value (len + bytes)
func (c *Corpus) AppendBinary(buf []byte) ([]byte, error) {
	if err := c.Materialize(); err != nil {
		return nil, err
	}
	table := make(map[string]uint64)
	var tokens []string
	for i := range c.docs {
		for _, t := range c.docs[i].Tokens {
			if _, ok := table[t]; !ok {
				table[t] = uint64(len(tokens))
				tokens = append(tokens, t)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.docs)))
	buf = binary.AppendUvarint(buf, uint64(len(tokens)))
	for _, t := range tokens {
		buf = appendString(buf, t)
	}
	for i := range c.docs {
		d := &c.docs[i]
		buf = binary.AppendUvarint(buf, uint64(len(d.Tokens)))
		for _, t := range d.Tokens {
			buf = binary.AppendUvarint(buf, table[t])
		}
		buf = binary.AppendUvarint(buf, uint64(len(d.Facets)))
		names := make([]string, 0, len(d.Facets))
		for name := range d.Facets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			buf = appendString(buf, name)
			buf = appendString(buf, d.Facets[name])
		}
	}
	return buf, nil
}

// DecodeCorpus parses an encoding produced by AppendBinary. Token strings
// are interned through the embedded table, so the decoded corpus shares
// one string per distinct token like a freshly tokenized one.
func DecodeCorpus(data []byte) (*Corpus, error) {
	d := decoder{data: data}
	numDocs := d.uvarint()
	tableLen := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("corpus: decoding header: %w", d.err)
	}
	if tableLen > uint64(len(data)) {
		return nil, fmt.Errorf("corpus: implausible token table size %d", tableLen)
	}
	table := make([]string, tableLen)
	for i := range table {
		table[i] = d.string()
	}
	if d.err != nil {
		return nil, fmt.Errorf("corpus: decoding token table: %w", d.err)
	}
	if numDocs > uint64(len(data)) {
		return nil, fmt.Errorf("corpus: implausible document count %d", numDocs)
	}
	c := &Corpus{docs: make([]Document, 0, numDocs)}
	for i := uint64(0); i < numDocs; i++ {
		numTokens := d.uvarint()
		if d.err != nil || numTokens > uint64(len(data)) {
			return nil, fmt.Errorf("corpus: doc %d: bad token count", i)
		}
		var toks []string
		if numTokens > 0 {
			toks = make([]string, numTokens)
			for j := range toks {
				idx := d.uvarint()
				if d.err != nil {
					return nil, fmt.Errorf("corpus: doc %d token %d: %w", i, j, d.err)
				}
				if idx >= tableLen {
					return nil, fmt.Errorf("corpus: doc %d token %d: index %d out of table range %d", i, j, idx, tableLen)
				}
				toks[j] = table[idx]
			}
		}
		numFacets := d.uvarint()
		if d.err != nil || numFacets > uint64(len(data)) {
			return nil, fmt.Errorf("corpus: doc %d: bad facet count", i)
		}
		var facets map[string]string
		if numFacets > 0 {
			facets = make(map[string]string, numFacets)
			for j := uint64(0); j < numFacets; j++ {
				name := d.string()
				value := d.string()
				if d.err != nil {
					return nil, fmt.Errorf("corpus: doc %d facet %d: %w", i, j, d.err)
				}
				facets[name] = value
			}
		}
		c.docs = append(c.docs, Document{Tokens: toks, Facets: facets})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("corpus: %d trailing bytes after documents", len(data)-d.pos)
	}
	return c, nil
}

// DecodeCorpusLazy wraps an encoding produced by AppendBinary without
// decoding any document: only the document count is parsed eagerly, so the
// returned corpus answers Len immediately while document contents decode on
// first access (see Corpus). data must stay valid and immutable for the
// corpus's lifetime — it may be a memory-mapped snapshot section.
func DecodeCorpusLazy(data []byte) (*Corpus, error) {
	numDocs, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("corpus: truncated document count")
	}
	if numDocs > uint64(len(data)) {
		return nil, fmt.Errorf("corpus: implausible document count %d", numDocs)
	}
	return &Corpus{raw: data, rawDocs: int(numDocs)}, nil
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a sticky-error cursor over an encoded byte slice.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("truncated or malformed uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.pos) {
		d.err = fmt.Errorf("string of %d bytes exceeds remaining %d at offset %d", n, len(d.data)-d.pos, d.pos)
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}
