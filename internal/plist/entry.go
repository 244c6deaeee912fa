// Package plist implements the paper's word-specific phrase lists
// (Sections 4.2.2 and 4.4.1): for every feature q, a list of
// [phraseID, P(q|p)] pairs where
//
//	P(q|p) = |docs(D,q) ∩ docs(D,p)| / |docs(D,p)|   (Eq. 13)
//
// Lists come in two orderings: score-ordered (non-increasing probability,
// ties broken by ascending phrase ID — the disk/NRA layout of Fig. 2) and
// phrase-ID-ordered (the in-memory/SMJ layout of Fig. 4). Zero-probability
// phrases are omitted, and partial lists are built by truncating the
// score-ordered list to a top fraction, optionally re-ordered by ID.
//
// Lists are held either as raw entry slices or block-compressed
// (BlockList, BlockSet), and consumed through the Cursor interface by the
// top-k algorithms.
package plist

import "phrasemine/internal/phrasedict"

// Entry is one [phraseid, prob] pair of a word-specific list.
type Entry struct {
	Phrase phrasedict.PhraseID
	Prob   float64
}

// EntrySize is the uncompressed entry footprint in bytes the paper's
// index-size analysis (Table 5) counts: a uint32 phrase ID plus a float64
// probability, "12 bytes per entry (4 for phrase ID and 8 for storing the
// probability value)".
const EntrySize = 12
