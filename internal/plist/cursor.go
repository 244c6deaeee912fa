package plist

import (
	"fmt"
	"sort"

	"phrasemine/internal/phrasedict"
)

// Ordering identifies the order of a list's entries.
type Ordering uint8

const (
	// OrderScore marks score-ordered lists (NRA / disk layout).
	OrderScore Ordering = 0
	// OrderID marks phrase-ID-ordered lists (SMJ layout).
	OrderID Ordering = 1
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderScore:
		return "score"
	case OrderID:
		return "id"
	default:
		return fmt.Sprintf("Ordering(%d)", uint8(o))
	}
}

// MemCursor iterates an in-memory entry slice: the Cursor over raw
// (uncompressed) lists.
type MemCursor struct {
	entries []Entry
	pos     int
}

// NewMemCursor wraps an entry slice (either ordering).
func NewMemCursor(entries []Entry) *MemCursor {
	return &MemCursor{entries: entries}
}

// Reset repoints the cursor at a new entry slice and rewinds it, so pooled
// cursors can be reused across queries without reallocation.
func (c *MemCursor) Reset(entries []Entry) {
	c.entries = entries
	c.pos = 0
}

// Len reports the total number of entries.
func (c *MemCursor) Len() int { return len(c.entries) }

// Pos reports how many entries have been consumed.
func (c *MemCursor) Pos() int { return c.pos }

// Next returns the next entry; ok is false at end of list.
func (c *MemCursor) Next() (Entry, bool) {
	if c.pos >= len(c.entries) {
		return Entry{}, false
	}
	e := c.entries[c.pos]
	c.pos++
	return e, true
}

// SkipTo is BlockCursor.SkipTo for a raw ID-ordered slice: a binary search
// over the unconsumed entries.
func (c *MemCursor) SkipTo(id phrasedict.PhraseID) (Entry, bool) {
	rest := c.entries[c.pos:]
	c.pos += sort.Search(len(rest), func(i int) bool { return rest[i].Phrase >= id })
	return c.Next()
}

// Err always reports nil for memory cursors.
func (c *MemCursor) Err() error { return nil }

// Cursor is the list-consumption interface shared by the NRA and SMJ
// implementations: sequential entry access plus total length (needed for
// partial-list cutoffs).
type Cursor interface {
	Next() (Entry, bool)
	Len() int
	Pos() int
	Err() error
}

// SkipCursor is a Cursor over an ID-ordered list that can also seek: SkipTo
// advances past every entry whose phrase ID is below id and consumes and
// returns the first entry with Phrase >= id (ok false when none remains or
// on error). Both in-memory layouts implement it.
type SkipCursor interface {
	Cursor
	SkipTo(id phrasedict.PhraseID) (Entry, bool)
}

var (
	_ SkipCursor = (*MemCursor)(nil)
	_ SkipCursor = (*BlockCursor)(nil)
)
