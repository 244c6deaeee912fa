package plist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"phrasemine/internal/phrasedict"
)

// Ordering identifies the layout of the lists inside an index file.
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

var indexMagic = [8]byte{'P', 'M', 'L', 'I', 'S', 'T', '0', '1'}

// index file layout:
//
//	[0,8)    magic "PMLIST01"
//	[8,9)    ordering byte
//	[9,12)   zero padding
//	[12,16)  numWords uint32 LE
//	[16,24)  directory size in bytes, uint64 LE
//	[24,24+dirSize)  directory: per word
//	             wordLen uint16 LE, word bytes,
//	             offset uint64 LE (absolute file offset of the list),
//	             numEntries uint32 LE
//	then, contiguous per-word extents of EntrySize-byte entries, in
//	directory order. Contiguity per list is what makes NRA's round-robin
//	consumption mostly sequential under the disk cost model.
const indexHeaderSize = 24

// Extent locates one word's list inside an index file.
type Extent struct {
	Offset int64 // absolute file offset of the first entry
	Count  int   // number of entries
}

// WriteIndex serializes score-ordered lists. Words are written in sorted
// order so output is deterministic.
func WriteIndex(w io.Writer, lists map[string]ScoreList) (int64, error) {
	return writeIndex(w, OrderScore, toEntryMap(lists))
}

// WriteIDIndex serializes ID-ordered lists.
func WriteIDIndex(w io.Writer, lists map[string]IDList) (int64, error) {
	return writeIndex(w, OrderID, toEntryMap(lists))
}

func toEntryMap[L ~[]Entry](lists map[string]L) map[string][]Entry {
	out := make(map[string][]Entry, len(lists))
	for k, v := range lists {
		out[k] = v
	}
	return out
}

func writeIndex(w io.Writer, ord Ordering, lists map[string][]Entry) (int64, error) {
	words := make([]string, 0, len(lists))
	for word := range lists {
		if len(word) > 1<<16-1 {
			return 0, fmt.Errorf("plist: word of %d bytes exceeds directory limit", len(word))
		}
		words = append(words, word)
	}
	sort.Strings(words)

	// Assemble the directory, computing extents as we go.
	var dir bytes.Buffer
	dirSize := 0
	for _, word := range words {
		dirSize += 2 + len(word) + 8 + 4
	}
	dataStart := int64(indexHeaderSize + dirSize)
	offset := dataStart
	for _, word := range words {
		var tmp [8]byte
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(word)))
		dir.Write(tmp[:2])
		dir.WriteString(word)
		binary.LittleEndian.PutUint64(tmp[:8], uint64(offset))
		dir.Write(tmp[:8])
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(lists[word])))
		dir.Write(tmp[:4])
		offset += SizeBytes(len(lists[word]))
	}

	var hdr [indexHeaderSize]byte
	copy(hdr[:8], indexMagic[:])
	hdr[8] = byte(ord)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(words)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(dir.Len()))

	var written int64
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("plist: writing index header: %w", err)
	}
	n, err = w.Write(dir.Bytes())
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("plist: writing directory: %w", err)
	}
	buf := make([]byte, 64*1024)
	for _, word := range words {
		entries := lists[word]
		for start := 0; start < len(entries); {
			chunk := len(entries) - start
			if max := len(buf) / EntrySize; chunk > max {
				chunk = max
			}
			for i := 0; i < chunk; i++ {
				EncodeEntry(buf[i*EntrySize:], entries[start+i])
			}
			n, err = w.Write(buf[:chunk*EntrySize])
			written += int64(n)
			if err != nil {
				return written, fmt.Errorf("plist: writing list %q: %w", word, err)
			}
			start += chunk
		}
	}
	return written, nil
}

// Reader provides per-word cursor access to a serialized index through any
// io.ReaderAt (an *os.File, a bytes.Reader, or a simulated diskio.File).
// The directory is held in memory, as a deployed system would.
type Reader struct {
	ra       io.ReaderAt
	ordering Ordering
	dir      map[string]Extent
	words    []string
}

// OpenReader parses the header and directory of an index file.
func OpenReader(ra io.ReaderAt) (*Reader, error) {
	var hdr [indexHeaderSize]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("plist: reading index header: %w", err)
	}
	if !bytes.Equal(hdr[:8], indexMagic[:]) {
		return nil, fmt.Errorf("plist: bad index magic %q", hdr[:8])
	}
	ord := Ordering(hdr[8])
	if ord != OrderScore && ord != OrderID {
		return nil, fmt.Errorf("plist: unknown ordering byte %d", hdr[8])
	}
	numWords := int(binary.LittleEndian.Uint32(hdr[12:16]))
	dirSize := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	dirBytes := make([]byte, dirSize)
	if _, err := ra.ReadAt(dirBytes, indexHeaderSize); err != nil {
		return nil, fmt.Errorf("plist: reading directory: %w", err)
	}
	r := &Reader{
		ra:       ra,
		ordering: ord,
		dir:      make(map[string]Extent, numWords),
		words:    make([]string, 0, numWords),
	}
	pos := 0
	for i := 0; i < numWords; i++ {
		if pos+2 > len(dirBytes) {
			return nil, fmt.Errorf("plist: truncated directory at word %d", i)
		}
		wl := int(binary.LittleEndian.Uint16(dirBytes[pos:]))
		pos += 2
		if pos+wl+12 > len(dirBytes) {
			return nil, fmt.Errorf("plist: truncated directory entry for word %d", i)
		}
		word := string(dirBytes[pos : pos+wl])
		pos += wl
		off := int64(binary.LittleEndian.Uint64(dirBytes[pos:]))
		pos += 8
		cnt := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		if _, dup := r.dir[word]; dup {
			return nil, fmt.Errorf("plist: duplicate directory entry %q", word)
		}
		r.dir[word] = Extent{Offset: off, Count: cnt}
		r.words = append(r.words, word)
	}
	return r, nil
}

// Ordering reports the layout of the stored lists.
func (r *Reader) Ordering() Ordering { return r.ordering }

// Has reports whether the index holds a list for the word.
func (r *Reader) Has(word string) bool {
	_, ok := r.dir[word]
	return ok
}

// NumEntries reports the stored list length for the word (0 if absent).
func (r *Reader) NumEntries(word string) int {
	return r.dir[word].Count
}

// Words returns the directory's words in stored (sorted) order.
func (r *Reader) Words() []string {
	return append([]string(nil), r.words...)
}

// Cursor returns a sequential cursor over the word's list. A missing word
// yields an empty cursor, matching the semantics of a zero-probability
// list.
func (r *Reader) Cursor(word string) *FileCursor {
	ext := r.dir[word]
	return &FileCursor{ra: r.ra, ext: ext}
}

// ReadList bulk-loads a word's list into memory.
func (r *Reader) ReadList(word string) ([]Entry, error) {
	ext, ok := r.dir[word]
	if !ok {
		return nil, nil
	}
	data := make([]byte, SizeBytes(ext.Count))
	if _, err := r.ra.ReadAt(data, ext.Offset); err != nil {
		return nil, fmt.Errorf("plist: reading list %q: %w", word, err)
	}
	return DecodeEntries(data)
}

// FileCursor iterates one list entry at a time through the underlying
// ReaderAt. Per-entry reads deliberately mirror how the NRA algorithm
// consumes lists ("the first entries of each of the r lists are read,
// followed by the second entries and so on") so that the simulated page
// cache sees the true access pattern.
type FileCursor struct {
	ra   io.ReaderAt
	ext  Extent
	pos  int
	err  error
	bufP [EntrySize]byte
}

// Len reports the total number of entries in the list.
func (c *FileCursor) Len() int { return c.ext.Count }

// Pos reports how many entries have been consumed.
func (c *FileCursor) Pos() int { return c.pos }

// Next returns the next entry. ok is false at end of list or on error;
// check Err afterwards.
func (c *FileCursor) Next() (e Entry, ok bool) {
	if c.err != nil || c.pos >= c.ext.Count {
		return Entry{}, false
	}
	off := c.ext.Offset + SizeBytes(c.pos)
	if _, err := c.ra.ReadAt(c.bufP[:], off); err != nil {
		c.err = fmt.Errorf("plist: cursor read at entry %d: %w", c.pos, err)
		return Entry{}, false
	}
	c.pos++
	return DecodeEntry(c.bufP[:]), true
}

// Err reports a read error encountered by Next, if any.
func (c *FileCursor) Err() error { return c.err }

// MemCursor iterates an in-memory entry slice with the same interface shape
// as FileCursor.
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
	_ Cursor     = (*FileCursor)(nil)
	_ SkipCursor = (*MemCursor)(nil)
	_ SkipCursor = (*BlockCursor)(nil)
)
