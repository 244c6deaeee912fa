// Package phrasedict implements the paper's Phrase List (Section 4.2.1):
// a fixed-width array of phrase strings where the position of a phrase
// defines its integer ID. Each record occupies exactly Width bytes, shorter
// phrases are zero-padded, and the phrase with ID i lives in the byte range
// [i*Width, (i+1)*Width) — the paper states the same arithmetic 1-based;
// IDs here are 0-based as is idiomatic in Go.
package phrasedict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"phrasemine/internal/diskio"
)

// PhraseID identifies a phrase by its position in the phrase list.
type PhraseID uint32

// DefaultWidth is the paper's record width s = 50 bytes, reported to cover
// every phrase in their corpora ("we use an s value of 50").
const DefaultWidth = 50

// magic identifies serialized phrase dictionaries (8 bytes).
var magic = [8]byte{'P', 'M', 'D', 'I', 'C', 'T', '0', '1'}

// headerSize is magic + uint32 width + uint32 count.
const headerSize = 16

// Dict is the in-memory phrase list. Lookup by ID is O(1) offset arithmetic;
// lookup by phrase uses a side map built at construction.
type Dict struct {
	width    int
	n        int
	data     []byte // n*width bytes
	byPhrase map[string]PhraseID

	// mapOnce defers building byPhrase for dictionaries opened with
	// FromBytes: ID-to-phrase lookups are pure offset arithmetic over data
	// (which may alias a mapped snapshot section), so the O(|P|) reverse
	// map is only built if a phrase-to-ID lookup ever happens (delta
	// updates); plain serving never pays it.
	mapOnce sync.Once
	mapErr  error
}

// Build creates a dictionary from phrases in the given order (the slice
// index becomes the PhraseID). Width 0 selects DefaultWidth. Build fails on
// phrases longer than width bytes, on embedded NUL bytes (reserved for
// padding), on empty phrases, and on duplicates.
func Build(phrases []string, width int) (*Dict, error) {
	if width == 0 {
		width = DefaultWidth
	}
	if width < 1 {
		return nil, fmt.Errorf("phrasedict: invalid width %d", width)
	}
	d := &Dict{
		width:    width,
		n:        len(phrases),
		data:     make([]byte, len(phrases)*width),
		byPhrase: make(map[string]PhraseID, len(phrases)),
	}
	for i, p := range phrases {
		if p == "" {
			return nil, fmt.Errorf("phrasedict: empty phrase at index %d", i)
		}
		if len(p) > width {
			return nil, fmt.Errorf("phrasedict: phrase %q is %d bytes, exceeds width %d", p, len(p), width)
		}
		if bytes.IndexByte([]byte(p), 0) >= 0 {
			return nil, fmt.Errorf("phrasedict: phrase at index %d contains NUL", i)
		}
		if prev, dup := d.byPhrase[p]; dup {
			return nil, fmt.Errorf("phrasedict: duplicate phrase %q at indexes %d and %d", p, prev, i)
		}
		copy(d.data[i*width:], p)
		d.byPhrase[p] = PhraseID(i)
	}
	return d, nil
}

// Len reports the number of phrases (|P|).
func (d *Dict) Len() int { return d.n }

// Width reports the record width in bytes (the paper's s).
func (d *Dict) Width() int { return d.width }

// SizeBytes reports the size of the record payload (Len * Width), i.e. the
// on-disk size of the phrase list without the header.
func (d *Dict) SizeBytes() int { return len(d.data) }

// Phrase resolves an ID to its string via offset arithmetic.
func (d *Dict) Phrase(id PhraseID) (string, error) {
	if int(id) >= d.n {
		return "", fmt.Errorf("phrasedict: id %d out of range [0,%d)", id, d.n)
	}
	return d.record(int(id)), nil
}

// MustPhrase is Phrase for callers that already validated the ID.
func (d *Dict) MustPhrase(id PhraseID) string {
	return d.record(int(id))
}

func (d *Dict) record(i int) string {
	rec := d.data[i*d.width : (i+1)*d.width]
	return string(trimPadding(rec))
}

// ID resolves a phrase string to its ID. On a dictionary opened with
// FromBytes the first call builds the reverse map; a corrupt record set
// (which ReadFrom would have rejected eagerly) returns an error wrapping
// diskio.ErrCorruptSnapshot, sticky across calls. Once's own fast path is
// a single atomic load, so the unconditional Do keeps concurrent ID calls
// race-free without a mutex around the map pointer.
func (d *Dict) ID(phrase string) (PhraseID, bool, error) {
	d.mapOnce.Do(d.buildMapIfMissing)
	if d.mapErr != nil {
		return 0, false, d.mapErr
	}
	id, ok := d.byPhrase[phrase]
	return id, ok, nil
}

// buildMapIfMissing is the Once body for dictionaries whose map was built
// eagerly (Build, ReadFrom): it leaves the existing map untouched.
func (d *Dict) buildMapIfMissing() {
	if d.byPhrase == nil {
		d.buildMap()
	}
}

// buildMap materializes the phrase-to-ID map, validating record contents.
// Validation failures wrap diskio.ErrCorruptSnapshot: the records came
// from a snapshot section, so an invalid record means bad stored bytes.
func (d *Dict) buildMap() {
	m := make(map[string]PhraseID, d.n)
	for i := 0; i < d.n; i++ {
		p := d.record(i)
		if p == "" {
			d.mapErr = diskio.Corruptf("phrasedict: empty record %d", i)
			return
		}
		if prev, dup := m[p]; dup {
			d.mapErr = diskio.Corruptf("phrasedict: duplicate phrase %q at %d and %d", p, prev, i)
			return
		}
		m[p] = PhraseID(i)
	}
	d.byPhrase = m
}

// FromBytes opens a serialized dictionary (the WriteTo format) directly
// over data without copying records or building the reverse lookup map:
// cost is O(header). data must stay valid and immutable for the Dict's
// lifetime — it may be a memory-mapped snapshot section. ID-to-phrase
// resolution reads records in place; the phrase-to-ID map materializes
// lazily on the first ID call.
func FromBytes(data []byte) (*Dict, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("phrasedict: %d bytes is shorter than the header", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("phrasedict: bad magic %q", data[:8])
	}
	width := int(binary.LittleEndian.Uint32(data[8:12]))
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	if width < 1 || width > 1<<16 {
		return nil, fmt.Errorf("phrasedict: implausible width %d", width)
	}
	records := data[headerSize:]
	if int64(len(records)) != int64(width)*int64(count) {
		return nil, fmt.Errorf("phrasedict: %d record bytes for %d records of width %d", len(records), count, width)
	}
	return &Dict{width: width, n: count, data: records}, nil
}

// trimPadding strips the trailing zero padding of a record.
func trimPadding(rec []byte) []byte {
	end := bytes.IndexByte(rec, 0)
	if end < 0 {
		end = len(rec)
	}
	return rec[:end]
}

// WriteTo serializes the dictionary: magic, width, count (both uint32
// little-endian), then the fixed-width records.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(d.width))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d.n))
	n1, err := w.Write(hdr[:])
	if err != nil {
		return int64(n1), fmt.Errorf("phrasedict: writing header: %w", err)
	}
	n2, err := w.Write(d.data)
	if err != nil {
		return int64(n1 + n2), fmt.Errorf("phrasedict: writing records: %w", err)
	}
	return int64(n1 + n2), nil
}

// ReadFrom deserializes a dictionary written by WriteTo.
func ReadFrom(r io.Reader) (*Dict, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("phrasedict: reading header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("phrasedict: bad magic %q", hdr[:8])
	}
	width := int(binary.LittleEndian.Uint32(hdr[8:12]))
	count := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if width < 1 || width > 1<<16 {
		return nil, fmt.Errorf("phrasedict: implausible width %d", width)
	}
	data := make([]byte, width*count)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("phrasedict: reading %d records: %w", count, err)
	}
	d := &Dict{
		width:    width,
		n:        count,
		data:     data,
		byPhrase: make(map[string]PhraseID, count),
	}
	for i := 0; i < count; i++ {
		p := d.record(i)
		if p == "" {
			return nil, fmt.Errorf("phrasedict: empty record %d", i)
		}
		if prev, dup := d.byPhrase[p]; dup {
			return nil, fmt.Errorf("phrasedict: duplicate phrase %q at %d and %d", p, prev, i)
		}
		d.byPhrase[p] = PhraseID(i)
	}
	return d, nil
}
