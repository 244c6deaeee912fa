package plist

// This file implements BlockSet, the container that holds every word's
// block-compressed list in one flat byte region behind a word directory.
// Opening a serialized BlockSet parses only the directory — O(#words), not
// O(#entries) — and list data is accessed as subslices of the region, so a
// BlockSet layered over a memory-mapped snapshot section serves cursors
// zero-copy: nothing is decoded until a query touches a block.
//
// Serialized layout (all integers little-endian):
//
//	[0,8)    magic "PMBLSET2"
//	[8]      ordering byte
//	[9,12)   zero padding
//	[12,16)  numWords uint32
//	[16,24)  directory size in bytes, uint64
//	[24,32)  packed-codec block count, uint64
//	[32,40)  packed-codec payload bytes, uint64
//	then the directory, per word in sorted order:
//	             wordLen uint16, word bytes,
//	             offset  uint64 (into the data region),
//	             size    uint32 (encoded list bytes),
//	             count   uint32 (entries)
//	then the data region: per-word encodings (see block.go) in directory
//	order, contiguous.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

var blockSetMagic = [8]byte{'P', 'M', 'B', 'L', 'S', 'E', 'T', '2'}

const blockSetHeaderSize = 40

// blockExtent locates one word's encoded list inside the data region.
type blockExtent struct {
	off   int64
	size  int
	count int
}

// BlockSet is a collection of block-compressed lists sharing one ordering,
// backed by a flat byte region (heap-allocated or memory-mapped). It is
// immutable after construction and safe for concurrent readers.
type BlockSet struct {
	ord     Ordering
	words   []string
	dir     map[string]blockExtent
	data    []byte
	entries int
	dirSize int
	packed  PackedStats
}

// BuildIDBlockSet compresses ID-ordered lists into a BlockSet, choosing
// the codec per block.
func BuildIDBlockSet(lists map[string]IDList) (*BlockSet, error) {
	return buildBlockSet(OrderID, toEntryMap(lists), CodecAuto)
}

// BuildBlockSetCodec compresses score-ordered lists into a BlockSet under
// the given codec policy (CodecAuto chooses the codec per block).
func BuildBlockSetCodec(lists map[string]ScoreList, codec BlockCodec) (*BlockSet, error) {
	return buildBlockSet(OrderScore, toEntryMap(lists), codec)
}

// BuildIDBlockSetCodec is BuildIDBlockSet with an explicit codec policy.
func BuildIDBlockSetCodec(lists map[string]IDList, codec BlockCodec) (*BlockSet, error) {
	return buildBlockSet(OrderID, toEntryMap(lists), codec)
}

func buildBlockSet(ord Ordering, lists map[string][]Entry, codec BlockCodec) (*BlockSet, error) {
	words := make([]string, 0, len(lists))
	for w := range lists {
		if len(w) > 1<<16-1 {
			return nil, fmt.Errorf("plist: word of %d bytes exceeds directory limit", len(w))
		}
		words = append(words, w)
	}
	sort.Strings(words)
	bs := &BlockSet{
		ord:   ord,
		words: words,
		dir:   make(map[string]blockExtent, len(words)),
	}
	var data []byte
	for _, w := range words {
		start := len(data)
		var stats PackedStats
		var err error
		data, stats, err = AppendBlockListCodec(data, lists[w], ord, codec)
		if err != nil {
			return nil, fmt.Errorf("plist: compressing list %q: %w", w, err)
		}
		bs.dir[w] = blockExtent{off: int64(start), size: len(data) - start, count: len(lists[w])}
		bs.entries += len(lists[w])
		bs.packed.add(stats)
	}
	bs.data = data
	bs.dirSize = serializedDirSize(bs)
	return bs, nil
}

func serializedDirSize(bs *BlockSet) int {
	n := 0
	for _, w := range bs.words {
		n += 2 + len(w) + 8 + 4 + 4
	}
	return n
}

// AppendTo appends the serialized BlockSet to buf.
func (bs *BlockSet) AppendTo(buf []byte) []byte {
	var hdr [blockSetHeaderSize]byte
	copy(hdr[:8], blockSetMagic[:])
	hdr[8] = byte(bs.ord)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(bs.words)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(bs.dirSize))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(bs.packed.Blocks))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(bs.packed.Bytes))
	buf = append(buf, hdr[:]...)
	var tmp [8]byte
	for _, w := range bs.words {
		ext := bs.dir[w]
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(w)))
		buf = append(buf, tmp[:2]...)
		buf = append(buf, w...)
		binary.LittleEndian.PutUint64(tmp[:8], uint64(ext.off))
		buf = append(buf, tmp[:8]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(ext.size))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(ext.count))
		buf = append(buf, tmp[:4]...)
	}
	return append(buf, bs.data...)
}

// OpenBlockSet parses a serialized BlockSet, keeping list data as a
// subslice of data (zero copy — data may be a mapped region and must stay
// valid and immutable for the BlockSet's lifetime). Cost is O(#words): only
// the directory is materialized.
func OpenBlockSet(data []byte) (*BlockSet, error) {
	const hdrSize = blockSetHeaderSize
	if len(data) < hdrSize {
		return nil, fmt.Errorf("plist: block set of %d bytes is shorter than its %d-byte header", len(data), hdrSize)
	}
	if !bytes.Equal(data[:8], blockSetMagic[:]) {
		return nil, fmt.Errorf("plist: bad block-set magic %q", data[:8])
	}
	ord := Ordering(data[8])
	if ord != OrderScore && ord != OrderID {
		return nil, fmt.Errorf("plist: unknown ordering byte %d", data[8])
	}
	numWords := int(binary.LittleEndian.Uint32(data[12:16]))
	dirSize := binary.LittleEndian.Uint64(data[16:24])
	packed := PackedStats{
		Blocks: int(binary.LittleEndian.Uint64(data[24:32])),
		Bytes:  int64(binary.LittleEndian.Uint64(data[32:40])),
	}
	if dirSize > uint64(len(data)-hdrSize) {
		return nil, fmt.Errorf("plist: directory of %d bytes exceeds file", dirSize)
	}
	dirBytes := data[hdrSize : hdrSize+int(dirSize)]
	region := data[hdrSize+int(dirSize):]
	bs := &BlockSet{
		ord:     ord,
		words:   make([]string, 0, numWords),
		dir:     make(map[string]blockExtent, numWords),
		data:    region,
		dirSize: int(dirSize),
		packed:  packed,
	}
	pos := 0
	for i := 0; i < numWords; i++ {
		if pos+2 > len(dirBytes) {
			return nil, fmt.Errorf("plist: truncated block-set directory at word %d", i)
		}
		wl := int(binary.LittleEndian.Uint16(dirBytes[pos:]))
		pos += 2
		if pos+wl+16 > len(dirBytes) {
			return nil, fmt.Errorf("plist: truncated block-set directory entry for word %d", i)
		}
		word := string(dirBytes[pos : pos+wl])
		pos += wl
		off := binary.LittleEndian.Uint64(dirBytes[pos:])
		pos += 8
		size := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		count := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		// Overflow-safe bounds check: off+size could wrap uint64.
		if off > uint64(len(region)) || uint64(size) > uint64(len(region))-off {
			return nil, fmt.Errorf("plist: list %q extent at %d of %d bytes beyond data region of %d bytes",
				word, off, size, len(region))
		}
		if _, dup := bs.dir[word]; dup {
			return nil, fmt.Errorf("plist: duplicate block-set entry %q", word)
		}
		bs.dir[word] = blockExtent{off: int64(off), size: size, count: count}
		bs.words = append(bs.words, word)
		bs.entries += count
	}
	if pos != len(dirBytes) {
		return nil, fmt.Errorf("plist: %d trailing directory bytes", len(dirBytes)-pos)
	}
	return bs, nil
}

// Ordering reports the shared ordering of the stored lists.
func (bs *BlockSet) Ordering() Ordering { return bs.ord }

// Has reports whether the set holds a list for the word.
func (bs *BlockSet) Has(word string) bool {
	_, ok := bs.dir[word]
	return ok
}

// NumEntries reports the stored list length for the word (0 if absent),
// read from the directory without decoding.
func (bs *BlockSet) NumEntries(word string) int {
	return bs.dir[word].count
}

// NumWords reports the number of stored lists.
func (bs *BlockSet) NumWords() int { return len(bs.words) }

// TotalEntries reports the summed entry count across all lists.
func (bs *BlockSet) TotalEntries() int { return bs.entries }

// SizeBytes reports the physical footprint: header + directory + data
// region (the serialized size, which equals the resident size for a mapped
// set).
func (bs *BlockSet) SizeBytes() int64 {
	return int64(blockSetHeaderSize + bs.dirSize + len(bs.data))
}

// Packed reports how much of the set is packed-codec encoded.
func (bs *BlockSet) Packed() PackedStats { return bs.packed }

// Words returns the directory's words in sorted order. The returned slice
// is shared; callers must not modify it.
func (bs *BlockSet) Words() []string { return bs.words }

// List returns the word's BlockList view. A missing word yields an empty
// list (and no error), matching the semantics of a zero-probability list;
// a structurally corrupt stored list yields an error so queries fail loudly
// instead of silently treating the word as absent.
func (bs *BlockSet) List(word string) (BlockList, error) {
	ext, ok := bs.dir[word]
	if !ok {
		return BlockList{ord: bs.ord}, nil
	}
	l, err := NewBlockList(bs.data[ext.off:ext.off+int64(ext.size)], ext.count, bs.ord)
	if err != nil {
		return BlockList{ord: bs.ord}, fmt.Errorf("plist: list %q: %w", word, err)
	}
	return l, nil
}

// DecodeList decodes one word's list into a fresh slice (nil if absent).
func (bs *BlockSet) DecodeList(word string) ([]Entry, error) {
	l, err := bs.List(word)
	if err != nil {
		return nil, err
	}
	if l.Len() == 0 {
		return nil, nil
	}
	return l.DecodeAll(nil)
}

// DecodeAllScoreLists decodes every list of a score-ordered set back into
// the in-memory map form, validating each list's ordering invariant — the
// heap-resident snapshot-load path.
func (bs *BlockSet) DecodeAllScoreLists() (map[string]ScoreList, error) {
	if bs.ord != OrderScore {
		return nil, fmt.Errorf("plist: block set is %v-ordered, want score-ordered", bs.ord)
	}
	out := make(map[string]ScoreList, len(bs.words))
	for _, w := range bs.words {
		entries, err := bs.DecodeList(w)
		if err != nil {
			return nil, err
		}
		l := ScoreList(entries)
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("plist: list %q: %w", w, err)
		}
		out[w] = l
	}
	return out, nil
}

// toEntryMap views a map of typed lists as plain entry slices.
func toEntryMap[L ~[]Entry](lists map[string]L) map[string][]Entry {
	out := make(map[string][]Entry, len(lists))
	for k, v := range lists {
		out[k] = v
	}
	return out
}
