package plist

// This file implements the block-compressed physical layout of word-specific
// lists: entries are grouped into fixed-size blocks of BlockLen entries, each
// block prefixed (in a separate skip table) by a fixed-width skip entry
// holding the block's first phrase ID, its maximum probability, and its byte
// offset. Cursors decode one block at a time into a scratch buffer, so a
// list can be consumed straight out of a memory-mapped snapshot region
// without materializing []Entry slices, and SkipTo can gallop across the
// skip table without decoding skipped blocks.
//
// Per-list layout (the list's entry count and ordering are stored by the
// enclosing container, e.g. a BlockSet directory):
//
//	skip table: ceil(count/BlockLen) entries of skipEntrySize bytes:
//	    firstID uint32 LE   (phrase ID of the block's first entry)
//	    maxProb float64 LE  (maximum probability within the block)
//	    offset  uint32 LE   (block payload offset, relative to payload start)
//	payload blocks, each encoding n entries (n = BlockLen except the last)
//	and starting with a codec tag byte:
//	    tag 0 (varint): IDs of entries 1..n-1 as uvarints (entry 0's ID is
//	        the skip entry's firstID): deltas to the predecessor for
//	        ID-ordered lists (strictly increasing, so every delta >= 1),
//	        raw IDs for score-ordered lists (IDs vary haphazardly there)
//	    tag 1 (packed): a bitpack frame (see internal/bitpack) of the n-1
//	        values delta-1 (ID order; deltas are >= 1, so consecutive IDs
//	        pack at zero width and a zero delta is inexpressible) or raw
//	        IDs (score order), fixed bit-width with PFOR exceptions,
//	        decoded branch-free 8 values at a time
//	Either codec is followed by:
//	    nDistinct uint8     (number of distinct probability values, 1..n)
//	    nDistinct float64s  (the distinct values, in first-occurrence order)
//	    if nDistinct > 1: n uint8 dictionary indexes, one per entry
//
// The codec is chosen per block at build time (packed when its frame is no
// larger than the varint bytes, so the choice is deterministic and packed
// wins ties because it decodes faster). The probability dictionary exploits
// that P(q|p) = co/df is a ratio of two small integers, so a block rarely
// holds more than a handful of distinct float64 values; storing each
// distinct value once and 1-byte indexes per entry compresses the 8-byte
// probabilities by 4-8x while round-tripping the exact float64 bits
// (queries over compressed lists are bit-identical to uncompressed ones).

import (
	"encoding/binary"
	"fmt"
	"math"

	"phrasemine/internal/bitpack"
	"phrasemine/internal/phrasedict"
)

// BlockLen is the number of entries per compressed block. 128 keeps the
// per-block skip overhead at 16/128 = 0.125 bytes per entry while bounding
// the decode granularity (and the 1-byte probability dictionary indexes).
const BlockLen = 128

// skipEntrySize is the fixed width of one skip-table entry.
const skipEntrySize = 4 + 8 + 4

// BlockCodec selects the physical block codec at build time; see
// bitpack.Codec for the values.
type BlockCodec = bitpack.Codec

// Re-exported codec constants so builders outside plist need not import
// internal/bitpack.
const (
	CodecAuto   = bitpack.CodecAuto
	CodecVarint = bitpack.CodecVarint
)

// Per-block codec tags (first payload byte of every block).
const (
	tagVarint = 0
	tagPacked = 1
)

// PackedStats counts how much of an encoded artifact chose the packed
// codec — surfaced through index stats so operators can see whether their
// corpus actually bit-packs.
type PackedStats struct {
	Blocks int   // blocks encoded with the packed codec
	Bytes  int64 // payload bytes of those blocks (tag byte included)
}

func (s *PackedStats) add(o PackedStats) {
	s.Blocks += o.Blocks
	s.Bytes += o.Bytes
}

// BlockList is a read-only view over one block-compressed list. The zero
// value is an empty list. The data slice may point into a memory-mapped
// region; BlockList never writes to it.
type BlockList struct {
	data  []byte
	count int
	ord   Ordering
}

// NumBlocksFor reports the number of blocks a list of count entries
// occupies.
func NumBlocksFor(count int) int {
	return (count + BlockLen - 1) / BlockLen
}

// AppendBlockList appends the block-compressed encoding of entries to buf
// and returns the extended slice, choosing the codec per block (CodecAuto).
// ord declares the entry ordering; ID-ordered input must be strictly
// increasing by phrase ID (delta encoding relies on it) and is validated
// here.
func AppendBlockList(buf []byte, entries []Entry, ord Ordering) ([]byte, error) {
	out, _, err := AppendBlockListCodec(buf, entries, ord, CodecAuto)
	return out, err
}

// AppendBlockListCodec is AppendBlockList with an explicit codec policy,
// reporting how many blocks chose the packed representation. CodecVarint
// forces the delta/varint codec for every block (differential testing).
func AppendBlockListCodec(buf []byte, entries []Entry, ord Ordering, codec BlockCodec) ([]byte, PackedStats, error) {
	if err := codec.Validate(); err != nil {
		return nil, PackedStats{}, err
	}
	var stats PackedStats
	numBlocks := NumBlocksFor(len(entries))
	skipStart := len(buf)
	buf = append(buf, make([]byte, numBlocks*skipEntrySize)...)
	payloadStart := len(buf)
	for b := 0; b < numBlocks; b++ {
		lo := b * BlockLen
		hi := lo + BlockLen
		if hi > len(entries) {
			hi = len(entries)
		}
		block := entries[lo:hi]
		offset := len(buf) - payloadStart
		if offset > math.MaxUint32 {
			return nil, PackedStats{}, fmt.Errorf("plist: compressed list exceeds 4GiB block offset range")
		}
		maxProb := block[0].Prob
		for _, e := range block[1:] {
			if e.Prob > maxProb {
				maxProb = e.Prob
			}
		}
		skip := buf[skipStart+b*skipEntrySize:]
		binary.LittleEndian.PutUint32(skip[0:4], uint32(block[0].Phrase))
		binary.LittleEndian.PutUint64(skip[4:12], math.Float64bits(maxProb))
		binary.LittleEndian.PutUint32(skip[12:16], uint32(offset))

		// Entry IDs (entry 0's ID lives in the skip entry). Gather the
		// values both codecs would store and cost them: packedVals holds
		// delta-1 (ID order) or the raw ID (score order) per entry 1..n-1.
		var packedVals [BlockLen]uint32
		varintSize := 0
		for j := 1; j < len(block); j++ {
			if ord == OrderID {
				if block[j].Phrase <= block[j-1].Phrase {
					return nil, PackedStats{}, fmt.Errorf("plist: ID order violated at entry %d: %d after %d",
						lo+j, block[j].Phrase, block[j-1].Phrase)
				}
				d := uint64(block[j].Phrase - block[j-1].Phrase)
				packedVals[j-1] = uint32(d - 1)
				varintSize += bitpack.UvarintLen(d)
			} else {
				packedVals[j-1] = uint32(block[j].Phrase)
				varintSize += bitpack.UvarintLen(uint64(block[j].Phrase))
			}
		}
		vals := packedVals[:len(block)-1]
		usePacked := codec == CodecAuto && bitpack.FrameSize(vals) <= varintSize
		blockStart := len(buf)
		if usePacked {
			buf = append(buf, tagPacked)
			buf = bitpack.AppendFrame(buf, vals)
		} else {
			buf = append(buf, tagVarint)
			for j := 1; j < len(block); j++ {
				if ord == OrderID {
					buf = binary.AppendUvarint(buf, uint64(block[j].Phrase-block[j-1].Phrase))
				} else {
					buf = binary.AppendUvarint(buf, uint64(block[j].Phrase))
				}
			}
		}
		// Probability dictionary: distinct float64 bit patterns in
		// first-occurrence order, then per-entry indexes when needed.
		var dict [BlockLen]uint64
		var idx [BlockLen]uint8
		nDistinct := 0
		for j, e := range block {
			bits := math.Float64bits(e.Prob)
			found := -1
			for d := 0; d < nDistinct; d++ {
				if dict[d] == bits {
					found = d
					break
				}
			}
			if found < 0 {
				found = nDistinct
				dict[nDistinct] = bits
				nDistinct++
			}
			idx[j] = uint8(found)
		}
		buf = append(buf, uint8(nDistinct))
		for d := 0; d < nDistinct; d++ {
			buf = binary.LittleEndian.AppendUint64(buf, dict[d])
		}
		if nDistinct > 1 {
			buf = append(buf, idx[:len(block)]...)
		}
		if usePacked {
			stats.Blocks++
			stats.Bytes += int64(len(buf) - blockStart)
		}
	}
	// Cross-block ID ordering (within-block ordering was validated above).
	if ord == OrderID {
		for b := 1; b < numBlocks; b++ {
			if entries[b*BlockLen].Phrase <= entries[b*BlockLen-1].Phrase {
				return nil, PackedStats{}, fmt.Errorf("plist: ID order violated at block %d boundary", b)
			}
		}
	}
	return buf, stats, nil
}

// NewBlockList wraps an encoded list of count entries in the block format
// produced by AppendBlockList. It validates that data is large enough to
// hold the skip table and that block offsets lie within the payload; block
// contents are validated lazily at decode time.
func NewBlockList(data []byte, count int, ord Ordering) (BlockList, error) {
	if count < 0 {
		return BlockList{}, fmt.Errorf("plist: negative entry count %d", count)
	}
	if count == 0 {
		if len(data) != 0 {
			return BlockList{}, fmt.Errorf("plist: %d data bytes for an empty list", len(data))
		}
		return BlockList{ord: ord}, nil
	}
	numBlocks := NumBlocksFor(count)
	skipSize := numBlocks * skipEntrySize
	if len(data) < skipSize {
		return BlockList{}, fmt.Errorf("plist: %d data bytes cannot hold %d skip entries", len(data), numBlocks)
	}
	payloadSize := len(data) - skipSize
	for b := 0; b < numBlocks; b++ {
		off := int(binary.LittleEndian.Uint32(data[b*skipEntrySize+12:]))
		if off > payloadSize {
			return BlockList{}, fmt.Errorf("plist: block %d offset %d beyond payload of %d bytes", b, off, payloadSize)
		}
	}
	return BlockList{data: data, count: count, ord: ord}, nil
}

// Len reports the number of entries in the list.
func (l BlockList) Len() int { return l.count }

// NumBlocks reports the number of blocks.
func (l BlockList) NumBlocks() int { return NumBlocksFor(l.count) }

// SizeBytes reports the encoded size (skip table + payload).
func (l BlockList) SizeBytes() int { return len(l.data) }

// Ordering reports the declared entry ordering.
func (l BlockList) Ordering() Ordering { return l.ord }

// Skip returns block b's skip entry: its first phrase ID and the maximum
// probability of any entry in the block. Reading a skip entry never decodes
// the block.
func (l BlockList) Skip(b int) (firstID phrasedict.PhraseID, maxProb float64) {
	s := l.data[b*skipEntrySize:]
	return phrasedict.PhraseID(binary.LittleEndian.Uint32(s[0:4])),
		math.Float64frombits(binary.LittleEndian.Uint64(s[4:12]))
}

// blockOffset returns block b's payload byte range [lo, hi) within data.
func (l BlockList) blockOffset(b int) (lo, hi int) {
	payloadStart := l.NumBlocks() * skipEntrySize
	lo = payloadStart + int(binary.LittleEndian.Uint32(l.data[b*skipEntrySize+12:]))
	if b+1 < l.NumBlocks() {
		hi = payloadStart + int(binary.LittleEndian.Uint32(l.data[(b+1)*skipEntrySize+12:]))
	} else {
		hi = len(l.data)
	}
	return lo, hi
}

// BlockEntries reports the number of entries in block b.
func (l BlockList) BlockEntries(b int) int {
	if b == l.NumBlocks()-1 {
		return l.count - b*BlockLen
	}
	return BlockLen
}

// DecodeBlock decodes block b into dst (reusing its capacity) and returns
// the decoded entries. It validates structural soundness: in-bounds reads,
// strictly increasing IDs for ID-ordered lists, and probability values in
// (0, 1].
func (l BlockList) DecodeBlock(b int, dst []Entry) ([]Entry, error) {
	if b < 0 || b >= l.NumBlocks() {
		return nil, fmt.Errorf("plist: block %d out of range [0,%d)", b, l.NumBlocks())
	}
	n := l.BlockEntries(b)
	if cap(dst) < n {
		dst = make([]Entry, n)
	}
	dst = dst[:n]
	lo, hi := l.blockOffset(b)
	if lo > hi || hi > len(l.data) {
		return nil, fmt.Errorf("plist: block %d has inverted extent [%d,%d)", b, lo, hi)
	}
	p := l.data[lo:hi]
	if len(p) == 0 {
		return nil, fmt.Errorf("plist: block %d: missing codec tag", b)
	}
	pos := 1

	firstID, _ := l.Skip(b)
	dst[0].Phrase = firstID
	switch tag := p[0]; tag {
	case tagVarint:
		prev := uint64(firstID)
		for j := 1; j < n; j++ {
			v, w := binary.Uvarint(p[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("plist: block %d: truncated ID varint at entry %d", b, j)
			}
			pos += w
			if l.ord == OrderID {
				if v == 0 {
					return nil, fmt.Errorf("plist: block %d: zero ID delta at entry %d", b, j)
				}
				prev += v
			} else {
				prev = v
			}
			if prev > math.MaxUint32 {
				return nil, fmt.Errorf("plist: block %d: phrase ID %d overflows uint32", b, prev)
			}
			dst[j].Phrase = phrasedict.PhraseID(prev)
		}
	case tagPacked:
		var vals [BlockLen]uint32
		w, err := bitpack.DecodeFrame(vals[:n-1], p[pos:])
		if err != nil {
			return nil, fmt.Errorf("plist: block %d: %w", b, err)
		}
		pos += w
		if l.ord == OrderID {
			prev := uint64(firstID)
			for j := 1; j < n; j++ {
				prev += uint64(vals[j-1]) + 1
				if prev > math.MaxUint32 {
					return nil, fmt.Errorf("plist: block %d: phrase ID %d overflows uint32", b, prev)
				}
				dst[j].Phrase = phrasedict.PhraseID(prev)
			}
		} else {
			for j := 1; j < n; j++ {
				dst[j].Phrase = phrasedict.PhraseID(vals[j-1])
			}
		}
	default:
		return nil, fmt.Errorf("plist: block %d: unknown codec tag %d", b, tag)
	}

	if pos >= len(p) {
		return nil, fmt.Errorf("plist: block %d: missing probability dictionary", b)
	}
	nDistinct := int(p[pos])
	pos++
	if nDistinct < 1 || nDistinct > n {
		return nil, fmt.Errorf("plist: block %d: %d distinct probabilities for %d entries", b, nDistinct, n)
	}
	if pos+8*nDistinct > len(p) {
		return nil, fmt.Errorf("plist: block %d: truncated probability dictionary", b)
	}
	var dict [BlockLen]float64
	for d := 0; d < nDistinct; d++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
		if math.IsNaN(v) || v <= 0 || v > 1 {
			return nil, fmt.Errorf("plist: block %d: probability %v outside (0,1]", b, v)
		}
		dict[d] = v
		pos += 8
	}
	if nDistinct == 1 {
		if pos != len(p) {
			return nil, fmt.Errorf("plist: block %d: %d trailing bytes", b, len(p)-pos)
		}
		for j := 0; j < n; j++ {
			dst[j].Prob = dict[0]
		}
		return dst, nil
	}
	if pos+n != len(p) {
		return nil, fmt.Errorf("plist: block %d: index array size mismatch (%d bytes remain for %d entries)", b, len(p)-pos, n)
	}
	for j := 0; j < n; j++ {
		d := int(p[pos+j])
		if d >= nDistinct {
			return nil, fmt.Errorf("plist: block %d: probability index %d out of range %d", b, d, nDistinct)
		}
		dst[j].Prob = dict[d]
	}
	return dst, nil
}

// DecodeAll decodes the whole list into dst (reusing its capacity).
func (l BlockList) DecodeAll(dst []Entry) ([]Entry, error) {
	if cap(dst) < l.count {
		dst = make([]Entry, 0, l.count)
	}
	dst = dst[:0]
	var buf [BlockLen]Entry
	for b := 0; b < l.NumBlocks(); b++ {
		block, err := l.DecodeBlock(b, buf[:0])
		if err != nil {
			return nil, err
		}
		dst = append(dst, block...)
	}
	return dst, nil
}

// BlockCursor iterates a BlockList one entry at a time, decoding one block
// at a time into an internal scratch buffer (retained across Resets, so
// pooled cursors decode allocation-free in steady state). It implements
// Cursor; for ID-ordered lists it additionally supports SkipTo.
//
// A cursor may alternatively run in shared mode (ResetShared): block
// decodes then go through a ShareCache keyed by list and block, so a batch
// of queries touching the same lists decodes each block once. In shared
// mode buf aliases cache-owned memory and is never written through.
type BlockCursor struct {
	list      BlockList
	buf       []Entry // decoded entries of block blk
	blk       int     // index of the decoded block, -1 before the first decode
	i         int     // next entry within buf
	pos       int     // entries consumed overall
	err       error
	share     *ShareCache // nil in unshared mode
	shareList *shareList  // the cache's slot vector for list (shared mode only)
	priv      []Entry     // shared mode: cursor-owned scratch for busy-slot bypass decodes
}

// NewBlockCursor returns a cursor positioned at the start of the list.
func NewBlockCursor(l BlockList) *BlockCursor {
	c := &BlockCursor{}
	c.Reset(l)
	return c
}

// Reset repoints the cursor at a new list and rewinds it, retaining the
// decode buffer. Resetting to the zero BlockList releases any reference to
// the previous list's backing memory (e.g. a mapped snapshot region).
func (c *BlockCursor) Reset(l BlockList) {
	if c.share != nil {
		// Leaving shared mode: buf aliases cache-owned memory, so drop it
		// entirely rather than reuse it as decode scratch.
		c.buf = nil
		c.share = nil
		c.shareList = nil
	}
	c.list = l
	c.blk = -1
	c.i = 0
	c.pos = 0
	c.err = nil
	c.buf = c.buf[:0]
}

// ResetShared repoints the cursor at a new list in shared mode: block
// decodes are served from (and populate) sc under the given cache key,
// which must uniquely identify the list within the cache (e.g. its word
// plus an index-generation prefix). The cursor only ever reads the cached
// entries, so any number of cursors may share one cache concurrently.
func (c *BlockCursor) ResetShared(l BlockList, key string, sc *ShareCache) {
	// Whether entering shared mode or moving between shared lists, buf
	// must not carry over: it either aliases cache-owned memory (never to
	// be written) or is a private buffer about to be shadowed.
	c.buf = nil
	c.list = l
	c.blk = -1
	c.i = 0
	c.pos = 0
	c.err = nil
	c.share = sc
	c.shareList = sc.list(l, key)
}

// Len reports the total number of entries in the list.
func (c *BlockCursor) Len() int { return c.list.count }

// Pos reports how many entries have been consumed (including skipped ones).
func (c *BlockCursor) Pos() int { return c.pos }

// Err reports a decode error encountered by Next or SkipTo, if any.
func (c *BlockCursor) Err() error { return c.err }

// loadBlock decodes block b into the scratch buffer (or fetches it from
// the share cache in shared mode).
func (c *BlockCursor) loadBlock(b int) bool {
	if c.share != nil {
		buf, err, ok := c.shareList.block(c.share, c.list, b)
		if ok {
			if err != nil {
				c.err = err
				return false
			}
			c.buf = buf
			c.blk = b
			return true
		}
		// The slot's decode is in flight: decode privately into
		// cursor-owned scratch instead of waiting (priv never aliases
		// cache memory, so reusing it across blocks is safe).
		buf, err = c.list.DecodeBlock(b, c.priv[:0])
		if err != nil {
			c.err = err
			return false
		}
		c.priv = buf
		c.buf = buf
		c.blk = b
		return true
	}
	buf, err := c.list.DecodeBlock(b, c.buf[:0])
	if err != nil {
		c.err = err
		return false
	}
	c.buf = buf
	c.blk = b
	return true
}

// Next returns the next entry. ok is false at end of list or on error;
// check Err afterwards.
func (c *BlockCursor) Next() (Entry, bool) {
	if c.err != nil || c.pos >= c.list.count {
		return Entry{}, false
	}
	if c.blk < 0 || c.i >= len(c.buf) {
		if !c.loadBlock(c.pos / BlockLen) {
			return Entry{}, false
		}
		c.i = c.pos % BlockLen
	}
	e := c.buf[c.i]
	c.i++
	c.pos++
	return e, true
}

// SkipTo advances the cursor past every entry whose phrase ID is below id
// and consumes and returns the first entry with Phrase >= id. It gallops
// across the skip table (exponential probe + binary search over the fixed-
// width skip entries), so skipped blocks are never decoded. ok is false
// when no such entry remains or on error (ID-ordered lists only).
func (c *BlockCursor) SkipTo(id phrasedict.PhraseID) (Entry, bool) {
	if c.err != nil || c.pos >= c.list.count {
		return Entry{}, false
	}
	if c.list.ord != OrderID {
		c.err = fmt.Errorf("plist: SkipTo requires an ID-ordered list, got %v", c.list.ord)
		return Entry{}, false
	}
	cur := c.pos / BlockLen
	// Gallop: find the last block whose firstID <= id, starting from the
	// current block (skip entries are read directly from the encoded skip
	// table; no block decode).
	target := cur
	if first, _ := c.list.Skip(cur); first <= id {
		// Exponential probe for an upper bound.
		step := 1
		hi := cur + 1
		for hi < c.list.NumBlocks() {
			if first, _ := c.list.Skip(hi); first > id {
				break
			}
			target = hi
			hi += step
			step *= 2
		}
		if hi > c.list.NumBlocks() {
			hi = c.list.NumBlocks()
		}
		// Binary search in (target, hi) for the last block with
		// firstID <= id.
		lo := target + 1
		for lo < hi {
			mid := (lo + hi) / 2
			if first, _ := c.list.Skip(mid); first <= id {
				target = mid
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	if target != c.blk {
		if !c.loadBlock(target) {
			return Entry{}, false
		}
		c.i = 0
		if target == cur {
			c.i = c.pos % BlockLen
		}
	}
	// Binary search within the decoded block for the first entry >= id.
	lo, hi := c.i, len(c.buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.buf[mid].Phrase < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(c.buf) {
		// Every entry of this block is below id; the answer (if any) is
		// the first entry of the next block, whose firstID must be > id
		// by the gallop invariant.
		next := target + 1
		if next >= c.list.NumBlocks() {
			c.pos = c.list.count
			return Entry{}, false
		}
		if !c.loadBlock(next) {
			return Entry{}, false
		}
		c.i = 1
		c.pos = next*BlockLen + 1
		return c.buf[0], true
	}
	c.i = lo + 1
	c.pos = target*BlockLen + lo + 1
	return c.buf[lo], true
}
