package corpus

// This file implements the block-compressed physical layout of inverted
// posting lists, mirroring internal/plist's block format for word-specific
// lists: postings are grouped into blocks of PostingBlockLen delta/varint-
// encoded DocIDs, each block described by a fixed-width skip entry (first
// DocID, byte offset) that lets a cursor gallop to a target document without
// decoding skipped blocks. A whole inverted index serializes as a feature
// directory plus one flat data region, so opening it — from a heap buffer
// or a memory-mapped snapshot section — costs O(#features), and individual
// posting lists decode lazily on first access.
//
// Serialized index layout (all integers little-endian):
//
//	[0,8)    magic "PMINVBK2"
//	[8,12)   numDocs uint32
//	[12,16)  numFeatures uint32
//	[16,24)  directory size in bytes, uint64
//	[24,32)  packed-codec block count, uint64
//	[32,40)  packed-codec payload bytes, uint64
//	then the directory, per feature in sorted order:
//	             nameLen uint16, name bytes,
//	             offset  uint64 (into the data region),
//	             size    uint32 (encoded list bytes),
//	             count   uint32 (postings)
//	then the data region: per-feature encodings, contiguous.
//
// Per-list encoding (count comes from the directory):
//
//	skip table: ceil(count/PostingBlockLen) entries of 8 bytes:
//	    firstDoc uint32, offset uint32 (relative to payload start)
//	payload blocks encoding DocIDs 1..n-1 of the block (the first DocID
//	lives in the skip entry). Every block starts with a codec tag byte:
//	    tag 0 (varint): uvarint gaps to the predecessor (strictly
//	        increasing lists, so every gap >= 1)
//	    tag 1 (packed): a bitpack frame of gap-1 values, fixed bit-width
//	        with PFOR exceptions (gaps are >= 1, so dense runs pack at
//	        zero width and a zero gap is inexpressible)
//	The codec is chosen per block at build time by encoded size.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"phrasemine/internal/bitpack"
)

// PostingBlockLen is the number of postings per compressed block.
const PostingBlockLen = 128

// postingSkipSize is the fixed width of one posting skip entry.
const postingSkipSize = 4 + 4

var invertedBlockMagic = [8]byte{'P', 'M', 'I', 'N', 'V', 'B', 'K', '2'}

const invertedBlockHeaderSize = 40

// Per-block codec tags (first payload byte of every block), mirroring
// internal/plist.
const (
	postingTagVarint = 0
	postingTagPacked = 1
)

// AppendBlockPostingsCodec appends the block-compressed encoding of a
// strictly increasing posting list to buf under the given codec policy
// (bitpack.CodecAuto chooses per block), reporting how many blocks (and
// payload bytes) chose the packed representation.
func AppendBlockPostingsCodec(buf []byte, list []DocID, codec bitpack.Codec) (out []byte, packedBlocks int, packedBytes int64, err error) {
	if err := codec.Validate(); err != nil {
		return nil, 0, 0, err
	}
	numBlocks := (len(list) + PostingBlockLen - 1) / PostingBlockLen
	skipStart := len(buf)
	buf = append(buf, make([]byte, numBlocks*postingSkipSize)...)
	payloadStart := len(buf)
	for b := 0; b < numBlocks; b++ {
		lo := b * PostingBlockLen
		hi := lo + PostingBlockLen
		if hi > len(list) {
			hi = len(list)
		}
		offset := len(buf) - payloadStart
		if offset > math.MaxUint32 {
			return nil, 0, 0, fmt.Errorf("corpus: compressed postings exceed 4GiB block offset range")
		}
		skip := buf[skipStart+b*postingSkipSize:]
		binary.LittleEndian.PutUint32(skip[0:4], uint32(list[lo]))
		binary.LittleEndian.PutUint32(skip[4:8], uint32(offset))
		// Gather gap-1 values for the packed codec and cost both codecs.
		var packedVals [PostingBlockLen]uint32
		varintSize := 0
		for j := lo + 1; j < hi; j++ {
			if list[j] <= list[j-1] {
				return nil, 0, 0, fmt.Errorf("corpus: posting order violated at %d: %d after %d", j, list[j], list[j-1])
			}
			g := uint64(list[j] - list[j-1])
			packedVals[j-lo-1] = uint32(g - 1)
			varintSize += bitpack.UvarintLen(g)
		}
		vals := packedVals[:hi-lo-1]
		blockStart := len(buf)
		if codec == bitpack.CodecAuto && bitpack.FrameSize(vals) <= varintSize {
			buf = append(buf, postingTagPacked)
			buf = bitpack.AppendFrame(buf, vals)
			packedBlocks++
			packedBytes += int64(len(buf) - blockStart)
		} else {
			buf = append(buf, postingTagVarint)
			for j := lo + 1; j < hi; j++ {
				buf = binary.AppendUvarint(buf, uint64(list[j]-list[j-1]))
			}
		}
	}
	for b := 1; b < numBlocks; b++ {
		if list[b*PostingBlockLen] <= list[b*PostingBlockLen-1] {
			return nil, 0, 0, fmt.Errorf("corpus: posting order violated at block %d boundary", b)
		}
	}
	return buf, packedBlocks, packedBytes, nil
}

// BlockPostings is a read-only view over one block-compressed posting list.
// The zero value is an empty list.
type BlockPostings struct {
	data  []byte
	count int
}

// NewBlockPostings wraps an encoded posting list of count postings in the
// block format produced by AppendBlockPostingsCodec, validating the skip-table
// bounds.
func NewBlockPostings(data []byte, count int) (BlockPostings, error) {
	if count < 0 {
		return BlockPostings{}, fmt.Errorf("corpus: negative posting count %d", count)
	}
	if count == 0 {
		if len(data) != 0 {
			return BlockPostings{}, fmt.Errorf("corpus: %d data bytes for an empty posting list", len(data))
		}
		return BlockPostings{}, nil
	}
	numBlocks := (count + PostingBlockLen - 1) / PostingBlockLen
	skipSize := numBlocks * postingSkipSize
	if len(data) < skipSize {
		return BlockPostings{}, fmt.Errorf("corpus: %d data bytes cannot hold %d posting skip entries", len(data), numBlocks)
	}
	payloadSize := len(data) - skipSize
	for b := 0; b < numBlocks; b++ {
		off := int(binary.LittleEndian.Uint32(data[b*postingSkipSize+4:]))
		if off > payloadSize {
			return BlockPostings{}, fmt.Errorf("corpus: posting block %d offset %d beyond payload of %d bytes", b, off, payloadSize)
		}
	}
	return BlockPostings{data: data, count: count}, nil
}

// Len reports the number of postings.
func (p BlockPostings) Len() int { return p.count }

// NumBlocks reports the number of blocks.
func (p BlockPostings) NumBlocks() int {
	return (p.count + PostingBlockLen - 1) / PostingBlockLen
}

// SizeBytes reports the encoded size.
func (p BlockPostings) SizeBytes() int { return len(p.data) }

// FirstDoc reports block b's first DocID straight from the skip table.
func (p BlockPostings) FirstDoc(b int) DocID {
	return DocID(binary.LittleEndian.Uint32(p.data[b*postingSkipSize:]))
}

// blockExtent returns block b's payload byte range within data.
func (p BlockPostings) blockExtent(b int) (lo, hi int) {
	payloadStart := p.NumBlocks() * postingSkipSize
	lo = payloadStart + int(binary.LittleEndian.Uint32(p.data[b*postingSkipSize+4:]))
	if b+1 < p.NumBlocks() {
		hi = payloadStart + int(binary.LittleEndian.Uint32(p.data[(b+1)*postingSkipSize+4:]))
	} else {
		hi = len(p.data)
	}
	return lo, hi
}

// blockLen reports the number of postings in block b.
func (p BlockPostings) blockLen(b int) int {
	if b == p.NumBlocks()-1 {
		return p.count - b*PostingBlockLen
	}
	return PostingBlockLen
}

// DecodeBlock decodes block b into dst (reusing its capacity), validating
// strict posting order and in-bounds reads.
func (p BlockPostings) DecodeBlock(b int, dst []DocID) ([]DocID, error) {
	if b < 0 || b >= p.NumBlocks() {
		return nil, fmt.Errorf("corpus: posting block %d out of range [0,%d)", b, p.NumBlocks())
	}
	n := p.blockLen(b)
	if cap(dst) < n {
		dst = make([]DocID, n)
	}
	dst = dst[:n]
	lo, hi := p.blockExtent(b)
	if lo > hi || hi > len(p.data) {
		return nil, fmt.Errorf("corpus: posting block %d has inverted extent [%d,%d)", b, lo, hi)
	}
	buf := p.data[lo:hi]
	if len(buf) == 0 {
		return nil, fmt.Errorf("corpus: posting block %d: missing codec tag", b)
	}
	pos := 1
	prev := uint64(p.FirstDoc(b))
	dst[0] = DocID(prev)
	switch tag := buf[0]; tag {
	case postingTagVarint:
		for j := 1; j < n; j++ {
			gap, w := binary.Uvarint(buf[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("corpus: posting block %d: truncated gap at posting %d", b, j)
			}
			pos += w
			if gap == 0 {
				return nil, fmt.Errorf("corpus: posting block %d: zero gap at posting %d", b, j)
			}
			prev += gap
			if prev > math.MaxUint32 {
				return nil, fmt.Errorf("corpus: posting block %d: DocID %d overflows uint32", b, prev)
			}
			dst[j] = DocID(prev)
		}
	case postingTagPacked:
		var vals [PostingBlockLen]uint32
		w, err := bitpack.DecodeFrame(vals[:n-1], buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("corpus: posting block %d: %w", b, err)
		}
		pos += w
		for j := 1; j < n; j++ {
			prev += uint64(vals[j-1]) + 1
			if prev > math.MaxUint32 {
				return nil, fmt.Errorf("corpus: posting block %d: DocID %d overflows uint32", b, prev)
			}
			dst[j] = DocID(prev)
		}
	default:
		return nil, fmt.Errorf("corpus: posting block %d: unknown codec tag %d", b, tag)
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("corpus: posting block %d: %d trailing bytes", b, len(buf)-pos)
	}
	return dst, nil
}

// DecodeAll decodes the whole posting list into dst (reusing its capacity).
func (p BlockPostings) DecodeAll(dst []DocID) ([]DocID, error) {
	if cap(dst) < p.count {
		dst = make([]DocID, 0, p.count)
	}
	dst = dst[:0]
	var buf [PostingBlockLen]DocID
	for b := 0; b < p.NumBlocks(); b++ {
		block, err := p.DecodeBlock(b, buf[:0])
		if err != nil {
			return nil, err
		}
		dst = append(dst, block...)
	}
	return dst, nil
}

// PostingCursor iterates a BlockPostings one DocID at a time, decoding one
// block at a time, with a galloping SkipTo over the skip table. It is the
// substrate for streamed compressed intersections (locked by fuzz and
// benchmarks); the query paths currently reach postings through
// Inverted.Docs' decode-once cache and DocFreq's directory lookups.
type PostingCursor struct {
	list BlockPostings
	buf  []DocID
	blk  int
	i    int
	pos  int
	err  error
}

// Reset repoints the cursor at a new list and rewinds it, retaining the
// decode buffer.
func (c *PostingCursor) Reset(p BlockPostings) {
	c.list = p
	c.blk = -1
	c.i = 0
	c.pos = 0
	c.err = nil
	c.buf = c.buf[:0]
}

// Len reports the total posting count.
func (c *PostingCursor) Len() int { return c.list.count }

// Pos reports how many postings have been consumed (including skipped).
func (c *PostingCursor) Pos() int { return c.pos }

// Err reports a decode error encountered by Next or SkipTo.
func (c *PostingCursor) Err() error { return c.err }

func (c *PostingCursor) loadBlock(b int) bool {
	buf, err := c.list.DecodeBlock(b, c.buf[:0])
	if err != nil {
		c.err = err
		return false
	}
	c.buf = buf
	c.blk = b
	return true
}

// Next returns the next DocID; ok is false at end of list or on error.
func (c *PostingCursor) Next() (DocID, bool) {
	if c.err != nil || c.pos >= c.list.count {
		return 0, false
	}
	if c.blk < 0 || c.i >= len(c.buf) {
		if !c.loadBlock(c.pos / PostingBlockLen) {
			return 0, false
		}
		c.i = c.pos % PostingBlockLen
	}
	d := c.buf[c.i]
	c.i++
	c.pos++
	return d, true
}

// SkipTo advances past every posting below id and consumes and returns the
// first posting >= id, galloping across skip entries so skipped blocks are
// never decoded. ok is false when no such posting remains or on error.
func (c *PostingCursor) SkipTo(id DocID) (DocID, bool) {
	if c.err != nil || c.pos >= c.list.count {
		return 0, false
	}
	cur := c.pos / PostingBlockLen
	target := cur
	if c.list.FirstDoc(cur) <= id {
		step := 1
		hi := cur + 1
		for hi < c.list.NumBlocks() && c.list.FirstDoc(hi) <= id {
			target = hi
			hi += step
			step *= 2
		}
		if hi > c.list.NumBlocks() {
			hi = c.list.NumBlocks()
		}
		lo := target + 1
		for lo < hi {
			mid := (lo + hi) / 2
			if c.list.FirstDoc(mid) <= id {
				target = mid
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	if target != c.blk {
		if !c.loadBlock(target) {
			return 0, false
		}
		c.i = 0
		if target == cur {
			c.i = c.pos % PostingBlockLen
		}
	}
	lo, hi := c.i, len(c.buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.buf[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(c.buf) {
		next := target + 1
		if next >= c.list.NumBlocks() {
			c.pos = c.list.count
			return 0, false
		}
		if !c.loadBlock(next) {
			return 0, false
		}
		c.i = 1
		c.pos = next*PostingBlockLen + 1
		return c.buf[0], true
	}
	c.i = lo + 1
	c.pos = target*PostingBlockLen + lo + 1
	return c.buf[lo], true
}

// AppendBlockIndex appends the block-compressed inverted-index encoding to
// buf: feature directory plus per-feature compressed posting lists, in
// sorted feature order (deterministic bytes for identical indexes), with
// the codec chosen per block.
func (ix *Inverted) AppendBlockIndex(buf []byte) ([]byte, error) {
	return ix.AppendBlockIndexCodec(buf, bitpack.CodecAuto)
}

// AppendBlockIndexCodec is AppendBlockIndex with an explicit codec policy.
func (ix *Inverted) AppendBlockIndexCodec(buf []byte, codec bitpack.Codec) ([]byte, error) {
	feats := ix.Features()
	var hdr [invertedBlockHeaderSize]byte
	copy(hdr[:8], invertedBlockMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(ix.numDocs))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(feats)))
	dirSize := 0
	for _, f := range feats {
		if len(f) > 1<<16-1 {
			return nil, fmt.Errorf("corpus: feature of %d bytes exceeds directory limit", len(f))
		}
		dirSize += 2 + len(f) + 8 + 4 + 4
	}
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(dirSize))
	hdrStart := len(buf)
	buf = append(buf, hdr[:]...)

	dirStart := len(buf)
	buf = append(buf, make([]byte, dirSize)...)
	dataStart := len(buf)
	dirPos := dirStart
	packedBlocks := 0
	packedBytes := int64(0)
	for _, f := range feats {
		start := len(buf)
		list, err := ix.Docs(f)
		if err != nil {
			return nil, err
		}
		var pb int
		var pby int64
		buf, pb, pby, err = AppendBlockPostingsCodec(buf, list, codec)
		if err != nil {
			return nil, fmt.Errorf("corpus: compressing postings of %q: %w", f, err)
		}
		packedBlocks += pb
		packedBytes += pby
		binary.LittleEndian.PutUint16(buf[dirPos:], uint16(len(f)))
		dirPos += 2
		copy(buf[dirPos:], f)
		dirPos += len(f)
		binary.LittleEndian.PutUint64(buf[dirPos:], uint64(start-dataStart))
		dirPos += 8
		binary.LittleEndian.PutUint32(buf[dirPos:], uint32(len(buf)-start))
		dirPos += 4
		binary.LittleEndian.PutUint32(buf[dirPos:], uint32(ix.DocFreq(f)))
		dirPos += 4
	}
	// The packed totals are only known after encoding; patch the header.
	binary.LittleEndian.PutUint64(buf[hdrStart+24:], uint64(packedBlocks))
	binary.LittleEndian.PutUint64(buf[hdrStart+32:], uint64(packedBytes))
	return buf, nil
}

// OpenBlockInverted parses a block-compressed inverted index, keeping
// posting data as subslices of data (zero copy; data may be a mapped
// region). Opening costs O(#features): posting lists decode lazily on the
// first Docs call for each feature and are then cached, so repeated queries
// on the same features pay the decode once.
func OpenBlockInverted(data []byte) (*Inverted, error) {
	const hdrSize = invertedBlockHeaderSize
	if len(data) < hdrSize {
		return nil, fmt.Errorf("corpus: block inverted index of %d bytes is shorter than its %d-byte header", len(data), hdrSize)
	}
	if !bytes.Equal(data[:8], invertedBlockMagic[:]) {
		return nil, fmt.Errorf("corpus: bad block inverted magic %q", data[:8])
	}
	numDocs := int(binary.LittleEndian.Uint32(data[8:12]))
	numFeatures := int(binary.LittleEndian.Uint32(data[12:16]))
	dirSize := binary.LittleEndian.Uint64(data[16:24])
	packedBlocks := int(binary.LittleEndian.Uint64(data[24:32]))
	packedBytes := int64(binary.LittleEndian.Uint64(data[32:40]))
	if dirSize > uint64(len(data)-hdrSize) {
		return nil, fmt.Errorf("corpus: inverted directory of %d bytes exceeds payload", dirSize)
	}
	dirBytes := data[hdrSize : hdrSize+int(dirSize)]
	region := data[hdrSize+int(dirSize):]
	ix := &Inverted{
		numDocs:      numDocs,
		blocks:       make(map[string]BlockPostings, numFeatures),
		cache:        make(map[string][]DocID),
		packedBlocks: packedBlocks,
		packedBytes:  packedBytes,
	}
	pos := 0
	for i := 0; i < numFeatures; i++ {
		if pos+2 > len(dirBytes) {
			return nil, fmt.Errorf("corpus: truncated inverted directory at feature %d", i)
		}
		nl := int(binary.LittleEndian.Uint16(dirBytes[pos:]))
		pos += 2
		if pos+nl+16 > len(dirBytes) {
			return nil, fmt.Errorf("corpus: truncated inverted directory entry for feature %d", i)
		}
		name := string(dirBytes[pos : pos+nl])
		pos += nl
		off := binary.LittleEndian.Uint64(dirBytes[pos:])
		pos += 8
		size := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		count := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		// Overflow-safe bounds check: off+size could wrap uint64.
		if off > uint64(len(region)) || uint64(size) > uint64(len(region))-off {
			return nil, fmt.Errorf("corpus: feature %q extent beyond data region", name)
		}
		if _, dup := ix.blocks[name]; dup {
			return nil, fmt.Errorf("corpus: duplicate feature %q", name)
		}
		bp, err := NewBlockPostings(region[off:off+uint64(size)], count)
		if err != nil {
			return nil, fmt.Errorf("corpus: feature %q: %w", name, err)
		}
		ix.blocks[name] = bp
		ix.blockBytes += int64(size)
		ix.blockPostings += count
	}
	if pos != len(dirBytes) {
		return nil, fmt.Errorf("corpus: %d trailing inverted directory bytes", len(dirBytes)-pos)
	}
	return ix, nil
}

// MaterializeAll decodes every posting list into the eager map form,
// leaving the index indistinguishable from a freshly built one (the
// heap-resident snapshot-load path).
func (ix *Inverted) MaterializeAll() error {
	if ix.blocks == nil {
		return nil
	}
	postings := make(map[string][]DocID, len(ix.blocks))
	for f, bp := range ix.blocks {
		list, err := bp.DecodeAll(make([]DocID, 0, bp.Len()))
		if err != nil {
			return fmt.Errorf("corpus: feature %q: %w", f, err)
		}
		if bp.Len() > 0 && int(list[len(list)-1]) >= ix.numDocs {
			return fmt.Errorf("corpus: feature %q: DocID %d out of range %d", f, list[len(list)-1], ix.numDocs)
		}
		postings[f] = list
	}
	ix.postings = postings
	ix.blocks = nil
	ix.cache = nil
	ix.packedBlocks = 0
	ix.packedBytes = 0
	return nil
}

// PostingStats reports the index's physical footprint: total postings and
// the bytes that hold them (compressed bytes for a block-backed index, 4
// bytes per posting for eager slices), plus whether the backing store is
// the compressed block form.
func (ix *Inverted) PostingStats() (postings int, bytes int64, compressed bool) {
	if ix.blocks != nil {
		return ix.blockPostings, ix.blockBytes, true
	}
	for _, l := range ix.postings {
		postings += len(l)
	}
	return postings, int64(postings) * 4, false
}

// PackedPostingStats reports the packed-codec share of a block-backed
// index (zeros for eager indexes).
func (ix *Inverted) PackedPostingStats() (blocks int, bytes int64) {
	return ix.packedBlocks, ix.packedBytes
}
