package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/topk"
)

// DiskRow is one bar of Figures 9-10: the per-query cost of disk-resident
// NRA at a partial-list percentage, broken into computation time (measured)
// and disk IO time (simulated per the paper's Section 5.5 methodology), in
// milliseconds.
type DiskRow struct {
	Dataset   string
	Op        corpus.Operator
	ListPct   int
	ComputeMS float64
	DiskMS    float64
	TotalMS   float64
	// SeqFetches/RandFetches expose the underlying access mix.
	SeqFetches  float64
	RandFetches float64
}

// The disk-resident list file of Figures 9, 10, 12 and 13 ("PMLIST01"):
// the paper's uncompressed layout of Fig. 2, read through the simulated
// disk of internal/diskio so its cost model sees the true access pattern.
// Only these figures use it; the product stores lists in the snapshot's
// block-compressed form.
//
//	[0,8)    magic "PMLIST01"
//	[8,9)    ordering byte (0: score-ordered, the only layout written)
//	[9,12)   zero padding
//	[12,16)  numWords uint32 LE
//	[16,24)  directory size in bytes, uint64 LE
//	[24,24+dirSize)  directory: per word
//	             wordLen uint16 LE, word bytes,
//	             offset uint64 LE (absolute file offset of the list),
//	             numEntries uint32 LE
//	then, contiguous per-word extents of plist.EntrySize-byte entries
//	(uint32 phrase ID, float64 probability, both LE), in directory order.
//	Contiguity per list is what makes NRA's round-robin consumption
//	mostly sequential under the disk cost model.
const listFileHeaderSize = 24

var listFileMagic = [8]byte{'P', 'M', 'L', 'I', 'S', 'T', '0', '1'}

// encodeEntry writes e into buf (at least plist.EntrySize bytes): the
// paper's "12 bytes per entry (4 for phrase ID and 8 for storing the
// probability value)".
func encodeEntry(buf []byte, e plist.Entry) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(e.Phrase))
	binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(e.Prob))
}

// decodeEntry reads an entry written by encodeEntry.
func decodeEntry(buf []byte) plist.Entry {
	return plist.Entry{
		Phrase: phrasedict.PhraseID(binary.LittleEndian.Uint32(buf[0:4])),
		Prob:   math.Float64frombits(binary.LittleEndian.Uint64(buf[4:12])),
	}
}

// writeListFile serializes score-ordered lists. Words are written in
// sorted order so output is deterministic.
func writeListFile(w io.Writer, lists map[string]plist.ScoreList) (int64, error) {
	words := make([]string, 0, len(lists))
	for word := range lists {
		if len(word) > 1<<16-1 {
			return 0, fmt.Errorf("experiments: word of %d bytes exceeds directory limit", len(word))
		}
		words = append(words, word)
	}
	sort.Strings(words)

	var dir bytes.Buffer
	offset := int64(listFileHeaderSize)
	for _, word := range words {
		offset += int64(2 + len(word) + 8 + 4)
	}
	for _, word := range words {
		var tmp [8]byte
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(word)))
		dir.Write(tmp[:2])
		dir.WriteString(word)
		binary.LittleEndian.PutUint64(tmp[:8], uint64(offset))
		dir.Write(tmp[:8])
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(lists[word])))
		dir.Write(tmp[:4])
		offset += plist.SizeBytes(len(lists[word]))
	}

	var hdr [listFileHeaderSize]byte
	copy(hdr[:8], listFileMagic[:])
	hdr[8] = byte(plist.OrderScore)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(words)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(dir.Len()))

	var written int64
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("experiments: writing list file header: %w", err)
	}
	n, err = w.Write(dir.Bytes())
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("experiments: writing list file directory: %w", err)
	}
	buf := make([]byte, 64*1024)
	for _, word := range words {
		entries := lists[word]
		for start := 0; start < len(entries); {
			chunk := min(len(entries)-start, len(buf)/plist.EntrySize)
			for i := 0; i < chunk; i++ {
				encodeEntry(buf[i*plist.EntrySize:], entries[start+i])
			}
			n, err = w.Write(buf[:chunk*plist.EntrySize])
			written += int64(n)
			if err != nil {
				return written, fmt.Errorf("experiments: writing list %q: %w", word, err)
			}
			start += chunk
		}
	}
	return written, nil
}

// listExtent locates one word's list inside a list file.
type listExtent struct {
	offset int64 // absolute file offset of the first entry
	count  int   // number of entries
}

// listFile gives per-word cursor access to a list file through any
// io.ReaderAt — in particular a simulated diskio.File. The directory is
// held in memory, as a deployed system would.
type listFile struct {
	ra  io.ReaderAt
	dir map[string]listExtent
}

// openListFile parses the header and directory of a list file.
func openListFile(ra io.ReaderAt) (*listFile, error) {
	var hdr [listFileHeaderSize]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("experiments: reading list file header: %w", err)
	}
	if !bytes.Equal(hdr[:8], listFileMagic[:]) {
		return nil, fmt.Errorf("experiments: bad list file magic %q", hdr[:8])
	}
	if ord := plist.Ordering(hdr[8]); ord != plist.OrderScore {
		return nil, fmt.Errorf("experiments: list file ordering %v, want score", ord)
	}
	numWords := int(binary.LittleEndian.Uint32(hdr[12:16]))
	dirSize := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	dirBytes := make([]byte, dirSize)
	if _, err := ra.ReadAt(dirBytes, listFileHeaderSize); err != nil {
		return nil, fmt.Errorf("experiments: reading list file directory: %w", err)
	}
	lf := &listFile{ra: ra, dir: make(map[string]listExtent, numWords)}
	pos := 0
	for i := 0; i < numWords; i++ {
		if pos+2 > len(dirBytes) {
			return nil, fmt.Errorf("experiments: truncated directory at word %d", i)
		}
		wl := int(binary.LittleEndian.Uint16(dirBytes[pos:]))
		pos += 2
		if pos+wl+12 > len(dirBytes) {
			return nil, fmt.Errorf("experiments: truncated directory entry for word %d", i)
		}
		word := string(dirBytes[pos : pos+wl])
		pos += wl
		off := int64(binary.LittleEndian.Uint64(dirBytes[pos:]))
		pos += 8
		cnt := int(binary.LittleEndian.Uint32(dirBytes[pos:]))
		pos += 4
		if _, dup := lf.dir[word]; dup {
			return nil, fmt.Errorf("experiments: duplicate directory entry %q", word)
		}
		lf.dir[word] = listExtent{offset: off, count: cnt}
	}
	return lf, nil
}

// cursor returns a sequential cursor over the word's list. A missing word
// yields an empty cursor, matching the semantics of a zero-probability
// list.
func (lf *listFile) cursor(word string) *fileCursor {
	return &fileCursor{ra: lf.ra, ext: lf.dir[word]}
}

// fileCursor iterates one list entry at a time through the underlying
// ReaderAt. Per-entry reads deliberately mirror how the NRA algorithm
// consumes lists ("the first entries of each of the r lists are read,
// followed by the second entries and so on") so that the simulated page
// cache sees the true access pattern.
type fileCursor struct {
	ra  io.ReaderAt
	ext listExtent
	pos int
	err error
	buf [plist.EntrySize]byte
}

var _ plist.Cursor = (*fileCursor)(nil)

// Len reports the total number of entries in the list.
func (c *fileCursor) Len() int { return c.ext.count }

// Pos reports how many entries have been consumed.
func (c *fileCursor) Pos() int { return c.pos }

// Next returns the next entry. ok is false at end of list or on error;
// check Err afterwards.
func (c *fileCursor) Next() (e plist.Entry, ok bool) {
	if c.err != nil || c.pos >= c.ext.count {
		return plist.Entry{}, false
	}
	if _, err := c.ra.ReadAt(c.buf[:], c.ext.offset+plist.SizeBytes(c.pos)); err != nil {
		c.err = fmt.Errorf("experiments: cursor read at entry %d: %w", c.pos, err)
		return plist.Entry{}, false
	}
	c.pos++
	return decodeEntry(c.buf[:]), true
}

// Err reports a read error encountered by Next, if any.
func (c *fileCursor) Err() error { return c.err }

// openSimDiskIndex writes ix's score-ordered lists (truncated to fraction)
// as a list file named name on the simulated disk and opens it. Reads
// through the returned file are charged to the disk's cost model.
func openSimDiskIndex(disk *diskio.Disk, ix *core.Index, name string, fraction float64) (*listFile, error) {
	lists, err := ix.ScoreLists()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := writeListFile(&buf, plist.TruncateAll(lists, fraction)); err != nil {
		return nil, err
	}
	if err := disk.CreateFile(name, buf.Bytes()); err != nil {
		return nil, err
	}
	f, err := disk.File(name)
	if err != nil {
		return nil, err
	}
	return openListFile(f)
}

// queryNRADisk answers q with NRA over the list file, the paper's
// disk-resident deployment: only the lists of q's features are read.
func queryNRADisk(ix *core.Index, lf *listFile, q corpus.Query, opt topk.NRAOptions) ([]topk.Result, topk.NRAStats, error) {
	if err := q.Validate(); err != nil {
		return nil, topk.NRAStats{}, err
	}
	opt.Op = q.Op
	pool := ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors := s.Cursors(len(q.Features))
	for i, f := range q.Features {
		cursors[i] = lf.cursor(f)
	}
	return topk.NRAScratch(cursors, opt, s)
}

// diskSetup caches the list file on the simulated disk per dataset.
type diskSetup struct {
	disk  *diskio.Disk
	lists *listFile
}

var (
	diskMu     sync.Mutex
	diskSetups = map[string]*diskSetup{}
)

func getDiskSetup(ds *Dataset) (*diskSetup, error) {
	diskMu.Lock()
	defer diskMu.Unlock()
	if s, ok := diskSetups[ds.Name]; ok {
		return s, nil
	}
	disk, err := diskio.NewDisk(diskio.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	lists, err := openSimDiskIndex(disk, ds.Index, "lists.idx", 1.0)
	if err != nil {
		return nil, err
	}
	s := &diskSetup{disk: disk, lists: lists}
	diskSetups[ds.Name] = s
	return s, nil
}

// RunNRADiskBreakup reproduces Figures 9-10: disk-resident NRA response
// times at increasing partial-list percentages, split into computational
// and disk-access costs. Each query starts with a cold page cache so that
// per-query costs are comparable (the paper's simulation methodology logs
// accesses per run).
func RunNRADiskBreakup(ds *Dataset, op corpus.Operator, fractions []float64, k int) ([]DiskRow, error) {
	setup, err := getDiskSetup(ds)
	if err != nil {
		return nil, err
	}
	queries := ds.Queries(op)
	var rows []DiskRow
	for _, frac := range fractions {
		var computeMS, diskMS, seq, rnd float64
		for _, q := range queries {
			setup.disk.DropCaches()
			setup.disk.ResetStats()
			start := time.Now()
			if _, _, err := queryNRADisk(ds.Index, setup.lists, q, topk.NRAOptions{K: k, Fraction: frac}); err != nil {
				return nil, fmt.Errorf("nra-disk %s %v: %w", ds.Name, q, err)
			}
			computeMS += float64(time.Since(start).Microseconds()) / 1000.0
			st := setup.disk.Stats()
			diskMS += st.IOTimeMS
			seq += float64(st.SeqFetches)
			rnd += float64(st.RandFetches)
		}
		n := float64(len(queries))
		rows = append(rows, DiskRow{
			Dataset:     ds.Name,
			Op:          op,
			ListPct:     pct(frac),
			ComputeMS:   computeMS / n,
			DiskMS:      diskMS / n,
			TotalMS:     (computeMS + diskMS) / n,
			SeqFetches:  seq / n,
			RandFetches: rnd / n,
		})
	}
	return rows, nil
}

// TraversalRow is one bar of Figure 11: the mean fraction of the lists NRA
// reads before its stopping condition fires.
type TraversalRow struct {
	Dataset      string
	Op           corpus.Operator
	MeanPct      float64 // mean percentage of list entries consumed
	StoppedEarly int     // queries where the stop test fired before exhaustion
	Queries      int
}

// RunTraversalDepth reproduces Figure 11: how deep NRA traverses full
// score-ordered lists before the bounds-based stopping condition lets it
// terminate.
func RunTraversalDepth(ds *Dataset, k int) ([]TraversalRow, error) {
	var rows []TraversalRow
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		queries := ds.Queries(op)
		var sum float64
		stopped := 0
		for _, q := range queries {
			_, stats, err := ds.Index.QueryNRA(q, topk.NRAOptions{K: k, BatchSize: 256})
			if err != nil {
				return nil, fmt.Errorf("nra %s %v: %w", ds.Name, q, err)
			}
			sum += stats.FractionTraversed
			if stats.StoppedEarly {
				stopped++
			}
		}
		rows = append(rows, TraversalRow{
			Dataset:      ds.Name,
			Op:           op,
			MeanPct:      100 * sum / float64(len(queries)),
			StoppedEarly: stopped,
			Queries:      len(queries),
		})
	}
	return rows, nil
}

// DiskVsMemRow is one series point of Figures 12-13: disk-resident NRA
// against the in-memory GM baseline.
type DiskVsMemRow struct {
	Dataset string
	Op      corpus.Operator
	Method  string // "nra-disk" or "gm-mem"
	ListPct int    // 0 for GM
	MeanMS  float64
}

// RunNRADiskVsGM reproduces Figures 12-13: total response time of NRA over
// disk-resident lists (computation + simulated IO) versus the in-memory GM
// baseline — the comparison the paper calls "unfairly biased in favor of
// GM".
func RunNRADiskVsGM(ds *Dataset, fractions []float64, k int) ([]DiskVsMemRow, error) {
	var rows []DiskVsMemRow
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		breakup, err := RunNRADiskBreakup(ds, op, fractions, k)
		if err != nil {
			return nil, err
		}
		for _, b := range breakup {
			rows = append(rows, DiskVsMemRow{
				Dataset: ds.Name, Op: op, Method: "nra-disk",
				ListPct: b.ListPct, MeanMS: b.TotalMS,
			})
		}
	}
	gmRows, err := RunMemRuntime(ds, nil, k, true, false)
	if err != nil {
		return nil, err
	}
	for _, g := range gmRows {
		rows = append(rows, DiskVsMemRow{
			Dataset: ds.Name, Op: g.Op, Method: "gm-mem", MeanMS: g.MeanMS,
		})
	}
	return rows, nil
}
