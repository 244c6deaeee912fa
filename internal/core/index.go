// Package core assembles the paper's system end to end: it builds the
// phrase universe P and all indexes from a corpus (Section 4.2), answers
// top-k interesting-phrase queries with NRA or SMJ over memory- or
// disk-resident word-specific lists (Sections 4.3-4.4), hosts the exact
// and baseline algorithms for comparison, and maintains incremental
// updates through a delta index (Section 4.5.1).
package core

import (
	"fmt"
	"io"
	"math"
	"sync"

	"phrasemine/internal/baseline"
	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/parallel"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// BuildOptions configures index construction.
type BuildOptions struct {
	// Extractor controls the phrase universe P (n-gram lengths and the
	// minimum document frequency threshold of Section 2).
	Extractor textproc.ExtractorOptions
	// ListFeatures restricts word-specific list construction to the
	// given features. nil builds lists for the entire vocabulary — what
	// a deployed system would persist; experiment harnesses restrict to
	// the workload's features to keep build times proportionate.
	ListFeatures []string
	// PhraseWidth is the fixed phrase-list record width (the paper's
	// s = 50). Zero selects phrasedict.DefaultWidth.
	PhraseWidth int
	// Workers bounds index-construction concurrency: tokenization-derived
	// phrase extraction, inverted-index construction, forward-index
	// assembly and word-list building all fan out across this many
	// workers over contiguous document (or phrase/feature) shards and
	// merge deterministically, so the built index is identical at every
	// worker count. 1 forces the fully sequential path; 0 selects
	// GOMAXPROCS. The same bound caps query-time fan-out on the built
	// index (see Index.Pool).
	Workers int
	// Shards is the number of document shards the parallel extraction
	// scans over (0 defaults to 4*Workers). More shards smooth skew at
	// slightly higher merge cost.
	//
	// Precedence: Workers and Shards configure the extraction stage only
	// when Extractor.Workers is zero; an explicitly set Extractor.Workers
	// (with its own Shards) wins for that stage, and the remaining build
	// stages always follow Workers.
	Shards int
	// Compression selects the block-compressed physical layout for the
	// query-time structures: the score-ordered word lists are held as a
	// plist.BlockSet (delta/varint blocks with skip entries) instead of
	// raw []Entry slices, and snapshot loads keep inverted postings in
	// their compressed block form with lazy per-feature decoding. Queries
	// answer bit-identically to the uncompressed layout (locked by
	// internal/difftest's RunCompressedEquivalence); the trade is ~4-6x
	// less list memory for a per-block decode on the query path.
	Compression bool
	// Codec selects the per-block physical codec of the compressed layout
	// (word lists, SMJ lists, and snapshot posting blocks). The zero value
	// (plist.CodecAuto) picks packed or varint per block by encoded size;
	// plist.CodecVarint forces the delta/varint codec everywhere, which
	// differential tests use to build physically distinct twins.
	Codec plist.BlockCodec
}

// Index is the built system state over a static corpus D.
type Index struct {
	Corpus   *corpus.Corpus
	Inverted *corpus.Inverted
	// Dict is the fixed-width phrase list; position defines PhraseID.
	Dict *phrasedict.Dict
	// PhraseDocs[p] is docs(D, p), sorted.
	PhraseDocs [][]corpus.DocID
	// PhraseDF[p] = |docs(D, p)|.
	PhraseDF []uint32
	// Forward[d] holds the sorted phrase IDs present in document d (the
	// GM-style forward index, also used to build word lists).
	Forward [][]phrasedict.PhraseID
	// Lists maps each built feature to its full score-ordered list. It is
	// nil when the index runs compressed (see Blocks).
	Lists map[string]plist.ScoreList
	// Blocks holds the block-compressed score-ordered lists when the
	// index was built or loaded with Compression (or opened from a mapped
	// snapshot, where the set's data region aliases the mapping). Exactly
	// one of Lists and Blocks is the query source.
	Blocks *plist.BlockSet

	opts       BuildOptions
	restricted bool
	workers    int
	pool       *topk.Pool

	// Lazily decoded sections of a mapped snapshot: phrase-doc lists and
	// the forward index stay as raw encoded bytes until a consumer (GM,
	// Exact, delta updates, Save) needs them. lazyMu guards the one-shot
	// decode; closer unmaps the snapshot on Close.
	lazyMu      sync.Mutex
	lazyPD      []byte
	lazyFwd     []byte
	closer      io.Closer
	mappedBytes int64

	// scratchOnce lazily builds the query-scratch pool so every Index
	// construction path (Build, snapshot load, tests assembling literals)
	// gets one without extra wiring.
	scratchOnce sync.Once
	scratch     *topk.ScratchPool

	// baseMu guards the lazily built baseline caches so concurrent
	// queries can share one Index.
	baseMu sync.Mutex
	gm     *baseline.GM
	exact  *baseline.Exact

	// idMu guards the per-fraction cache of ID-ordered list copies (see
	// SMJ): slot lookup, the LRU clock and eviction. Each slot builds under
	// its own Once, outside the mutex.
	idMu     sync.Mutex
	idCopies map[float64]*idCopy
	idClock  uint64
}

// BuildHook, when non-nil, is invoked on the building goroutine as every
// Build starts. Tests use it to pause a running build (the miner's
// off-lock Flush) and act inside it; set it only while no other build
// runs.
var BuildHook func()

// Build constructs every index structure from the corpus. With
// opt.Workers != 1 every stage — phrase extraction, phrase-doc and forward
// index assembly, inverted-index construction and word-list building —
// fans out across document (or phrase/feature) shards and merges
// deterministically, so the built index is byte-identical to the
// Workers=1 build.
func Build(c *corpus.Corpus, opt BuildOptions) (*Index, error) {
	if hook := BuildHook; hook != nil {
		hook()
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	workers := parallel.Workers(opt.Workers)

	extractor := opt.Extractor
	if extractor.Workers == 0 {
		extractor.Workers = workers
		extractor.Shards = opt.Shards
	}
	tokens, err := c.TokenSlices()
	if err != nil {
		return nil, err
	}
	stats, err := textproc.Extract(tokens, extractor)
	if err != nil {
		return nil, fmt.Errorf("core: phrase extraction: %w", err)
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("core: no phrases cleared the document-frequency threshold")
	}
	return BuildFromStats(c, stats, opt)
}

// BuildFromStats constructs every index structure from a corpus and
// pre-extracted phrase statistics, skipping the extraction stage of Build.
// stats must be in the canonical textproc.Extract order — sorted by
// (word count, phrase) — because the slice position becomes the PhraseID,
// and each entry's Docs must be the sorted documents of this corpus that
// contain the phrase. The sharded engine uses this entry point to build
// segment indexes over externally filtered phrase universes; unlike Build,
// an empty stats slice is allowed (a segment may contain none of the
// global universe's phrases) and yields an index with an empty dictionary.
func BuildFromStats(c *corpus.Corpus, stats []textproc.PhraseStats, opt BuildOptions) (*Index, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	workers := parallel.Workers(opt.Workers)

	phrases := make([]string, len(stats))
	for i, s := range stats {
		phrases[i] = s.Phrase
	}
	dict, err := phrasedict.Build(phrases, opt.PhraseWidth)
	if err != nil {
		return nil, fmt.Errorf("core: phrase dictionary: %w", err)
	}

	ix := &Index{
		Corpus:     c,
		Dict:       dict,
		PhraseDocs: make([][]corpus.DocID, len(stats)),
		PhraseDF:   make([]uint32, len(stats)),
		Forward:    make([][]phrasedict.PhraseID, c.Len()),
		opts:       opt,
		restricted: opt.ListFeatures != nil,
		workers:    workers,
		pool:       topk.NewPool(workers),
	}
	// Phrase-doc lists convert independently per phrase.
	parallel.ForEachShard(len(stats), 4*workers, workers, func(_ int, r parallel.Range) {
		for p := r.Lo; p < r.Hi; p++ {
			docs := make([]corpus.DocID, len(stats[p].Docs))
			for i, d := range stats[p].Docs {
				docs[i] = corpus.DocID(d)
			}
			ix.PhraseDocs[p] = docs
			ix.PhraseDF[p] = uint32(len(docs))
		}
	})
	ix.buildForward(workers)
	ix.Inverted, err = corpus.BuildInvertedParallel(c, workers)
	if err != nil {
		return nil, err
	}

	src := &plist.Source{
		Inverted:      ix.Inverted,
		Forward:       ix.Forward,
		PhraseDocFreq: ix.PhraseDF,
	}
	ix.Lists, err = plist.BuildListsParallel(src, opt.ListFeatures, workers)
	if err != nil {
		return nil, fmt.Errorf("core: word-specific lists: %w", err)
	}
	if opt.Compression {
		ix.Blocks, err = plist.BuildBlockSetCodec(ix.Lists, opt.Codec)
		if err != nil {
			return nil, fmt.Errorf("core: compressing word lists: %w", err)
		}
		ix.Lists = nil
	}
	return ix, nil
}

// Compressed reports whether the index queries block-compressed lists.
func (ix *Index) Compressed() bool { return ix.Blocks != nil }

// Mapped reports whether the index is backed by a memory-mapped snapshot.
func (ix *Index) Mapped() bool { return ix.closer != nil }

// Close releases resources held by a mapped index (the snapshot mapping).
// It must only be called once no query is in flight: open cursors read
// straight out of the mapping. Close on a heap-resident index is a no-op.
func (ix *Index) Close() error {
	if ix.closer == nil {
		return nil
	}
	c := ix.closer
	ix.closer = nil
	return c.Close()
}

// materializeDocs decodes the lazily held phrase-doc and forward sections
// of a mapped index. Built and heap-loaded indexes populate these fields
// eagerly, so this is a no-op for them.
func (ix *Index) materializeDocs() error {
	ix.lazyMu.Lock()
	defer ix.lazyMu.Unlock()
	if ix.lazyPD == nil && ix.lazyFwd == nil {
		return nil
	}
	phraseDocs, err := decodeIDLists(ix.lazyPD, uint64(ix.Corpus.Len()))
	if err != nil {
		return diskio.Corruptf("core: phrase-doc section: %v", err)
	}
	fwdAsDocs, err := decodeIDLists(ix.lazyFwd, uint64(ix.Dict.Len()))
	if err != nil {
		return diskio.Corruptf("core: forward section: %v", err)
	}
	if len(phraseDocs) != ix.Dict.Len() {
		return diskio.Corruptf("core: snapshot inconsistent: %d phrase-doc lists, dictionary has %d phrases", len(phraseDocs), ix.Dict.Len())
	}
	if len(fwdAsDocs) != ix.Corpus.Len() {
		return diskio.Corruptf("core: snapshot inconsistent: forward index covers %d docs, corpus has %d", len(fwdAsDocs), ix.Corpus.Len())
	}
	ix.PhraseDocs = phraseDocs
	ix.PhraseDF = make([]uint32, len(phraseDocs))
	for p, docs := range phraseDocs {
		ix.PhraseDF[p] = uint32(len(docs))
	}
	ix.Forward = make([][]phrasedict.PhraseID, len(fwdAsDocs))
	for d, ids := range fwdAsDocs {
		ix.Forward[d] = docIDsAsPhraseIDs(ids)
	}
	ix.lazyPD, ix.lazyFwd = nil, nil
	return nil
}

// buildForward inverts PhraseDocs into per-document forward lists. Phrase
// IDs ascend with p and each phrase's doc list is sorted, so sequential
// appending yields sorted per-document lists. The parallel path shards the
// phrase range: a counting pass sizes each document's list and computes
// per-shard write offsets, then shard workers write their (ascending)
// phrase IDs into disjoint reserved segments — the same sorted lists,
// without locks.
func (ix *Index) buildForward(workers int) {
	numDocs := len(ix.Forward)
	if workers <= 1 {
		for p, docs := range ix.PhraseDocs {
			for _, d := range docs {
				ix.Forward[d] = append(ix.Forward[d], phrasedict.PhraseID(p))
			}
		}
		return
	}
	ranges := parallel.Shards(len(ix.PhraseDocs), workers)
	counts := make([][]int32, len(ranges))
	parallel.ForEachOf(ranges, workers, func(s int, r parallel.Range) {
		cnt := make([]int32, numDocs)
		for p := r.Lo; p < r.Hi; p++ {
			for _, d := range ix.PhraseDocs[p] {
				cnt[d]++
			}
		}
		counts[s] = cnt
	})
	// Exclusive prefix sums per document turn shard counts into shard
	// write offsets; the running total sizes the final list.
	for d := 0; d < numDocs; d++ {
		total := int32(0)
		for s := range counts {
			counts[s][d], total = total, total+counts[s][d]
		}
		if total > 0 {
			ix.Forward[d] = make([]phrasedict.PhraseID, total)
		}
	}
	parallel.ForEachOf(ranges, workers, func(s int, r parallel.Range) {
		off := counts[s]
		for p := r.Lo; p < r.Hi; p++ {
			id := phrasedict.PhraseID(p)
			for _, d := range ix.PhraseDocs[p] {
				ix.Forward[d][off[d]] = id
				off[d]++
			}
		}
	})
}

// Workers reports the resolved construction/query concurrency bound.
func (ix *Index) Workers() int { return ix.workers }

// BuildOptions returns the options the index was built (or loaded) with,
// so harnesses can construct physically different twins of the same
// logical index (e.g. difftest's compressed-equivalence mode).
func (ix *Index) BuildOptions() BuildOptions { return ix.opts }

// Pool returns the index's bounded query-time worker pool (shared by every
// query on this index, so total fan-out stays bounded under concurrent
// callers).
func (ix *Index) Pool() *topk.Pool { return ix.pool }

// ScratchPool returns the index's query-scratch pool: reusable flat
// candidate tables and cursor buffers sized to the phrase-dictionary
// cardinality, handed out per query so steady-state serving allocates
// next to nothing on the hot path.
func (ix *Index) ScratchPool() *topk.ScratchPool {
	ix.scratchOnce.Do(func() {
		ix.scratch = topk.NewScratchPool(ix.Dict.Len())
	})
	return ix.scratch
}

// NumPhrases reports |P|.
func (ix *Index) NumPhrases() int { return ix.Dict.Len() }

// PhraseText resolves a phrase ID to its string.
func (ix *Index) PhraseText(id phrasedict.PhraseID) (string, error) {
	return ix.Dict.Phrase(id)
}

// ScoreLists returns the full score-ordered lists, decoding them from the
// compressed block set when the index runs compressed. The decode
// materializes every list, so this is for cold paths (SMJ index builds,
// the experiments' simulated-disk list file, diagnostics), not per-query
// use.
func (ix *Index) ScoreLists() (map[string]plist.ScoreList, error) {
	if ix.Blocks == nil {
		return ix.Lists, nil
	}
	return ix.Blocks.DecodeAllScoreLists()
}

// ListIndexSize reports the serialized size in bytes of the word-specific
// lists truncated to the given fraction, at the paper's 12-bytes-per-entry
// accounting — the Table 5 index-size analysis. Entry counts come from the
// block directory on a compressed index, so nothing is decoded.
func (ix *Index) ListIndexSize(fraction float64) int64 {
	var total int64
	if ix.Blocks != nil {
		for _, w := range ix.Blocks.Words() {
			n := ix.Blocks.NumEntries(w)
			total += plist.SizeBytes(plist.TruncatedLen(n, fraction))
		}
		return total
	}
	for _, l := range ix.Lists {
		total += plist.SizeBytes(len(l.Truncate(fraction)))
	}
	return total
}

// EstimateFullIndexSize extrapolates the full-vocabulary index size at a
// fraction from the average built list length, as the paper's Table 5 does
// ("assuming 12 bytes per entry" over the whole vocabulary).
func (ix *Index) EstimateFullIndexSize(fraction float64) int64 {
	var avg float64
	switch {
	case ix.Blocks != nil && ix.Blocks.NumWords() > 0:
		avg = float64(ix.Blocks.TotalEntries()) / float64(ix.Blocks.NumWords())
	case len(ix.Lists) > 0:
		avg = plist.AverageListLen(ix.Lists)
	default:
		return 0
	}
	avg *= math.Max(0, math.Min(1, fraction))
	return int64(avg * plist.EntrySize * float64(ix.Inverted.VocabSize()))
}

// MemStats describes the physical footprint of the index's query-time list
// structures, the quantities surfaced by the server's /stats endpoint and
// expvar gauges so compression and mmap wins are observable in serving.
type MemStats struct {
	// ListEntries and ListBytes cover the score-ordered word lists:
	// compressed block bytes when compression is on, 16 bytes per in-heap
	// entry otherwise. BytesPerEntry = ListBytes / ListEntries.
	ListEntries   int     `json:"list_entries"`
	ListBytes     int64   `json:"list_bytes"`
	BytesPerEntry float64 `json:"bytes_per_entry"`
	// Postings and PostingBytes cover the feature inverted index, with
	// BytesPerPosting = PostingBytes / Postings.
	Postings        int     `json:"postings"`
	PostingBytes    int64   `json:"posting_bytes"`
	BytesPerPosting float64 `json:"bytes_per_posting"`
	// Compressed reports the block-compressed layout; Mapped reports a
	// mmap-backed snapshot, with MappedBytes the size of the shared
	// mapping (resident on demand, not all heap).
	Compressed  bool  `json:"compressed"`
	Mapped      bool  `json:"mapped"`
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// PackedBlocks and PackedBytes report how much of the compressed
	// layout chose the bit-packed codec (word-list and posting blocks
	// combined); zero on varint-only or uncompressed indexes.
	PackedBlocks int   `json:"packed_blocks,omitempty"`
	PackedBytes  int64 `json:"packed_bytes,omitempty"`
	// IDOrderedCopies counts the resident ID-ordered copies of the lists
	// (one per cached SMJ fraction, see Index.SMJ; summed over segments),
	// each a second physical index beside the footprint above.
	IDOrderedCopies int `json:"id_ordered_copies,omitempty"`
}

// entryHeapSize is the in-memory footprint of one uncompressed list entry
// (a 4-byte ID padded + an 8-byte float in a 16-byte struct).
const entryHeapSize = 16

// MemStats reports the index's physical list footprint.
func (ix *Index) MemStats() MemStats {
	var s MemStats
	if ix.Blocks != nil {
		s.ListEntries = ix.Blocks.TotalEntries()
		s.ListBytes = ix.Blocks.SizeBytes()
		s.Compressed = true
		packed := ix.Blocks.Packed()
		s.PackedBlocks = packed.Blocks
		s.PackedBytes = packed.Bytes
	} else {
		s.ListEntries = plist.TotalEntries(ix.Lists)
		s.ListBytes = int64(s.ListEntries) * entryHeapSize
	}
	if s.ListEntries > 0 {
		s.BytesPerEntry = float64(s.ListBytes) / float64(s.ListEntries)
	}
	s.Postings, s.PostingBytes, _ = ix.Inverted.PostingStats()
	if s.Postings > 0 {
		s.BytesPerPosting = float64(s.PostingBytes) / float64(s.Postings)
	}
	pBlocks, pBytes := ix.Inverted.PackedPostingStats()
	s.PackedBlocks += pBlocks
	s.PackedBytes += pBytes
	s.Mapped = ix.Mapped()
	s.MappedBytes = ix.mappedBytes
	ix.idMu.Lock()
	s.IDOrderedCopies = len(ix.idCopies)
	ix.idMu.Unlock()
	return s
}

// GM returns the (lazily built, cached) Gao & Michel forward-index
// baseline over this corpus. Lazy construction is mutex-guarded, so
// concurrent callers race only to build once — but the returned instance
// reuses scratch space and is not safe for concurrent use; Clone it per
// goroutine.
func (ix *Index) GM() (*baseline.GM, error) {
	if err := ix.materializeDocs(); err != nil {
		return nil, err
	}
	ix.baseMu.Lock()
	defer ix.baseMu.Unlock()
	if ix.gm == nil {
		g, err := baseline.NewGM(ix.Inverted, ix.Forward, ix.PhraseDF)
		if err != nil {
			return nil, err
		}
		ix.gm = g
	}
	return ix.gm, nil
}

// Exact returns the (lazily built, cached) exact ground-truth scorer. Lazy
// construction is mutex-guarded; the returned scorer allocates per query
// and is safe for concurrent use.
func (ix *Index) Exact() (*baseline.Exact, error) {
	if err := ix.materializeDocs(); err != nil {
		return nil, err
	}
	ix.baseMu.Lock()
	defer ix.baseMu.Unlock()
	if ix.exact == nil {
		e, err := baseline.NewExact(ix.Inverted, ix.PhraseDocs)
		if err != nil {
			return nil, err
		}
		ix.exact = e
	}
	return ix.exact, nil
}

// SMJIndex holds phrase-ID-ordered lists truncated to a fixed fraction —
// the construction-time partial lists of Section 4.4.1 ("once the
// ID-ordered lists have been constructed using a pre-specified fraction,
// we cannot, at run-time, decide to work with a larger or smaller one").
// Exactly one of Lists (raw slices) and Blocks (block-compressed, for
// compressed indexes) is populated.
type SMJIndex struct {
	Fraction float64
	Lists    map[string]plist.IDList
	Blocks   *plist.BlockSet
}

// BuildSMJ materializes an SMJ index at the given fraction from the full
// score-ordered lists, fanning the per-feature copy+sort across the
// index's worker bound. On a compressed index the score lists are decoded
// once here (a construction-time cost, like the sort itself) and the
// resulting ID-ordered lists are re-compressed, so the SMJ index inherits
// the compact layout. Serving paths go through the cached SMJ accessor.
func (ix *Index) BuildSMJ(fraction float64) (*SMJIndex, error) {
	if ix.Blocks != nil {
		// A block set that passed open-time validation only fails decode
		// on corruption; queries against the SMJ index would surface the
		// same corruption, so classify it here.
		lists, err := ix.Blocks.DecodeAllScoreLists()
		if err != nil {
			return nil, diskio.Corruptf("core: decoding compressed lists for SMJ build: %v", err)
		}
		idLists := plist.ToIDOrderedAllParallel(plist.TruncateAll(lists, fraction), ix.workers)
		blocks, err := plist.BuildIDBlockSetCodec(idLists, ix.opts.Codec)
		if err != nil {
			return nil, diskio.Corruptf("core: compressing SMJ lists: %v", err)
		}
		return &SMJIndex{Fraction: fraction, Blocks: blocks}, nil
	}
	return &SMJIndex{
		Fraction: fraction,
		Lists:    plist.ToIDOrderedAllParallel(plist.TruncateAll(ix.Lists, fraction), ix.workers),
	}, nil
}

// MaxPartialSMJ caps how many partial-fraction (< 1) ID-ordered copies an
// Index keeps resident beside the full-list one. Each copy is a second
// physical index the size of its fraction of the list section and the
// fraction is chosen by the caller (over HTTP, by the client), so the
// cache must not grow with the number of distinct values seen.
const MaxPartialSMJ = 4

// idCopy lazily holds the ID-ordered copy for one fraction; the Once lets
// concurrent first queries at different fractions build in parallel. A
// build failure (corrupt compressed lists) is cached in err, so every
// query against the slot observes the same outcome.
type idCopy struct {
	once sync.Once
	smj  *SMJIndex
	err  error
	used uint64 // idClock at the last lookup, guarded by Index.idMu
}

// SMJ returns the (lazily built, cached) ID-ordered copy of the lists at a
// fraction. The full-list copy (fraction 1) stays for the index's
// lifetime; at most MaxPartialSMJ partial fractions stay beside it, the
// least recently used making room for a new one (a query still holding an
// evicted copy keeps using it; it is only no longer shared). Fractions
// outside (0, 1) — NaN included — select the full lists, so no caller can
// mint cache keys that never compare equal.
func (ix *Index) SMJ(fraction float64) (*SMJIndex, error) {
	if !(fraction > 0 && fraction < 1) {
		fraction = 1
	}
	ix.idMu.Lock()
	slot := ix.idCopies[fraction]
	if slot == nil {
		if ix.idCopies == nil {
			ix.idCopies = map[float64]*idCopy{}
		}
		if fraction != 1 {
			ix.evictPartialLocked()
		}
		slot = &idCopy{}
		ix.idCopies[fraction] = slot
	}
	ix.idClock++
	slot.used = ix.idClock
	ix.idMu.Unlock()
	slot.once.Do(func() {
		slot.smj, slot.err = ix.BuildSMJ(fraction)
	})
	return slot.smj, slot.err
}

// evictPartialLocked drops the least recently used partial-fraction
// slot when MaxPartialSMJ of them are resident.
func (ix *Index) evictPartialLocked() {
	var (
		partials int
		oldest   float64
	)
	for f, s := range ix.idCopies {
		if f == 1 {
			continue
		}
		if partials == 0 || s.used < ix.idCopies[oldest].used {
			oldest = f
		}
		partials++
	}
	if partials >= MaxPartialSMJ {
		delete(ix.idCopies, oldest)
	}
}

// PhraseDocFreqByText reports |docs(D, p)| for a phrase given by its
// canonical text, zero (with no error) when the phrase is not in the
// dictionary — the base document frequency the live-tail gather merge
// combines with tail counts. On a mapped index the first call
// materializes the lazily held document sections; a corrupt section
// surfaces as an error wrapping diskio.ErrCorruptSnapshot.
func (ix *Index) PhraseDocFreqByText(phrase string) (uint32, error) {
	id, ok, err := ix.Dict.ID(phrase)
	if err != nil || !ok {
		return 0, err
	}
	if err := ix.materializeDocs(); err != nil {
		return 0, err
	}
	return ix.PhraseDF[id], nil
}
