package core

// This file implements the sharded multi-segment engine: the corpus is
// partitioned into N contiguous document segments, each indexed as a full,
// independently buildable and snapshottable Index, and queries execute as
// a scatter-gather — per-segment work proportional to the segment, merged
// through the pooled loser-tree partial merger of internal/topk.
//
// # Why sharded answers are bit-identical to the monolith
//
// Every probability the monolithic engine stores is an exact integer
// division: P(q|p) = float64(co)/float64(df). Document partitioning
// decomposes both integers over segments (co = Σ co_s, df = Σ df_s), so
// the gather recombines per-segment integer counts, performs the identical
// division, and accumulates the per-phrase score over query features in
// the same canonical order the sort-merge join uses. The phrase universe
// is also globally exact: each segment extracts at a local document-
// frequency threshold of 1 and the global threshold is applied to the
// summed frequencies, so the global dictionary — ordered by (word count,
// phrase), the same ordering textproc.Extract emits — assigns exactly the
// monolithic PhraseIDs. Sharded NRA/SMJ answers are therefore bit-identical
// (IDs, score bits, tie ordering) to the monolithic SMJ answer, and the GM
// path recombines exact sub-collection frequencies the same way
// (internal/difftest's RunShardedEquivalence locks all of this).
//
// NRA-flavored queries additionally bound per-shard work, in the spirit of
// the TPUT family of distributed top-k algorithms: each segment answers a
// local NRA top-k' (k' starts near k/N) over lists rescaled to the GLOBAL
// document frequency, so per-segment scores are additive partials of the
// exact global OR score (S(p) = Σ_i Σ_s n_si/df(p) = Σ_s S'_s(p)). The
// gather completes the union of local candidates to exact global scores by
// random-accessing every segment, and every non-exhausted shard re-runs
// with a raised k' only while the sum of the per-shard bounds could still
// beat the global k-th score: a phrase hidden in every shard has
// S(p) = Σ_s S'_s(p) ≤ Σ_s λ_s, where λ_s bounds shard s's unreported
// partial scores. AND scores live in log domain and do not decompose
// additively, so AND queries use the exhaustive per-segment scan.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/parallel"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

const (
	// shardedKSlack pads the first-round per-shard k above ceil(k/N) so
	// mildly skewed shards rarely force a second scatter round.
	shardedKSlack = 4
	// shardedKGrowth multiplies a re-issued shard's k between rounds.
	shardedKGrowth = 4
	// maxGlobalizedFeatures caps the per-feature globalized-list cache
	// (heap-resident rescaled copies of segment lists); overflow resets
	// the whole cache.
	maxGlobalizedFeatures = 1024
)

// segment is one shard of a ShardedIndex: a full Index over a contiguous
// document range, plus the mapping from its dense local phrase IDs to the
// global dictionary.
type segment struct {
	ix *Index
	c  *corpus.Corpus
	// localToGlobal maps the segment's phrase IDs to global IDs. It is
	// strictly ascending because both dictionaries share the (word count,
	// phrase) ordering, so the restriction to the segment's phrase subset
	// preserves order.
	localToGlobal []phrasedict.PhraseID
	// tally is the segment's unfiltered phrase document frequencies (every
	// extracted n-gram at local threshold 1), the exact bookkeeping that
	// lets Flush recompute the global universe without re-extracting
	// unchanged segments. It is nil on manifest-opened engines until the
	// first Flush re-derives it.
	tally map[string]int32
	// gmCounts recycles the GM scatter's per-segment counting arrays
	// (all-zero between uses), mirroring the monolithic engine's pooled GM
	// clones so concurrent GM queries do not allocate O(|P_segment|) each.
	gmCounts sync.Pool
}

// ShardedIndex is the sharded multi-segment engine: N independent segment
// indexes behind one global phrase dictionary, answering queries by
// scatter-gather with answers bit-identical to a monolithic index over the
// same corpus. It is safe for concurrent queries; document updates
// (AddDocument/RemoveDocument/Flush) must be serialized against queries by
// the caller, exactly like rebuilding a monolithic Index (the public Miner
// provides that lock).
type ShardedIndex struct {
	segs  []*segment
	remap corpus.DocRemap
	// dict is the global phrase dictionary; its order — (word count,
	// phrase) — reproduces the monolithic PhraseID assignment exactly.
	dict *phrasedict.Dict
	// globalDF[p] = |docs(D, p)| over the whole corpus, the probability
	// denominator of every gather.
	globalDF []uint32
	vocab    int
	opts     BuildOptions
	workers  int
	pool     *topk.Pool
	scratch  *topk.ScratchPool

	// globMu guards the map of per-feature globalized-list slots: per-
	// segment score lists rescaled to the global document frequency (the
	// additive partial scores of the adaptive NRA scatter), built once per
	// feature under the slot's Once and invalidated by Flush.
	globMu    sync.Mutex
	globCache map[string]*globSlot

	// globalTally sums the per-segment tallies: every extracted n-gram's
	// corpus-wide document frequency, maintained incrementally so a flush
	// updates the universe in time proportional to the touched segments'
	// tallies, not the corpus. Nil until tallies exist (manifest-opened
	// engines re-derive both on the first Flush).
	globalTally map[string]int32

	// Pending document updates, applied at Flush. Unlike the monolithic
	// delta, pending updates are not visible to queries: the sharded
	// engine trades delta-adjusted reads for a Flush whose cost is
	// proportional to the affected segments (typically just the write
	// segment), not the corpus.
	pendingAdd    []corpus.Document
	pendingRemove map[corpus.DocID]bool

	// broken latches a Flush failure past its point of no return (an
	// effectively unreachable class of errors: dictionary-width
	// violations, snapshot unmap failures). Once set, Flush and
	// persistence refuse loudly instead of silently succeeding over a
	// partially updated engine.
	broken error
}

// BuildSharded partitions the corpus into the given number of contiguous
// document segments, builds every segment index in parallel, and assembles
// the global phrase table. segments is clamped to [1, corpus size].
func BuildSharded(c *corpus.Corpus, opt BuildOptions, segments int) (*ShardedIndex, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	if segments < 1 {
		segments = 1
	}
	if segments > c.Len() {
		segments = c.Len()
	}
	workers := parallel.Workers(opt.Workers)
	ranges := parallel.Shards(c.Len(), segments)
	sx := &ShardedIndex{
		opts:    opt,
		workers: workers,
		pool:    topk.NewPool(workers),
	}
	sx.segs = make([]*segment, len(ranges))
	for i, r := range ranges {
		sc, err := c.Slice(r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		sx.segs[i] = &segment{c: sc}
	}

	// Pass 1 (parallel over segments): extract each segment's phrases at
	// local threshold 1, so the global threshold can be applied to exact
	// summed document frequencies.
	stats := make([][]textproc.PhraseStats, len(sx.segs))
	errs := make([]error, len(sx.segs))
	inner := innerWorkers(workers, len(sx.segs))
	parallel.ForEach(len(sx.segs), workers, func(i int) {
		stats[i], errs[i] = extractSegment(sx.segs[i].c, opt, inner)
		if errs[i] == nil {
			sx.segs[i].tally = tallyOf(stats[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: segment extraction: %w", err)
		}
	}

	if err := sx.rebuildUniverse(); err != nil {
		return nil, err
	}

	// Pass 2 (parallel over segments): build each segment index over its
	// universe-filtered stats.
	segOpt := opt
	segOpt.Workers = inner
	parallel.ForEach(len(sx.segs), workers, func(i int) {
		errs[i] = sx.buildSegment(i, stats[i], segOpt)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sx.assemble()
	return sx, nil
}

// innerWorkers splits a worker budget across parallel segment tasks.
func innerWorkers(workers, segments int) int {
	if segments <= 0 {
		return workers
	}
	w := workers / segments
	if w < 1 {
		w = 1
	}
	return w
}

// extractSegment extracts a segment's phrase statistics at a local
// document-frequency threshold of 1 (the global threshold applies to the
// summed frequencies).
func extractSegment(c *corpus.Corpus, opt BuildOptions, workers int) ([]textproc.PhraseStats, error) {
	ext := opt.Extractor
	ext.MinDocFreq = 1
	ext.Workers = workers
	ext.Shards = 0
	tokens, err := c.TokenSlices()
	if err != nil {
		return nil, err
	}
	return textproc.Extract(tokens, ext)
}

// tallyOf condenses extraction stats into the phrase -> document-frequency
// tally a segment keeps for universe maintenance.
func tallyOf(stats []textproc.PhraseStats) map[string]int32 {
	t := make(map[string]int32, len(stats))
	for _, s := range stats {
		t[s.Phrase] = int32(s.DocFreq)
	}
	return t
}

// resolvedMinDocFreq mirrors textproc's defaulting so the global
// threshold applied over per-segment extractions matches what a
// monolithic Extract would have used.
func resolvedMinDocFreq(opt BuildOptions) int {
	if opt.Extractor.MinDocFreq <= 0 {
		return textproc.DefaultMinDocFreq
	}
	return opt.Extractor.MinDocFreq
}

// rebuildUniverse recomputes the global tally, dictionary and document
// frequencies from scratch over every segment tally: sum per-segment
// frequencies, apply the global threshold, and order by (word count,
// phrase) — exactly the ordering textproc.Extract emits, so global IDs
// equal monolithic IDs. Build-time path; flushes use the incremental
// setSegmentTally + rebuildUniverseTouched pair instead.
func (sx *ShardedIndex) rebuildUniverse() error {
	total := map[string]int32{}
	for _, seg := range sx.segs {
		for p, c := range seg.tally {
			total[p] += c
		}
	}
	sx.globalTally = total
	minDF := resolvedMinDocFreq(sx.opts)
	phrases := make([]string, 0, len(total))
	for p, c := range total {
		if int(c) >= minDF {
			phrases = append(phrases, p)
		}
	}
	return sx.installUniverse(phrases)
}

// installUniverse sorts the universe phrases canonically, builds the
// global dictionary and re-derives the document frequencies from the
// global tally.
func (sx *ShardedIndex) installUniverse(phrases []string) error {
	sort.Slice(phrases, func(i, j int) bool {
		wi, wj := textproc.PhraseLen(phrases[i]), textproc.PhraseLen(phrases[j])
		if wi != wj {
			return wi < wj
		}
		return phrases[i] < phrases[j]
	})
	dict, err := phrasedict.Build(phrases, sx.opts.PhraseWidth)
	if err != nil {
		return fmt.Errorf("core: global phrase dictionary: %w", err)
	}
	df := make([]uint32, len(phrases))
	for i, p := range phrases {
		df[i] = uint32(sx.globalTally[p])
	}
	sx.dict = dict
	sx.globalDF = df
	return nil
}

// setSegmentTally swaps segment i's tally, updating the global tally by
// the difference and accumulating every touched phrase into touched. Cost
// is proportional to the two tallies — the incremental half of universe
// maintenance.
func (sx *ShardedIndex) setSegmentTally(i int, tally map[string]int32, touched map[string]struct{}) {
	for p, c := range sx.segs[i].tally {
		touched[p] = struct{}{}
		if rest := sx.globalTally[p] - c; rest > 0 {
			sx.globalTally[p] = rest
		} else {
			delete(sx.globalTally, p)
		}
	}
	for p, c := range tally {
		touched[p] = struct{}{}
		sx.globalTally[p] += c
	}
	sx.segs[i].tally = tally
}

// rebuildUniverseTouched re-derives the universe after setSegmentTally
// calls, in time proportional to the old universe plus the touched set:
// untouched phrases keep their membership and frequency by construction.
func (sx *ShardedIndex) rebuildUniverseTouched(touched map[string]struct{}) error {
	minDF := resolvedMinDocFreq(sx.opts)
	phrases := make([]string, 0, sx.dict.Len())
	for i := 0; i < sx.dict.Len(); i++ {
		p := sx.dict.MustPhrase(phrasedict.PhraseID(i))
		if _, hit := touched[p]; hit {
			continue // re-evaluated below
		}
		phrases = append(phrases, p)
	}
	for p := range touched {
		if int(sx.globalTally[p]) >= minDF {
			phrases = append(phrases, p)
		}
	}
	return sx.installUniverse(phrases)
}

// buildSegment builds (or rebuilds) segment i's index from its extraction
// stats, filtered to the current global universe, and recomputes its
// local-to-global phrase map.
func (sx *ShardedIndex) buildSegment(i int, stats []textproc.PhraseStats, opt BuildOptions) error {
	seg := sx.segs[i]
	filtered := make([]textproc.PhraseStats, 0, len(stats))
	l2g := make([]phrasedict.PhraseID, 0, len(stats))
	for _, s := range stats {
		g, ok, err := sx.dict.ID(s.Phrase)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		filtered = append(filtered, s)
		l2g = append(l2g, g)
	}
	ix, err := BuildFromStats(seg.c, filtered, opt)
	if err != nil {
		return fmt.Errorf("core: segment %d: %w", i, err)
	}
	old := seg.ix
	seg.ix = ix
	seg.localToGlobal = l2g
	if old != nil {
		if err := old.Close(); err != nil {
			return err
		}
	}
	return nil
}

// assemble recomputes the derived global state — doc-ID remap and
// vocabulary size — from the current segments.
func (sx *ShardedIndex) assemble() {
	sizes := make([]int, len(sx.segs))
	for i, seg := range sx.segs {
		sizes[i] = seg.c.Len()
	}
	sx.remap = corpus.NewDocRemap(sizes)
	seen := map[string]struct{}{}
	for _, seg := range sx.segs {
		for _, f := range seg.ix.Inverted.Features() {
			seen[f] = struct{}{}
		}
	}
	sx.vocab = len(seen)
	if sx.scratch == nil {
		sx.scratch = topk.NewScratchPool(0)
	}
}

// NumSegments reports the segment count N.
func (sx *ShardedIndex) NumSegments() int { return len(sx.segs) }

// NumDocs reports the total corpus size |D| across segments.
func (sx *ShardedIndex) NumDocs() int { return sx.remap.NumDocs() }

// NumPhrases reports the global phrase-universe size |P|.
func (sx *ShardedIndex) NumPhrases() int { return sx.dict.Len() }

// VocabSize reports the number of distinct indexable features |W| across
// segments.
func (sx *ShardedIndex) VocabSize() int { return sx.vocab }

// Workers reports the resolved query-concurrency bound.
func (sx *ShardedIndex) Workers() int { return sx.workers }

// Pool returns the engine's bounded query-time worker pool.
func (sx *ShardedIndex) Pool() *topk.Pool { return sx.pool }

// BuildOptions returns the options the engine was built (or opened) with.
func (sx *ShardedIndex) BuildOptions() BuildOptions { return sx.opts }

// PhraseText resolves a global phrase ID to its string.
func (sx *ShardedIndex) PhraseText(id phrasedict.PhraseID) (string, error) {
	return sx.dict.Phrase(id)
}

// Close releases every segment's resources (snapshot mappings of
// manifest-opened engines). No query may be in flight.
func (sx *ShardedIndex) Close() error {
	var first error
	for _, seg := range sx.segs {
		if seg.ix == nil {
			continue
		}
		if err := seg.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MemStats aggregates the physical list footprint across segments.
func (sx *ShardedIndex) MemStats() MemStats {
	var out MemStats
	compressed := true
	for _, seg := range sx.segs {
		s := seg.ix.MemStats()
		out.ListEntries += s.ListEntries
		out.ListBytes += s.ListBytes
		out.Postings += s.Postings
		out.PostingBytes += s.PostingBytes
		out.MappedBytes += s.MappedBytes
		out.PackedBlocks += s.PackedBlocks
		out.PackedBytes += s.PackedBytes
		out.IDOrderedCopies += s.IDOrderedCopies
		if s.Mapped {
			out.Mapped = true
		}
		if !s.Compressed {
			compressed = false
		}
	}
	out.Compressed = compressed && len(sx.segs) > 0
	if out.ListEntries > 0 {
		out.BytesPerEntry = float64(out.ListBytes) / float64(out.ListEntries)
	}
	if out.Postings > 0 {
		out.BytesPerPosting = float64(out.PostingBytes) / float64(out.Postings)
	}
	return out
}

// fanOut runs fn(i) for i in [0, n) through the engine's bounded pool, or
// inline when single-threaded.
func (sx *ShardedIndex) fanOut(n int, fn func(i int)) {
	if sx.pool == nil || sx.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sx.pool.RunN(n, fn)
}

// globSlot lazily holds one feature's per-segment globalized score lists.
type globSlot struct {
	once  sync.Once
	lists []plist.ScoreList
	err   error
}

// SelectCount reports |D'| for the query, summed over segments. Segments
// partition the documents, so per-segment counts add exactly.
func (sx *ShardedIndex) SelectCount(q corpus.Query) (int, error) {
	total := 0
	for _, seg := range sx.segs {
		n, err := seg.ix.Inverted.SelectCount(q)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Resolve converts gathered top-k results into displayable phrases with
// interestingness estimates, mirroring Index.Resolve bit-for-bit: the
// estimate divides by the same integer |D'| and |D|.
func (sx *ShardedIndex) Resolve(results []topk.Result, q corpus.Query) ([]MinedPhrase, error) {
	dPrimeSize, err := sx.SelectCount(q)
	if err != nil {
		return nil, err
	}
	out := make([]MinedPhrase, len(results))
	for i, r := range results {
		text, err := sx.dict.Phrase(r.Phrase)
		if err != nil {
			return nil, err
		}
		out[i] = MinedPhrase{
			ID:     r.Phrase,
			Phrase: text,
			Score:  r.Score,
			Estimate: topk.EstimatedInterestingness(
				r.Score, q.Op, dPrimeSize, sx.NumDocs()),
		}
	}
	return out, nil
}

// QuerySMJ answers a query with the exhaustive scatter scan: every segment
// merges its ID-ordered lists (truncated per segment when frac < 1) into a
// partial count stream, and the gather merges the streams into the global
// top-k. At full lists the answer is bit-identical to the monolithic SMJ
// answer; at frac < 1 the truncation applies per segment rather than to
// the global lists, a documented approximation. A canceled ctx stops every
// segment scan cooperatively and returns ctx.Err(); nil means no
// cancellation.
func (sx *ShardedIndex) QuerySMJ(ctx context.Context, q corpus.Query, k int, frac float64) ([]topk.Result, error) {
	results, _, err := sx.querySMJ(ctx, q, k, frac, false)
	return results, err
}

// QuerySMJPartial is QuerySMJ with graceful degradation: when ctx expires
// mid-scatter, segments whose scans completed still gather into a merged
// answer instead of the whole query failing. The returned segmentsDone
// reports how many of NumSegments() contributed; when it equals the
// segment count the answer is the ordinary full answer. A partial answer
// is bit-identical to a full gather over exactly the completed segments —
// a scan either streams its segment completely or is dropped whole, so
// degradation never mixes torn streams in. Zero completed segments fail
// with ctx.Err() like the non-partial path.
func (sx *ShardedIndex) QuerySMJPartial(ctx context.Context, q corpus.Query, k int, frac float64) (results []topk.Result, segmentsDone int, err error) {
	return sx.querySMJ(ctx, q, k, frac, true)
}

func (sx *ShardedIndex) querySMJ(ctx context.Context, q corpus.Query, k int, frac float64, allowPartial bool) ([]topk.Result, int, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("core: k must be positive, got %d", k)
	}
	parts := make([]topk.PartialList, len(sx.segs))
	errs := make([]error, len(sx.segs))
	sx.fanOut(len(sx.segs), func(i int) {
		errs[i] = sx.scanSegment(ctx, i, q, frac, &parts[i])
	})
	done := 0
	for i, err := range errs {
		switch {
		case err == nil:
			done++
		case allowPartial && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
			// Deadline expired mid-scan: drop this segment's torn stream
			// and gather what completed. Any other failure (corruption,
			// structural errors) still fails the whole query.
			parts[i] = topk.PartialList{}
		default:
			return nil, 0, err
		}
	}
	if done == 0 {
		// Nothing completed before the deadline; there is no answer to
		// degrade to.
		return nil, 0, ctx.Err()
	}
	// The gather itself runs to completion even on a degraded query — it
	// merges only completed streams and is the cheap final step that turns
	// them into the answer the deadline was spent producing.
	results, err := sx.mergeParts(parts, sx.listMergeOptions(q, k))
	if err != nil {
		return nil, 0, err
	}
	return results, done, nil
}

// gatherParallelCutoff is the total partial-entry count below which the
// gather runs serially (range partitioning has fixed costs that only pay
// off on large candidate streams).
const gatherParallelCutoff = 4096

// mergeParts runs the gather over per-segment partial lists. Large
// candidate streams are gathered in parallel: the global phrase-ID space
// is split into contiguous ranges (balanced by sampling the largest
// stream), each worker merges its range's sub-streams — zero-copy
// sub-slices, candidates of one phrase never straddle ranges — into a
// range-local top-k, and the range winners re-rank under the same
// (score desc, ID asc) comparator. Selection over disjoint candidate sets
// followed by re-ranking is exactly the global selection, so the parallel
// gather is bit-identical to the serial one.
func (sx *ShardedIndex) mergeParts(parts []topk.PartialList, opt topk.MergeOptions) ([]topk.Result, error) {
	total := 0
	largest := 0
	for i := range parts {
		total += len(parts[i].IDs)
		if len(parts[i].IDs) > len(parts[largest].IDs) {
			largest = i
		}
	}
	workers := sx.workers
	if workers > 1 && total >= gatherParallelCutoff {
		ids := parts[largest].IDs
		if workers > len(ids) {
			workers = len(ids)
		}
		// Range boundaries sampled from the largest stream approximate
		// equal-work splits; dedup keeps ranges strictly increasing.
		bounds := make([]phrasedict.PhraseID, 0, workers-1)
		for j := 1; j < workers; j++ {
			b := ids[len(ids)*j/workers]
			if len(bounds) == 0 || b > bounds[len(bounds)-1] {
				bounds = append(bounds, b)
			}
		}
		if len(bounds) > 0 {
			nRanges := len(bounds) + 1
			results := make([][]topk.Result, nRanges)
			errs := make([]error, nRanges)
			sx.fanOut(nRanges, func(j int) {
				lo := phrasedict.PhraseID(0)
				hasHi := j < len(bounds)
				if j > 0 {
					lo = bounds[j-1]
				}
				sub := make([]topk.PartialList, len(parts))
				for i := range parts {
					p := &parts[i]
					a, _ := slices.BinarySearch(p.IDs, lo)
					b := len(p.IDs)
					if hasHi {
						b, _ = slices.BinarySearch(p.IDs, bounds[j])
					}
					sub[i] = topk.PartialList{
						IDs:    p.IDs[a:b],
						Counts: p.Counts[a*opt.R : b*opt.R],
					}
				}
				s := sx.scratch.Get()
				defer sx.scratch.Put(s)
				results[j], errs[j] = topk.MergePartialsScratch(sub, opt, s)
			})
			if err := firstError(errs); err != nil {
				return nil, diskio.Corruptf("core: gather: %v", err)
			}
			var merged []topk.Result
			for _, r := range results {
				merged = append(merged, r...)
			}
			// Re-rank the range winners with the merger's own selection
			// comparator, so the parallel gather cannot drift from the
			// serial one's tie decisions.
			topk.SortResultsByRank(merged)
			if len(merged) > opt.K {
				merged = merged[:opt.K]
			}
			return merged, nil
		}
	}
	s := sx.scratch.Get()
	defer sx.scratch.Put(s)
	out, err := topk.MergePartialsScratch(parts, opt, s)
	if err != nil {
		// The scatter builds every partial stream itself, so a structural
		// violation (non-ascending IDs, count shape) can only mean the
		// per-segment data it decoded was corrupt.
		return nil, diskio.Corruptf("core: gather: %v", err)
	}
	return out, nil
}

// listMergeOptions assembles the gather configuration of a list-algorithm
// query.
func (sx *ShardedIndex) listMergeOptions(q corpus.Query, k int) topk.MergeOptions {
	return topk.MergeOptions{
		K:  k,
		Op: q.Op,
		R:  len(q.Features),
		DF: sx.globalDF,
	}
}

// ScanSegmentStartHook, when non-nil, is invoked at the start of every
// per-segment exhaustive scan with the segment number. It exists so tests
// can stall chosen segments deterministically (e.g. to force a partial
// gather); production code must leave it nil.
var ScanSegmentStartHook func(segment int)

// scanSegment scans one segment's ID-ordered lists and emits its partial
// count stream: for every phrase group the per-feature probabilities
// convert back to exact integer co-occurrence counts (Prob was built as
// count/df, so round(Prob*df) recovers the count exactly — the relative
// error of one float64 division and multiplication is far below 1/2).
func (sx *ShardedIndex) scanSegment(ctx context.Context, i int, q corpus.Query, frac float64, out *topk.PartialList) error {
	if hook := ScanSegmentStartHook; hook != nil {
		hook(i)
	}
	seg := sx.segs[i]
	ix := seg.ix
	if ix.Dict.Len() == 0 {
		return nil // segment holds none of the universe phrases
	}
	smj, err := ix.SMJ(frac)
	if err != nil {
		return err
	}
	pool := ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors, err := ix.idCursors(s, smj, q.Features, nil)
	if err != nil {
		return fmt.Errorf("core: segment %d: %w", i, err)
	}
	r := len(q.Features)
	return topk.ScanGroupsCtx(ctx, cursors, s, func(local phrasedict.PhraseID, probs []float64, seen uint64) {
		df := float64(ix.PhraseDF[local])
		out.IDs = append(out.IDs, seg.localToGlobal[local])
		for fi := 0; fi < r; fi++ {
			var c uint32
			if seen&(1<<uint(fi)) != 0 {
				c = uint32(math.Round(probs[fi] * df))
			}
			out.Counts = append(out.Counts, c)
		}
	})
}

// QueryNRA answers a query with the adaptive per-shard NRA scatter when
// the bound machinery is sound for it (OR over full lists): each segment
// runs a local NRA top-k', the gather completes the candidate union to
// exact global scores, and shards whose local bound could still beat the
// global k-th score re-run with a raised k'. AND queries and partial-list
// fractions fall back to the exhaustive scan. Either way the answer is the
// canonical (SMJ-identical) global top-k. A canceled ctx stops the local
// NRA runs, the completion lookups and the re-issue loop cooperatively.
func (sx *ShardedIndex) QueryNRA(ctx context.Context, q corpus.Query, k int, frac float64) ([]topk.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if q.Op != corpus.OpOR || (frac > 0 && frac < 1) {
		return sx.QuerySMJ(ctx, q, k, frac)
	}
	return sx.queryNRAAdaptive(ctx, q, k)
}

// globalizedLists returns, for one query feature, every segment's score
// list rescaled to the global document frequency: entry probabilities
// become n_s(w,p)/df(p), so summing a phrase's entries across segments
// yields exactly the monolithic P(w|p). Lists are built on first use per
// feature (one pass over each segment's own list) and cached until the
// next Flush.
func (sx *ShardedIndex) globalizedLists(f string) ([]plist.ScoreList, error) {
	sx.globMu.Lock()
	if sx.globCache == nil {
		sx.globCache = map[string]*globSlot{}
	}
	slot := sx.globCache[f]
	if slot == nil {
		// Bound residency: the rescaled lists are uncompressed heap
		// copies, so an unbounded per-feature cache could grow toward a
		// full duplicate of the list section under a vocabulary-spanning
		// workload. Dropping everything on overflow keeps the common
		// skewed-workload case fully cached and merely re-pays the
		// rescale pass for cold features.
		if len(sx.globCache) >= maxGlobalizedFeatures {
			sx.globCache = map[string]*globSlot{}
		}
		slot = &globSlot{}
		sx.globCache[f] = slot
	}
	sx.globMu.Unlock()
	slot.once.Do(func() {
		slot.lists, slot.err = sx.buildGlobalizedLists(f)
	})
	return slot.lists, slot.err
}

// buildGlobalizedLists performs one feature's rescale pass over every
// segment's own list, fanning the independent per-segment passes out
// through the engine pool (this is the cold path after a Flush or cache
// reset; steady-state queries hit the cache).
func (sx *ShardedIndex) buildGlobalizedLists(f string) ([]plist.ScoreList, error) {
	lists := make([]plist.ScoreList, len(sx.segs))
	errs := make([]error, len(sx.segs))
	sx.fanOut(len(sx.segs), func(i int) {
		lists[i], errs[i] = sx.globalizeSegmentList(sx.segs[i], f)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return lists, nil
}

// globalizeSegmentList rescales one segment's score list for one feature
// to the global document frequency.
func (sx *ShardedIndex) globalizeSegmentList(seg *segment, f string) (plist.ScoreList, error) {
	ix := seg.ix
	if ix.Dict.Len() == 0 {
		return nil, nil
	}
	pool := ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors, err := ix.scoreCursors(s, []string{f}, nil)
	if err != nil {
		return nil, err
	}
	cur := cursors[0]
	entries := make([]plist.Entry, 0, cur.Len())
	for {
		e, ok := cur.Next()
		if !ok {
			break
		}
		n := probCount(e.Prob, ix.PhraseDF[e.Phrase])
		g := seg.localToGlobal[e.Phrase]
		entries = append(entries, plist.Entry{
			Phrase: e.Phrase,
			Prob:   float64(n) / float64(sx.globalDF[g]),
		})
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	plist.SortScoreOrder(entries)
	return entries, nil
}

// queryNRAAdaptive is the adaptive per-shard scatter for OR queries over
// full lists. Every segment runs NRA over its globalized lists, reporting
// its local top-k' candidates (by additive partial score) plus λ_s, an
// upper bound on any unreported partial; the gather completes candidates
// to exact global scores and, while Σ_s λ_s — the best score any fully
// hidden phrase could reach — is still at least the current global k-th
// score θ, re-issues every non-exhausted shard with k' raised by
// shardedKGrowth (the stop test is the aggregate bound, not a per-shard
// one: a single shard's λ cannot bound a phrase hidden across several).
func (sx *ShardedIndex) queryNRAAdaptive(ctx context.Context, q corpus.Query, k int) ([]topk.Result, error) {
	n := len(sx.segs)
	r := len(q.Features)
	perFeature := make([][]plist.ScoreList, r)
	for fi, f := range q.Features {
		lists, err := sx.globalizedLists(f)
		if err != nil {
			return nil, err
		}
		perFeature[fi] = lists
	}
	kLocal := make([]int, n)
	base := (k+n-1)/n + shardedKSlack
	for i := range kLocal {
		kLocal[i] = base
	}
	lambda := make([]float64, n)
	exhausted := make([]bool, n)
	localRes := make([][]topk.Result, n)
	errs := make([]error, n)
	candSet := make(map[phrasedict.PhraseID]struct{})
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for {
		sx.fanOut(len(active), func(j int) {
			i := active[j]
			seg := sx.segs[i]
			pool := seg.ix.ScratchPool()
			s := pool.Get()
			defer pool.Put(s)
			cursors, mem := s.MemCursors(r)
			for fi := 0; fi < r; fi++ {
				mem[fi].Reset(perFeature[fi][i])
				cursors[fi] = &mem[fi]
			}
			localRes[i], _, errs[i] = topk.NRAScratch(cursors, topk.NRAOptions{K: kLocal[i], Op: corpus.OpOR, Ctx: ctx}, s)
		})
		for _, i := range active {
			if errs[i] != nil {
				return nil, errs[i]
			}
			res := localRes[i]
			if len(res) < kLocal[i] {
				// The segment surrendered every candidate it has: a
				// hidden phrase has no entries here, partial score 0.
				exhausted[i] = true
				lambda[i] = 0
			} else {
				// No phrase outside the returned set can have a partial
				// score above the k'-th returned upper bound.
				lambda[i] = res[len(res)-1].Upper
			}
			seg := sx.segs[i]
			for _, r := range res {
				candSet[seg.localToGlobal[r.Phrase]] = struct{}{}
			}
		}
		cands := make([]phrasedict.PhraseID, 0, len(candSet))
		for id := range candSet {
			cands = append(cands, id)
		}
		slices.Sort(cands)
		results, err := sx.completeAndMerge(ctx, q, k, cands)
		if err != nil {
			return nil, err
		}
		theta := math.Inf(-1)
		if len(results) == k {
			theta = results[k-1].Score
		}
		// A phrase reported nowhere has global score Σ_s (partial in s)
		// <= Σ_s λ_s; once that sum drops below θ the top-k is final.
		hiddenBound := 0.0
		for i := 0; i < n; i++ {
			if !exhausted[i] {
				hiddenBound += lambda[i]
			}
		}
		var reissue []int
		if math.IsInf(theta, -1) || hiddenBound >= theta {
			for i := 0; i < n; i++ {
				if !exhausted[i] {
					reissue = append(reissue, i)
					kLocal[i] *= shardedKGrowth
				}
			}
		}
		if len(reissue) == 0 {
			return results, nil
		}
		// A re-issue round is a fresh batch of segment scans; stop here if
		// the query was canceled while the gather was merging.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		active = reissue
	}
}

// completeAndMerge computes every candidate's exact global score — per-
// feature counts looked up in every segment, summed, divided by the global
// document frequency — and selects the top-k through the partial merger.
// Re-issue rounds re-complete the whole accumulated candidate set (a
// deliberate simplicity trade-off: rounds are bounded by the geometric k'
// growth, and per-candidate completion is a handful of log-time lookups).
func (sx *ShardedIndex) completeAndMerge(ctx context.Context, q corpus.Query, k int, cands []phrasedict.PhraseID) ([]topk.Result, error) {
	parts := make([]topk.PartialList, len(sx.segs))
	errs := make([]error, len(sx.segs))
	sx.fanOut(len(sx.segs), func(i int) {
		parts[i], errs[i] = sx.completeSegment(ctx, i, q, cands)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sx.mergeParts(parts, sx.listMergeOptions(q, k))
}

// completeSegment looks up each candidate's per-feature co-occurrence
// counts in one segment's full ID-ordered lists by seeking (SkipTo) from
// candidate to candidate.
func (sx *ShardedIndex) completeSegment(ctx context.Context, i int, q corpus.Query, cands []phrasedict.PhraseID) (topk.PartialList, error) {
	// One check per segment visit suffices: completion is a bounded number
	// of log-time lookups, orders of magnitude cheaper than a list scan.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return topk.PartialList{}, err
		}
	}
	seg := sx.segs[i]
	l2g := seg.localToGlobal
	var (
		locals  []phrasedict.PhraseID
		globals []phrasedict.PhraseID
	)
	for _, g := range cands {
		if j, found := slices.BinarySearch(l2g, g); found {
			locals = append(locals, phrasedict.PhraseID(j))
			globals = append(globals, g)
		}
	}
	r := len(q.Features)
	out := topk.PartialList{IDs: globals}
	if len(globals) == 0 {
		return out, nil
	}
	out.Counts = make([]uint32, len(globals)*r)
	smj, err := seg.ix.SMJ(1)
	if err != nil {
		return out, err
	}
	pool := seg.ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors, err := seg.ix.idCursors(s, smj, q.Features, nil)
	if err != nil {
		return out, err
	}
	for fi, c := range cursors {
		cur := c.(plist.SkipCursor)
		// SkipTo consumes the entry it lands on; when that entry lies past
		// the candidate asked for, it is held here for the candidates after.
		var pend plist.Entry
		havePend := false
		for ci, local := range locals {
			if havePend {
				if pend.Phrase > local {
					continue // no entry for this candidate
				}
				if pend.Phrase == local {
					out.Counts[ci*r+fi] = probCount(pend.Prob, seg.ix.PhraseDF[local])
					havePend = false
					continue
				}
				havePend = false // stale: the cursor is already past it
			}
			e, ok := cur.SkipTo(local)
			if !ok {
				if err := cur.Err(); err != nil {
					return out, err
				}
				break // list exhausted: no later candidate matches
			}
			if e.Phrase == local {
				out.Counts[ci*r+fi] = probCount(e.Prob, seg.ix.PhraseDF[local])
			} else {
				pend, havePend = e, true
			}
		}
	}
	return out, nil
}

// probCount recovers the exact integer co-occurrence count from a stored
// probability: Prob was built as float64(count)/float64(df), and one
// division plus one multiplication stay within a few ulps — far below the
// 1/2 that rounding tolerates.
func probCount(prob float64, df uint32) uint32 {
	return uint32(math.Round(prob * float64(df)))
}

// QueryGM answers a query exactly by scatter-gathering the forward-index
// baseline: every segment counts phrase frequencies over its own slice of
// D' (GM's merge-count), and the gather sums the integer frequencies and
// divides by the global document frequency — the identical arithmetic and
// (score, ID) tie ordering as the monolithic GM/Exact baselines.
func (sx *ShardedIndex) QueryGM(ctx context.Context, q corpus.Query, k int) ([]topk.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	parts := make([]topk.PartialList, len(sx.segs))
	errs := make([]error, len(sx.segs))
	sx.fanOut(len(sx.segs), func(i int) {
		parts[i], errs[i] = sx.gmSegment(ctx, i, q)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sx.mergeParts(parts, topk.MergeOptions{
		K:  k,
		Op: corpus.OpOR, // score is the plain frequency ratio
		R:  1,
		DF: sx.globalDF,
	})
}

// gmSegment merge-counts phrase frequencies over one segment's slice of
// the sub-collection, GM-style.
func (sx *ShardedIndex) gmSegment(ctx context.Context, i int, q corpus.Query) (topk.PartialList, error) {
	seg := sx.segs[i]
	ix := seg.ix
	var out topk.PartialList
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	if ix.Dict.Len() == 0 {
		return out, nil
	}
	if err := ix.materializeDocs(); err != nil {
		return out, err
	}
	dPrime, err := ix.Inverted.Select(q)
	if err != nil {
		return out, err
	}
	// Pooled counting scratch (returned all-zero): the per-query cost is
	// the touched set, not |P_segment|.
	counts, _ := seg.gmCounts.Get().([]uint32)
	if len(counts) < ix.Dict.Len() {
		counts = make([]uint32, ix.Dict.Len())
	}
	var touched []phrasedict.PhraseID
	for _, d := range dPrime {
		for _, p := range ix.Forward[d] {
			if counts[p] == 0 {
				touched = append(touched, p)
			}
			counts[p]++
		}
	}
	slices.Sort(touched)
	out.IDs = make([]phrasedict.PhraseID, 0, len(touched))
	out.Counts = make([]uint32, 0, len(touched))
	for _, p := range touched {
		out.IDs = append(out.IDs, seg.localToGlobal[p])
		out.Counts = append(out.Counts, counts[p])
		counts[p] = 0
	}
	seg.gmCounts.Put(counts)
	return out, nil
}

// AddDocument registers a new document; it becomes visible (and is routed
// to the write segment) at the next Flush.
func (sx *ShardedIndex) AddDocument(d corpus.Document) {
	sx.pendingAdd = append(sx.pendingAdd, d)
}

// RemoveDocument registers the deletion of the document with the given
// global ID, applied at the next Flush.
func (sx *ShardedIndex) RemoveDocument(id corpus.DocID) error {
	if _, _, err := sx.remap.Split(id); err != nil {
		return err
	}
	if sx.pendingRemove[id] {
		return fmt.Errorf("core: doc %d already scheduled for removal", id)
	}
	if sx.pendingRemove == nil {
		sx.pendingRemove = map[corpus.DocID]bool{}
	}
	sx.pendingRemove[id] = true
	return nil
}

// PendingUpdates reports the number of un-flushed document changes.
func (sx *ShardedIndex) PendingUpdates() int {
	return len(sx.pendingAdd) + len(sx.pendingRemove)
}

// DiscardPendingUpdates drops every un-applied document change. It is the
// recovery path for a refused Flush (e.g. a removal set that would empty
// a segment): pending updates cannot be cancelled individually, and both
// Flush and manifest persistence refuse while they exist.
func (sx *ShardedIndex) DiscardPendingUpdates() {
	sx.pendingAdd = nil
	sx.pendingRemove = nil
}

// Flush applies pending document updates: additions route to the write
// segment (the last one) and removals to their owning segments, so only
// the touched segments re-extract and rebuild. The global universe is then
// recomputed from the per-segment tallies, and any untouched segment that
// contains a phrase whose universe membership changed is rebuilt too —
// exactness is preserved, and the typical flush rebuilds one segment.
func (sx *ShardedIndex) Flush() error {
	if sx.broken != nil {
		return fmt.Errorf("core: engine is inconsistent after a failed flush (%w); rebuild it from the corpus or a manifest", sx.broken)
	}
	if sx.PendingUpdates() == 0 {
		return nil
	}
	n := len(sx.segs)
	if err := sx.ensureTallies(); err != nil {
		return err
	}

	removed := make([]map[corpus.DocID]bool, n)
	for id := range sx.pendingRemove {
		s, local, err := sx.remap.Split(id)
		if err != nil {
			return err
		}
		if removed[s] == nil {
			removed[s] = map[corpus.DocID]bool{}
		}
		removed[s][local] = true
	}
	changed := make([]bool, n)
	for s := range removed {
		if removed[s] != nil {
			changed[s] = true
		}
	}
	writeSeg := n - 1
	if len(sx.pendingAdd) > 0 {
		changed[writeSeg] = true
	}
	// Stage the changed segments' new corpora and re-extract them WITHOUT
	// touching engine state, so a refused or failed flush leaves the
	// engine (and the still-pending updates) fully consistent for a retry.
	numChanged := 0
	newCorpora := make([]*corpus.Corpus, n)
	for s := 0; s < n; s++ {
		if !changed[s] {
			continue
		}
		numChanged++
		old := sx.segs[s].c
		nc := corpus.New()
		for i := 0; i < old.Len(); i++ {
			if removed[s] != nil && removed[s][corpus.DocID(i)] {
				continue
			}
			doc, err := old.Doc(corpus.DocID(i))
			if err != nil {
				return err
			}
			if _, err := nc.Add(doc); err != nil {
				return err
			}
		}
		if s == writeSeg {
			for _, d := range sx.pendingAdd {
				if _, err := nc.Add(d); err != nil {
					return err
				}
			}
		}
		if nc.Len() == 0 {
			return fmt.Errorf("core: segment %d would be empty after removals; sharded segments cannot be empty", s)
		}
		newCorpora[s] = nc
	}
	stats := make([][]textproc.PhraseStats, n)
	newTallies := make([]map[string]int32, n)
	errs := make([]error, n)
	inner := innerWorkers(sx.workers, numChanged)
	sx.fanOut(n, func(i int) {
		if !changed[i] {
			return
		}
		stats[i], errs[i] = extractSegment(newCorpora[i], sx.opts, inner)
		if errs[i] == nil {
			newTallies[i] = tallyOf(stats[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Point of no return: install the staged corpora and consume the
	// pending updates — the new corpora embody them, so a retry after a
	// later failure must not re-apply removal IDs against the already-
	// shifted documents. (Errors past this point — snapshot unmap failures,
	// dictionary-width violations — leave the engine needing a rebuild,
	// but never silently corrupt data on retry.)
	for s := 0; s < n; s++ {
		if changed[s] {
			sx.segs[s].c = newCorpora[s]
		}
	}
	sx.pendingAdd = nil
	sx.pendingRemove = nil

	oldPhrases := make(map[string]bool, sx.dict.Len())
	for i := 0; i < sx.dict.Len(); i++ {
		oldPhrases[sx.dict.MustPhrase(phrasedict.PhraseID(i))] = true
	}
	// Incremental universe maintenance: apply the changed segments' tally
	// deltas and re-evaluate only the touched phrases.
	touched := map[string]struct{}{}
	for i := 0; i < n; i++ {
		if changed[i] {
			sx.setSegmentTally(i, newTallies[i], touched)
		}
	}
	if err := sx.rebuildUniverseTouched(touched); err != nil {
		return sx.failFlush(err)
	}
	// Membership delta: phrases that entered or left the universe force a
	// rebuild of every segment containing them.
	var delta []string
	for i := 0; i < sx.dict.Len(); i++ {
		p := sx.dict.MustPhrase(phrasedict.PhraseID(i))
		if oldPhrases[p] {
			delete(oldPhrases, p)
		} else {
			delta = append(delta, p)
		}
	}
	for p := range oldPhrases {
		delta = append(delta, p)
	}
	rebuild := make([]bool, n)
	copy(rebuild, changed)
	for s := 0; s < n; s++ {
		if rebuild[s] {
			continue
		}
		for _, p := range delta {
			if sx.segs[s].tally[p] > 0 {
				rebuild[s] = true
				break
			}
		}
	}

	numRebuild := 0
	for s := 0; s < n; s++ {
		if rebuild[s] {
			numRebuild++
		}
	}
	segOpt := sx.opts
	segOpt.Workers = innerWorkers(sx.workers, numRebuild)
	sx.fanOut(n, func(i int) {
		if !rebuild[i] {
			return
		}
		if stats[i] == nil {
			stats[i], errs[i] = extractSegment(sx.segs[i].c, sx.opts, segOpt.Workers)
			if errs[i] != nil {
				return
			}
		}
		errs[i] = sx.buildSegment(i, stats[i], segOpt)
	})
	for _, err := range errs {
		if err != nil {
			return sx.failFlush(err)
		}
	}
	// Untouched segments keep their indexes but re-anchor their phrase IDs
	// in the (possibly shifted) global dictionary.
	for s := 0; s < n; s++ {
		if rebuild[s] {
			continue
		}
		seg := sx.segs[s]
		l2g := make([]phrasedict.PhraseID, seg.ix.Dict.Len())
		for local := 0; local < seg.ix.Dict.Len(); local++ {
			g, ok, err := sx.dict.ID(seg.ix.Dict.MustPhrase(phrasedict.PhraseID(local)))
			if err != nil {
				return sx.failFlush(err)
			}
			if !ok {
				return sx.failFlush(fmt.Errorf("core: segment %d phrase %q vanished from the universe without a rebuild", s, seg.ix.Dict.MustPhrase(phrasedict.PhraseID(local))))
			}
			l2g[local] = g
		}
		seg.localToGlobal = l2g
	}

	sx.assemble()
	sx.globMu.Lock()
	sx.globCache = nil
	sx.globMu.Unlock()
	return nil
}

// failFlush latches a Flush failure past the point of no return so every
// later Flush and persistence attempt refuses loudly instead of silently
// succeeding over a partially updated engine.
func (sx *ShardedIndex) failFlush(err error) error {
	sx.broken = err
	return err
}

// ensureTallies re-derives the per-segment phrase tallies for segments
// missing them (manifest-opened engines discard tallies; the first Flush
// pays one re-extraction per segment to restore exact universe
// maintenance).
func (sx *ShardedIndex) ensureTallies() error {
	missing := 0
	for _, seg := range sx.segs {
		if seg.tally == nil {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	errs := make([]error, len(sx.segs))
	inner := innerWorkers(sx.workers, missing)
	sx.fanOut(len(sx.segs), func(i int) {
		if sx.segs[i].tally != nil {
			return
		}
		stats, err := extractSegment(sx.segs[i].c, sx.opts, inner)
		if err != nil {
			errs[i] = err
			return
		}
		sx.segs[i].tally = tallyOf(stats)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if sx.globalTally == nil {
		total := map[string]int32{}
		for _, seg := range sx.segs {
			for p, c := range seg.tally {
				total[p] += c
			}
		}
		sx.globalTally = total
	}
	return nil
}

// PhraseDocFreqByText reports the corpus-wide document frequency of a
// phrase given by its canonical text, zero (with no error) when it is not
// in the global dictionary — the sharded counterpart of
// Index.PhraseDocFreqByText for the live-tail gather merge.
func (sx *ShardedIndex) PhraseDocFreqByText(phrase string) (uint32, error) {
	id, ok, err := sx.dict.ID(phrase)
	if err != nil || !ok {
		return 0, err
	}
	return sx.globalDF[id], nil
}
