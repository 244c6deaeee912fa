// Package phrasemine mines interesting phrases from dynamically selected
// subsets of a text corpus in real time, implementing the system of
//
//	Deepak P, Atreyee Dey, Debapriyo Majumdar.
//	"Fast Mining of Interesting Phrases from Subsets of Text Corpora."
//	EDBT 2014, pp. 193-204.
//
// A sub-collection D' of the indexed corpus D is selected with a keyword or
// metadata-facet query combined under AND or OR; the miner returns the
// top-k phrases ranked by the interestingness measure
//
//	ID(p, D') = freq(p, D') / freq(p, D)
//
// approximated through per-keyword phrase lists and a conditional
// independence assumption, which is what makes millisecond responses
// possible (the exact baselines are also available for comparison).
//
// # Quickstart
//
//	miner, err := phrasemine.NewMinerFromTexts(texts, phrasemine.DefaultConfig())
//	...
//	results, err := miner.Mine([]string{"trade", "reserves"}, phrasemine.OR, phrasemine.QueryOptions{})
//	for _, r := range results {
//		fmt.Println(r.Phrase, r.Interestingness)
//	}
//
// # Concurrency
//
// Index construction is parallel: tokenization, n-gram extraction,
// inverted-index construction and per-keyword phrase-list building fan out
// across Config.Workers workers over contiguous document shards and merge
// deterministically, so the built index — including its serialized form —
// is byte-identical at every worker count. Workers=1 selects the fully
// sequential path; the zero value selects GOMAXPROCS.
//
// A Miner is safe for concurrent use. Any number of goroutines may call
// Mine (and the read-only accessors) simultaneously; Add and Remove
// serialize briefly against in-flight queries, so a query observes either
// the state before or after an update, never a torn intermediate. On a
// monolithic miner Flush excludes queries and Adds only for two short
// swaps: the rebuild and the snapshot write run while both keep going
// against the previous index plus its pending updates (a sharded Flush
// still excludes them throughout). Remove, DiscardPendingUpdates, Save and
// Close wait for an in-flight Flush. Query-time fan-out runs through a
// worker pool bounded by Config.Workers and shared across all concurrent
// queries on the miner: MineBatch answers many
// queries through it, and multi-keyword queries with pending updates
// prepare their per-keyword delta-adjusted lists through it (on the
// no-update path per-keyword preparation is a map lookup, so it stays
// inline).
//
// # Cancellation
//
// MineCtx, MineDetailed and MineBatchCtx take a context whose expiry
// stops the query cooperatively: the list algorithms test it about once per
// thousand entry reads and return ctx.Err() within roughly a millisecond of
// cancellation instead of running to completion. A canceled query never
// returns a partial answer — except that QueryOptions.Partial opts a
// sharded miner into graceful degradation, merging the segments that
// completed before the deadline into an answer marked Degraded. The GM and
// Exact baselines check the context only on entry and between segment
// scatters; once a baseline scan is underway it runs to completion.
package phrasemine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phrasemine/internal/baseline"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/diskio/faultfs"
	"phrasemine/internal/livetail"
	"phrasemine/internal/parallel"
	"phrasemine/internal/plist"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// ErrCorruptSnapshot classifies decode failures of persisted index data
// that passed open-time validation — truncated or bit-flipped mapped
// sections, malformed posting blocks, invalid dictionary records. Queries
// against a corrupt mapped or sharded snapshot return an error matching
// errors.Is(err, ErrCorruptSnapshot) (with section detail in the message)
// instead of panicking, so a serving process degrades per-query rather
// than crashing.
var ErrCorruptSnapshot = diskio.ErrCorruptSnapshot

// ErrMinerClosed is returned by operations on a miner whose Close has
// already run. It signals a lost race between a query and a generation
// swap (hot reload); callers holding a refreshed miner reference should
// simply retry against it.
var ErrMinerClosed = fmt.Errorf("phrasemine: miner is closed")

// Operator combines the per-keyword document sets of a query.
type Operator int

const (
	// AND selects documents containing every keyword.
	AND Operator = iota
	// OR selects documents containing at least one keyword.
	OR
)

// String renders the operator.
func (o Operator) String() string {
	if o == AND {
		return "AND"
	}
	return "OR"
}

func (o Operator) internal() (corpus.Operator, error) {
	switch o {
	case AND:
		return corpus.OpAND, nil
	case OR:
		return corpus.OpOR, nil
	default:
		return 0, fmt.Errorf("phrasemine: invalid operator %d", o)
	}
}

// Algorithm selects the query processing strategy.
type Algorithm string

const (
	// AlgoAuto picks SMJ for small/truncated lists and NRA otherwise —
	// the paper's own guidance for in-memory operation (Section 5.5).
	AlgoAuto Algorithm = ""
	// AlgoNRA is the No-Random-Access threshold algorithm over
	// score-ordered lists (works on disk- and memory-resident indexes).
	AlgoNRA Algorithm = "nra"
	// AlgoSMJ is the sort-merge join over phrase-ID-ordered lists.
	AlgoSMJ Algorithm = "smj"
	// AlgoGM is the exact forward-index baseline (Gao & Michel).
	AlgoGM Algorithm = "gm"
	// AlgoExact evaluates the interestingness measure exhaustively.
	AlgoExact Algorithm = "exact"
)

// Document is one input document: raw text plus optional metadata facets.
type Document struct {
	// Text is the raw document text; the miner tokenizes it.
	Text string
	// Facets are metadata name/value pairs ("venue" -> "sigmod"),
	// queryable alongside keywords via Facet.
	Facets map[string]string
}

// Config controls corpus indexing. The zero value selects the documented
// default for every field, so Config{} and DefaultConfig() index
// identically; NewMinerFromTexts and NewMinerFromDocuments reject invalid
// settings through Validate.
type Config struct {
	// MinPhraseWords bounds phrase length in words from below (zero
	// defaults to 1, the paper's setting).
	MinPhraseWords int
	// MaxPhraseWords bounds phrase length in words from above (zero
	// defaults to 6, the paper's setting).
	MaxPhraseWords int
	// MinDocFreq is the minimum number of documents a phrase must appear
	// in to be indexed (zero defaults to 5).
	MinDocFreq int
	// DropStopwordPhrases discards phrases consisting solely of
	// stopwords (default true; the interestingness measure already
	// de-prioritizes them, dropping just shrinks the index).
	DropStopwordPhrases bool
	// Keywords optionally restricts per-keyword list construction to
	// the given set. Leave nil to support querying on any word.
	Keywords []string
	// Workers bounds indexing and query concurrency: 1 forces the fully
	// sequential paths, 0 (the default) selects GOMAXPROCS. The parallel
	// build is deterministic — the index is byte-identical at every
	// worker count.
	Workers int
	// Shards is the number of document shards the parallel phrase
	// extraction scans over (0 defaults to 4*Workers). The other build
	// stages size their shards from Workers directly.
	Shards int
	// Compression keeps the query-time index structures in their
	// block-compressed physical form (delta/varint blocks with skip
	// entries) instead of raw slices: ~4-6x less list memory, with
	// cursors decoding one 128-entry block at a time on the query path.
	// Results are bit-identical either way. Snapshots always persist the
	// compressed layout; this knob chooses the in-memory representation
	// when building or loading (miners opened with OpenMinerMapped are
	// always compressed — the mapping is the index).
	Compression bool
	// Segments selects the sharded multi-segment engine: the corpus is
	// partitioned into this many contiguous document segments, each a full
	// independently built (and independently persisted) index, and queries
	// scatter across segments and gather through a merger whose answers
	// are bit-identical to the monolithic engine over the same corpus.
	// Values <= 1 select the monolithic engine. Sharded miners differ from
	// monolithic ones in two documented ways: pending Add/Remove updates
	// become visible only at Flush (whose cost is proportional to the
	// touched segments, typically just the write segment, instead of the
	// corpus), and persistence goes through SaveManifest/OpenShardedMiner
	// (one snapshot per segment behind a manifest) instead of Save.
	Segments int
	// WALDir, when non-empty, enables the durable mutation log: every
	// Add/Remove is appended (and fsynced, per WALSync) to a write-ahead
	// log under this directory before it is applied, and surviving log
	// records replay into the pending delta when a miner reopens, so an
	// acknowledged mutation survives kill -9 even before the next Flush.
	// Like Workers, the WAL settings are properties of the running
	// process, not of the index: Save strips them from snapshots, and a
	// loaded miner re-enables logging through EnableWAL.
	WALDir string
	// WALSync selects append durability when WALDir is set: "" or
	// "always" fsyncs inside every Add/Remove (one fsync per mutation);
	// "batch" lets concurrent mutations share fsyncs (group commit) — an
	// Add/Remove still returns only after its record is durable, but one
	// fsync can cover every record appended before it.
	WALSync string
	// Tail configures the live tail: with Tail.Enabled, every Add also
	// lands in an in-memory tail buffer (plus a count-min sketch of its
	// co-occurrence counts) that Mine consults immediately — a freshly
	// added document is query-visible with no Flush. Like the WAL
	// settings, the tail is a property of the running process: Save strips
	// it, and loaded miners re-enable it through EnableLiveTail.
	Tail TailConfig
}

// DefaultConfig returns the paper's indexing configuration.
func DefaultConfig() Config {
	return Config{
		MinPhraseWords:      1,
		MaxPhraseWords:      6,
		MinDocFreq:          5,
		DropStopwordPhrases: true,
	}
}

// Validate reports configuration errors with actionable messages. Zero
// values are valid (they select the documented defaults); negative counts
// and inverted bounds are not.
func (c Config) Validate() error {
	if c.MinPhraseWords < 0 {
		return fmt.Errorf("phrasemine: MinPhraseWords must be non-negative, got %d (0 selects the default of 1)", c.MinPhraseWords)
	}
	if c.MaxPhraseWords < 0 {
		return fmt.Errorf("phrasemine: MaxPhraseWords must be non-negative, got %d (0 selects the default of 6)", c.MaxPhraseWords)
	}
	minWords, maxWords := c.MinPhraseWords, c.MaxPhraseWords
	if minWords == 0 {
		minWords = 1
	}
	if maxWords == 0 {
		maxWords = 6
	}
	if maxWords < minWords {
		return fmt.Errorf("phrasemine: phrase length bounds inverted: MinPhraseWords=%d > MaxPhraseWords=%d", minWords, maxWords)
	}
	if c.MinDocFreq < 0 {
		return fmt.Errorf("phrasemine: MinDocFreq must be non-negative, got %d (0 selects the default of 5)", c.MinDocFreq)
	}
	if c.Workers < 0 {
		return fmt.Errorf("phrasemine: Workers must be non-negative, got %d (0 selects GOMAXPROCS, 1 forces sequential)", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("phrasemine: Shards must be non-negative, got %d (0 selects 4*Workers)", c.Shards)
	}
	if c.Segments < 0 {
		return fmt.Errorf("phrasemine: Segments must be non-negative, got %d (0 or 1 selects the monolithic engine)", c.Segments)
	}
	for i, k := range c.Keywords {
		if strings.TrimSpace(k) == "" {
			return fmt.Errorf("phrasemine: Keywords[%d] is empty", i)
		}
	}
	if _, err := diskio.ParseWALSyncMode(c.WALSync); err != nil {
		return fmt.Errorf("phrasemine: WALSync %q is not a sync mode (want \"\", \"always\" or \"batch\")", c.WALSync)
	}
	if c.WALSync != "" && c.WALDir == "" {
		return fmt.Errorf("phrasemine: WALSync=%q set without WALDir; set WALDir to enable the mutation log", c.WALSync)
	}
	if err := c.Tail.validate(); err != nil {
		return err
	}
	return nil
}

// Result is one mined phrase.
type Result struct {
	// Phrase is the mined phrase text.
	Phrase string
	// Score is the algorithm-native aggregate score (sum of conditional
	// probabilities for OR, sum of their logs for AND; for GM/Exact it
	// is the exact interestingness).
	Score float64
	// Interestingness estimates ID(p, D') on the scale of Eq. 1 (for
	// GM/Exact it is exact).
	Interestingness float64
}

// DefaultK is the result count a Mine call with QueryOptions.K == 0
// gets — the paper's evaluation setting. Layers above the miner (the HTTP
// server's request parser and its cache keys) use it instead of
// re-deriving the default by hand.
const DefaultK = 5

// DefaultListFraction is the effective ListFraction when QueryOptions
// leaves it zero (or out of range): full lists, no truncation.
const DefaultListFraction = 1.0

// QueryOptions tunes one Mine call.
type QueryOptions struct {
	// K is the number of phrases to return (0 selects DefaultK;
	// negative values are an error).
	K int
	// Algorithm selects the strategy (default AlgoAuto).
	Algorithm Algorithm
	// ListFraction processes only the top fraction of each keyword's
	// phrase list (0 or 1 = full lists): the partial-list approximation
	// knob. Applies to NRA (query-time) and SMJ (construction-time,
	// cached per fraction).
	ListFraction float64
	// Partial opts a sharded miner into graceful degradation: when the
	// context passed to MineCtx/MineDetailed expires mid-query, the
	// segments whose scans completed still gather into an answer — marked
	// Degraded in Mined, with the completed-segment count — instead of the
	// whole query failing with the context error. The degraded answer is
	// bit-identical to a full gather over exactly the completed segments.
	// Partial routes both list algorithms through the exhaustive scatter
	// scan (uniform per-segment completion semantics); it has no effect on
	// monolithic miners or the GM/Exact baselines, and a query that beats
	// its deadline returns the full, non-degraded answer either way.
	Partial bool
	// Window, when positive, mines only the documents ingested through the
	// live tail during the trailing window (rounded up to whole rotation
	// periods) — served entirely from the tail's rotated sketches, so the
	// answer is always marked Approximate and survives compaction.
	// Requires a live tail (Config.Tail.Enabled or EnableLiveTail) and a
	// list algorithm (the GM/Exact baselines have no windowed form);
	// negative values are an error.
	Window time.Duration
}

// Miner indexes a corpus and answers interesting-phrase queries. It is
// safe for concurrent use: see the package-level Concurrency section.
type Miner struct {
	// flushMu serializes Flush with the operations that must not
	// interleave with its off-lock rebuild and snapshot write: Remove,
	// DiscardPendingUpdates, EnableWAL, EnableLiveTail, Save, SaveManifest
	// and Close. Add and queries never take it. Lock order: flushMu, then
	// mu. The fields ix, wal, walFS, walCheckpoint, tail and cfg change
	// only with both held, so holding either one is enough to read them.
	flushMu sync.Mutex
	// mu serializes document updates (Add/Remove and Flush's freeze and
	// install steps, write lock) against queries (read lock). Queries only
	// read the index and the pending delta, so any number may run
	// concurrently. The read side is the generation refcount: Close
	// write-acquires mu, so it drains every in-flight query before the
	// mapping is released, and the closed flag below turns any later use
	// into ErrMinerClosed instead of a read through an unmapped region.
	mu sync.RWMutex
	// closed latches Close. Guarded by mu; every entry point that touches
	// index data checks it immediately after acquiring the lock.
	closed bool
	ix     *core.Index
	// sh is the sharded multi-segment engine; exactly one of ix and sh is
	// non-nil (Config.Segments > 1 selects sh).
	sh    *core.ShardedIndex
	cfg   Config
	delta *core.Delta
	// gmPool recycles GM clones (each owns |P|-sized counting scratch)
	// across queries, so concurrent AlgoGM calls get private scratch
	// without a fresh multi-megabyte allocation per query. Replaced on
	// Flush: clones are bound to the index they were cloned from.
	// Accessed under mu (read lock in Mine, write lock in Flush).
	gmPool *sync.Pool
	// wal, when non-nil, is the durable mutation log: Add/Remove append
	// to it before touching the delta, Flush checkpoints and truncates
	// it, and EnableWAL replays its surviving records at open. Set and
	// cleared under flushMu and mu; append, checkpoint and sync serialize
	// through the write lock plus the WAL's own mutexes (the batch-mode
	// group-commit fsync runs after mu is released).
	wal *diskio.WAL
	// walFS is the filesystem checkpoint persistence writes through — the
	// fault-injection seam. faultfs.OS{} outside tests.
	walFS faultfs.FS
	// walCheckpoint is where Flush persists the rebuilt index before
	// truncating the log: a snapshot file path (monolithic) or a manifest
	// directory (sharded). Empty means Flush only marks records applied —
	// the log keeps growing until a caller persists and truncates it.
	walCheckpoint string
	// walMarker is the (generation, records) WAL prefix the snapshot this
	// miner was loaded from had already absorbed; EnableWAL passes it to
	// OpenWAL so replay skips exactly that prefix. Nil for fresh builds.
	walMarker *diskio.WALMarker
	// sharedHits/sharedMisses accumulate shared-scan block-decode cache
	// outcomes across MineBatch calls. Atomic rather than mu-guarded:
	// batches tally them after releasing the read lock.
	sharedHits   atomic.Int64
	sharedMisses atomic.Int64
	// tail, when non-nil, is the live-tail buffer: Add feeds it under the
	// write lock, queries merge its contributions under the read lock, and
	// Flush drops the documents it folded into the index (DropOldest).
	// Enabled by Config.Tail.Enabled or EnableLiveTail — which must precede
	// EnableWAL so log replay repopulates the tail.
	tail *livetail.Tail
}

// NewMinerFromTexts tokenizes and indexes plain-text documents.
func NewMinerFromTexts(texts []string, cfg Config) (*Miner, error) {
	docs := make([]Document, len(texts))
	for i, t := range texts {
		docs[i] = Document{Text: t}
	}
	return NewMinerFromDocuments(docs, cfg)
}

// NewMinerFromDocuments tokenizes and indexes documents with facets.
// Tokenization fans out across cfg.Workers workers; documents keep their
// input order (DocID i is the i-th input document) regardless of worker
// count.
func NewMinerFromDocuments(docs []Document, cfg Config) (*Miner, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("phrasemine: no documents")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := parallel.Workers(cfg.Workers)
	tokenized := make([]corpus.Document, len(docs))
	parallel.ForEachShard(len(docs), 4*workers, workers, func(_ int, r parallel.Range) {
		tok := textproc.Tokenizer{EmitSentenceBreaks: true}
		for i := r.Lo; i < r.Hi; i++ {
			tokenized[i] = corpus.Document{
				Tokens: tok.Tokenize(docs[i].Text),
				Facets: docs[i].Facets,
			}
		}
	})
	c := corpus.New()
	for _, d := range tokenized {
		if _, err := c.Add(d); err != nil {
			return nil, err
		}
	}
	m, err := newMiner(c, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Tail.Enabled {
		// Before the WAL: EnableWAL replays surviving records through
		// addDocumentLocked, and only an already-enabled tail sees them.
		if err := m.EnableLiveTail(cfg.Tail); err != nil {
			m.Close()
			return nil, err
		}
	}
	if cfg.WALDir != "" {
		// A fresh build carries no marker: every surviving record of an
		// earlier run replays into the pending delta.
		if _, err := m.EnableWAL(WALConfig{Dir: cfg.WALDir, Sync: cfg.WALSync}); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

func newMiner(c *corpus.Corpus, cfg Config) (*Miner, error) {
	opt := core.BuildOptions{
		Extractor: textproc.ExtractorOptions{
			MinWords:               cfg.MinPhraseWords,
			MaxWords:               cfg.MaxPhraseWords,
			MinDocFreq:             cfg.MinDocFreq,
			DropAllStopwordPhrases: cfg.DropStopwordPhrases,
		},
		ListFeatures: cfg.Keywords,
		Workers:      cfg.Workers,
		Shards:       cfg.Shards,
		Compression:  cfg.Compression,
	}
	if cfg.Segments > 1 {
		sh, err := core.BuildSharded(c, opt, cfg.Segments)
		if err != nil {
			return nil, err
		}
		cfg.Segments = sh.NumSegments() // record the clamped count
		// gmPool stays nil: the sharded engine pools GM scratch per segment.
		return &Miner{sh: sh, cfg: cfg}, nil
	}
	ix, err := core.Build(c, opt)
	if err != nil {
		return nil, err
	}
	return &Miner{ix: ix, cfg: cfg, gmPool: &sync.Pool{}}, nil
}

// NumDocuments reports the corpus size |D|.
func (m *Miner) NumDocuments() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.sh != nil {
		return m.sh.NumDocs()
	}
	return m.ix.Corpus.Len()
}

// NumPhrases reports the phrase-universe size |P|.
func (m *Miner) NumPhrases() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.sh != nil {
		return m.sh.NumPhrases()
	}
	return m.ix.NumPhrases()
}

// VocabSize reports the number of distinct indexable features |W|.
func (m *Miner) VocabSize() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.sh != nil {
		return m.sh.VocabSize()
	}
	return m.ix.Inverted.VocabSize()
}

// Segments reports the segment count of a sharded miner, or zero for the
// monolithic engine.
func (m *Miner) Segments() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.sh != nil {
		return m.sh.NumSegments()
	}
	return 0
}

// Facet renders a metadata facet as a query keyword, e.g.
// Facet("venue", "sigmod") for the venue:sigmod sub-collection of Table 1.
func Facet(name, value string) string {
	return corpus.FacetFeature(name, value)
}

// Mine returns the top-k interesting phrases of the sub-collection
// selected by the keywords under the operator.
//
// While document updates are pending (Add/Remove before Flush), the NRA and
// SMJ algorithms consult the delta index for corrected probabilities; the
// GM and Exact baselines always answer over the base corpus as of the last
// Flush.
//
// Mine is safe for concurrent callers; see the package-level Concurrency
// section. It is MineCtx with a background context (no cancellation).
func (m *Miner) Mine(keywords []string, op Operator, opt QueryOptions) ([]Result, error) {
	return m.MineCtx(context.Background(), keywords, op, opt)
}

// MineCtx is Mine with cooperative cancellation: when ctx is canceled or
// its deadline expires, the query stops within about a millisecond and
// returns ctx.Err() — see the package-level Cancellation section. For
// degraded partial answers (QueryOptions.Partial) use MineDetailed, which
// reports whether the answer was degraded.
func (m *Miner) MineCtx(ctx context.Context, keywords []string, op Operator, opt QueryOptions) ([]Result, error) {
	mined, err := m.MineDetailed(ctx, keywords, op, opt)
	if err != nil {
		return nil, err
	}
	return mined.Results, nil
}

// Mined is MineDetailed's outcome: the results plus the degradation
// markers a caller opting into QueryOptions.Partial needs to interpret
// them.
type Mined struct {
	// Results holds the mined phrases.
	Results []Result
	// Degraded reports that the context expired mid-query on a sharded
	// miner with QueryOptions.Partial set, and Results covers only the
	// SegmentsDone segments that completed before the deadline. A degraded
	// answer is bit-identical to a full gather over exactly those segments.
	Degraded bool
	// SegmentsTotal is the miner's segment count (zero on a monolithic
	// miner, where degradation never applies).
	SegmentsTotal int
	// SegmentsDone is how many segments contributed to Results; equal to
	// SegmentsTotal when the answer is complete.
	SegmentsDone int
	// TailDocs is how many live-tail documents contributed to the answer:
	// the matching tail documents when the tail was scanned exactly, or the
	// whole consulted tail when the sketch answered. Zero when the tail is
	// disabled, empty, or matched nothing.
	TailDocs int
	// Approximate marks an answer whose tail contribution came from the
	// count-min sketches (tail above its exact threshold, or a windowed
	// query) rather than an exact scan: tail counts are upper bounds within
	// the sketch's documented error, never undercounts.
	Approximate bool
}

// MineDetailed is MineCtx reporting the full outcome, including whether a
// Partial query degraded and how many segments contributed. A nil ctx is
// treated as context.Background().
func (m *Miner) MineDetailed(ctx context.Context, keywords []string, op Operator, opt QueryOptions) (Mined, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := prepareQuery(keywords, op, opt)
	if err != nil {
		return Mined{}, err
	}
	return m.mineOne(ctx, p, nil, nil)
}

// preparedQuery is a validated, normalized Mine request with its defaults
// and algorithm selection already resolved — everything that can be
// decided without touching index state.
type preparedQuery struct {
	q       corpus.Query
	algo    Algorithm
	k       int
	frac    float64
	partial bool
	window  time.Duration
}

// prepareQuery normalizes and validates one Mine request.
func prepareQuery(keywords []string, op Operator, opt QueryOptions) (preparedQuery, error) {
	iop, err := op.internal()
	if err != nil {
		return preparedQuery{}, err
	}
	q := corpus.NewQuery(iop, normalizeKeywords(keywords)...)
	// Canonical feature order: per-phrase float sums follow it, so two
	// orderings of one keyword set would otherwise differ in their last
	// bits (and the server's result cache keys on the sorted set).
	slices.Sort(q.Features)
	if err := q.Validate(); err != nil {
		return preparedQuery{}, err
	}
	if opt.K < 0 {
		return preparedQuery{}, fmt.Errorf("phrasemine: K must be non-negative, got %d (0 selects DefaultK = %d)", opt.K, DefaultK)
	}
	if opt.K == 0 {
		opt.K = DefaultK
	}
	if opt.Window < 0 {
		return preparedQuery{}, fmt.Errorf("phrasemine: Window must be non-negative, got %v", opt.Window)
	}
	if math.IsNaN(opt.ListFraction) {
		// NaN slips through every range guard (all comparisons are false);
		// reject it like the other invalid options.
		return preparedQuery{}, fmt.Errorf("phrasemine: ListFraction must not be NaN")
	}
	frac := opt.ListFraction
	if frac <= 0 || frac > 1 {
		frac = DefaultListFraction
	}
	algo := opt.Algorithm
	if algo == AlgoAuto {
		// The paper's Section 5.5 guidance: SMJ wins on short
		// (truncated) lists, NRA's pruning wins on long ones.
		if frac < 0.5 {
			algo = AlgoSMJ
		} else {
			algo = AlgoNRA
		}
	}
	if opt.Window > 0 && (algo == AlgoGM || algo == AlgoExact) {
		return preparedQuery{}, fmt.Errorf("phrasemine: windowed mining is served from the live tail and has no %s form; use a list algorithm", algo)
	}
	return preparedQuery{q: q, algo: algo, k: opt.K, frac: frac, partial: opt.Partial, window: opt.Window}, nil
}

// asMined wraps a plain result list as a complete (non-degraded) Mined.
func asMined(res []Result, err error) (Mined, error) {
	if err != nil {
		return Mined{}, err
	}
	return Mined{Results: res}, nil
}

// mineOne answers one prepared query. When sc is non-nil the list
// algorithms route block decodes through the shared cache so that batch
// queries over the same keyword lists decode each block once — but only
// if the miner still serves the index generation (want) the batch was
// planned against and no delta is pending; otherwise the query silently
// falls back to the unshared path. Results are bit-identical either way.
// ctx cancels the query cooperatively (see the package Cancellation
// section) and must be non-nil.
func (m *Miner) mineOne(ctx context.Context, p preparedQuery, sc *plist.ShareCache, want *core.Index) (Mined, error) {
	// An already-expired context (a batch past its deadline, a client
	// long gone) skips the query entirely — this is what lets a canceled
	// batch drain its remaining members in microseconds.
	if err := ctx.Err(); err != nil {
		return Mined{}, err
	}
	// Queries only read the index and pending delta; the read lock
	// excludes Add/Remove/Flush for the duration of the query — and, on a
	// mapped miner, keeps the mapping alive: Close write-acquires mu, so
	// it cannot unmap under a running query.
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return Mined{}, ErrMinerClosed
	}
	if p.window > 0 {
		// Windowed queries are served entirely from the tail's rotated
		// sketches, independent of which engine holds the base corpus.
		return m.mineWindowLocked(p)
	}

	if m.sh != nil {
		return m.mineSharded(ctx, p)
	}
	if sc != nil && (m.ix != want || m.deltaActive()) {
		// A hot reload or pending update landed between batch planning
		// and this query; sharing keys were minted for another physical
		// index, so decode privately.
		sc = nil
	}

	switch p.algo {
	case AlgoNRA, AlgoSMJ:
		results, err := m.mineLists(ctx, p, sc)
		if err != nil {
			return Mined{}, err
		}
		res, err := m.resolve(results, p.q)
		if err != nil {
			return Mined{}, err
		}
		return m.mergeTailLocked(Mined{Results: res}, p)
	case AlgoGM:
		g, err := m.ix.GM()
		if err != nil {
			return Mined{}, err
		}
		// GM reuses counting scratch across queries, so concurrent
		// Mine calls must not share one instance; take a pooled clone
		// (private scratch, shared immutable index structures).
		clone, _ := m.gmPool.Get().(*baseline.GM)
		if clone == nil {
			clone = g.Clone()
		}
		scored, _, err := clone.TopK(p.q, p.k)
		m.gmPool.Put(clone)
		if err != nil {
			return Mined{}, err
		}
		return asMined(m.resolveScored(scored))
	case AlgoExact:
		e, err := m.ix.Exact()
		if err != nil {
			return Mined{}, err
		}
		scored, err := e.TopK(p.q, p.k)
		if err != nil {
			return Mined{}, err
		}
		return asMined(m.resolveScored(scored))
	default:
		return Mined{}, fmt.Errorf("phrasemine: unknown algorithm %q", p.algo)
	}
}

// mineLists runs a list algorithm on the monolithic engine: through the
// delta while updates are pending (it corrects the stored probabilities at
// read time), otherwise straight off the index, decoding through sc when
// the batch planned a shared scan. The ID-ordered copy SMJ reads is the
// index's own cached one for the fraction. Called with the read lock held.
func (m *Miner) mineLists(ctx context.Context, p preparedQuery, sc *plist.ShareCache) (results []topk.Result, err error) {
	if p.algo == AlgoNRA {
		opt := topk.NRAOptions{K: p.k, Fraction: p.frac, Ctx: ctx}
		if m.deltaActive() {
			results, _, err = m.delta.QueryNRA(p.q, opt)
		} else {
			results, _, err = m.ix.QueryNRAShared(p.q, opt, sc)
		}
		return results, err
	}
	smj, err := m.ix.SMJ(p.frac)
	if err != nil {
		return nil, err
	}
	opt := topk.SMJOptions{K: p.k, Ctx: ctx}
	if m.deltaActive() {
		results, _, err = m.delta.QuerySMJ(smj, p.q, opt)
	} else {
		results, _, err = m.ix.QuerySMJShared(smj, p.q, opt, sc)
	}
	return results, err
}

// mineSharded answers a query on the sharded engine. The list algorithms
// (NRA selects the adaptive per-shard scatter where sound, SMJ the
// exhaustive per-segment scan) both gather to the canonical global top-k —
// bit-identical to the monolithic SMJ answer; GM and Exact scatter-gather
// the exact forward-index counts. With p.partial set, both list algorithms
// route through the exhaustive scan's degrading variant so a deadline that
// expires mid-scatter yields the completed segments' merged answer instead
// of an error. Called with the read lock held.
func (m *Miner) mineSharded(ctx context.Context, p preparedQuery) (Mined, error) {
	switch p.algo {
	case AlgoNRA, AlgoSMJ:
		var (
			out     Mined
			results []topk.Result
			err     error
		)
		switch {
		case p.partial:
			out.SegmentsTotal = m.sh.NumSegments()
			results, out.SegmentsDone, err = m.sh.QuerySMJPartial(ctx, p.q, p.k, p.frac)
			out.Degraded = out.SegmentsDone < out.SegmentsTotal
		case p.algo == AlgoNRA:
			results, err = m.sh.QueryNRA(ctx, p.q, p.k, p.frac)
		default:
			results, err = m.sh.QuerySMJ(ctx, p.q, p.k, p.frac)
		}
		if err != nil {
			return Mined{}, err
		}
		if out.Results, err = m.resolveSharded(results, p.q); err != nil {
			return Mined{}, err
		}
		return m.mergeTailLocked(out, p)
	case AlgoGM, AlgoExact:
		// Both baselines compute the same exact interestingness; the
		// sharded engine serves them through one scatter-gather.
		results, err := m.sh.QueryGM(ctx, p.q, p.k)
		if err != nil {
			return Mined{}, err
		}
		out := make([]Result, len(results))
		for i, r := range results {
			text, err := m.sh.PhraseText(r.Phrase)
			if err != nil {
				return Mined{}, err
			}
			out[i] = Result{Phrase: text, Score: r.Score, Interestingness: r.Score}
		}
		return Mined{Results: out}, nil
	default:
		return Mined{}, fmt.Errorf("phrasemine: unknown algorithm %q", p.algo)
	}
}

// resolveSharded attaches phrase texts and interestingness estimates to
// sharded list-algorithm results, mirroring resolve.
func (m *Miner) resolveSharded(results []topk.Result, q corpus.Query) ([]Result, error) {
	mined, err := m.sh.Resolve(results, q)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(mined))
	for i, r := range mined {
		out[i] = Result{Phrase: r.Phrase, Score: r.Score, Interestingness: r.Estimate}
	}
	return out, nil
}

// MineAND is Mine with the AND operator and default options.
func (m *Miner) MineAND(keywords ...string) ([]Result, error) {
	return m.Mine(keywords, AND, QueryOptions{})
}

// MineOR is Mine with the OR operator and default options.
func (m *Miner) MineOR(keywords ...string) ([]Result, error) {
	return m.Mine(keywords, OR, QueryOptions{})
}

// BatchItem is one query of a MineBatch call.
type BatchItem struct {
	// Keywords are the query keywords (facets as Facet(name, value)).
	Keywords []string
	// Op combines the per-keyword document sets.
	Op Operator
	// Options tunes the query like a Mine call.
	Options QueryOptions
}

// BatchResult is one query's outcome: Results is nil iff Err is non-nil.
type BatchResult struct {
	// Results holds the mined phrases on success.
	Results []Result
	// Err reports this query's failure, leaving other slots unaffected.
	Err error
	// Degraded mirrors Mined.Degraded: a Partial query on a sharded miner
	// whose answer covers only the segments that completed before the
	// batch context's deadline.
	Degraded bool
	// SegmentsDone is how many segments contributed to Results.
	SegmentsDone int
	// SegmentsTotal is the miner's segment count (zero on monolithic).
	SegmentsTotal int
	// TailDocs mirrors Mined.TailDocs for this slot.
	TailDocs int
	// Approximate mirrors Mined.Approximate for this slot.
	Approximate bool
}

// batchGroupSize caps how many queries share one block-decode cache in
// MineBatch. Larger groups decode each shared block fewer times but hold
// the decoded entries live until the whole group drains.
const batchGroupSize = 64

// MineBatch answers many queries concurrently through the miner's bounded
// worker pool (Config.Workers), returning one result per item in input
// order. Per-query failures are reported per slot, so one bad query does
// not discard the batch. It is itself safe for concurrent callers — the
// pool bound is shared, so total fan-out stays capped. On a compressed
// monolithic miner with no pending updates, queries over the same keyword
// set are grouped (at most 64 to a group) to share block decodes: each
// block of a shared keyword list is decoded once per group and the
// entries fanned to every member. Results are bit-identical to per-query
// Mine calls.
func (m *Miner) MineBatch(items []BatchItem) []BatchResult {
	return m.MineBatchCtx(context.Background(), items)
}

// MineBatchCtx is MineBatch with cooperative cancellation: ctx covers the
// whole batch, and once it is canceled the in-flight members stop within
// about a millisecond while the not-yet-started ones fail immediately, each
// slot reporting ctx.Err(). Shared-scan caches are still released only
// after every member returns — cancellation makes the members return fast,
// it never tears a shared decode out from under one. A nil ctx is treated
// as context.Background().
func (m *Miner) MineBatchCtx(ctx context.Context, items []BatchItem) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		for i := range out {
			out[i] = BatchResult{Err: ErrMinerClosed}
		}
		return out
	}
	var (
		pool     *topk.Pool
		workers  int
		sharable bool
		want     *core.Index
	)
	if m.sh != nil {
		pool, workers = m.sh.Pool(), m.sh.Workers()
	} else {
		pool, workers = m.ix.Pool(), m.ix.Workers()
		// Sharing needs block-compressed lists (the share cache keys
		// physical blocks) and an index that won't consult the delta.
		// mineOne re-checks both under its own read lock and falls back
		// if a reload or update lands mid-batch.
		sharable = m.ix.Compressed() && !m.deltaActive()
		want = m.ix
	}
	m.mu.RUnlock()

	// Validate and normalize every item up front; failures fill their
	// slot and drop out of group planning.
	prepared := make([]preparedQuery, len(items))
	var (
		valid []int
		sigs  []string
	)
	for i, it := range items {
		p, err := prepareQuery(it.Keywords, it.Op, it.Options)
		if err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		prepared[i] = p
		valid = append(valid, i)
		sigs = append(sigs, batchSignature(p.q))
	}
	if len(valid) == 0 {
		return out
	}

	// Plan shared-scan groups: queries with the same keyword signature
	// touch the same physical lists. Singleton groups skip the cache —
	// nothing to share, and a private decode avoids retaining entries.
	type job struct {
		item int
		sc   *plist.ShareCache
	}
	jobs := make([]job, 0, len(valid))
	var caches []*plist.ShareCache
	if sharable {
		for _, g := range topk.BatchGroups(sigs, batchGroupSize) {
			var sc *plist.ShareCache
			if len(g) > 1 {
				sc = plist.NewShareCache()
				caches = append(caches, sc)
			}
			for _, vi := range g {
				jobs = append(jobs, job{item: valid[vi], sc: sc})
			}
		}
	} else {
		for _, i := range valid {
			jobs = append(jobs, job{item: i})
		}
	}

	run := func(j int) {
		i := jobs[j].item
		mined, err := m.mineOne(ctx, prepared[i], jobs[j].sc, want)
		out[i] = BatchResult{
			Results:       mined.Results,
			Err:           err,
			Degraded:      mined.Degraded,
			SegmentsDone:  mined.SegmentsDone,
			SegmentsTotal: mined.SegmentsTotal,
			TailDocs:      mined.TailDocs,
			Approximate:   mined.Approximate,
		}
	}
	if workers <= 1 {
		// Workers=1 promises fully sequential execution; don't hand
		// the batch to the pool (which would run one item on a spawned
		// goroutine alongside the inline remainder).
		for j := range jobs {
			run(j)
		}
	} else {
		pool.RunN(len(jobs), run)
	}
	for _, sc := range caches {
		hits, misses := sc.Stats()
		m.sharedHits.Add(hits)
		m.sharedMisses.Add(misses)
		// Every group member has returned (and released its scratch), so
		// no cursor references cache memory: recycle the decode slabs.
		sc.Release()
	}
	return out
}

// batchSignature is the shared-scan grouping key: the query's feature
// set. Features are already normalized and sorted (prepareQuery); two
// queries with equal signatures read exactly the same physical lists
// (operator and options may still differ — they only affect how the
// shared decodes are consumed).
func batchSignature(q corpus.Query) string {
	return strings.Join(q.Features, "\x00")
}

func (m *Miner) resolve(results []topk.Result, q corpus.Query) ([]Result, error) {
	mined, err := m.ix.Resolve(results, q)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(mined))
	for i, r := range mined {
		out[i] = Result{Phrase: r.Phrase, Score: r.Score, Interestingness: r.Estimate}
	}
	return out, nil
}

// resolveScored converts baseline results (whose scores are already exact
// interestingness values) to the public result type.
func (m *Miner) resolveScored(scored []baseline.Scored) ([]Result, error) {
	out := make([]Result, len(scored))
	for i, s := range scored {
		text, err := m.ix.PhraseText(s.Phrase)
		if err != nil {
			return nil, err
		}
		out[i] = Result{Phrase: text, Score: s.Score, Interestingness: s.Score}
	}
	return out, nil
}

// deltaActive reports whether incremental updates are pending.
func (m *Miner) deltaActive() bool {
	return m.delta != nil && m.delta.Size() > 0
}

// Add registers a new document without rebuilding the index. On a
// monolithic miner queries consult the delta for corrected probabilities
// (Section 4.5.1), with phrases not previously in the index becoming
// visible only after Flush. On a sharded miner (Config.Segments > 1) the
// document is routed to the write segment at the next Flush and is not
// visible to queries before it — the documented trade for a Flush whose
// cost is proportional to the touched segments. Add blocks until
// in-flight queries drain (tokenization happens before the lock, so
// queries are excluded only for the update registration itself). It does
// not wait for an in-flight Flush: a document added during a monolithic
// rebuild stays pending over the rebuilt index.
//
// On a mapped miner a corrupt forward or dictionary section surfaces here
// as an error wrapping ErrCorruptSnapshot.
//
// With a WAL enabled (Config.WALDir or EnableWAL), the document is
// appended to the log and made durable before Add returns nil: a
// successful Add survives kill -9 even before the next Flush. A logging
// failure returns an error wrapping ErrWALAppend and the document is not
// applied.
func (m *Miner) Add(doc Document) error {
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	d := corpus.Document{
		Tokens: tok.Tokenize(doc.Text),
		Facets: doc.Facets,
	}
	return m.mutate(
		diskio.WALRecord{Op: diskio.WALAddDocument, Text: doc.Text, Facets: doc.Facets},
		func() error { return m.addDocumentLocked(d) },
	)
}

// Remove registers the deletion of the i-th indexed document. Like Add it
// is logged durably before returning when a WAL is enabled. It waits for an
// in-flight Flush: document indexes refer to the index a Flush replaces.
func (m *Miner) Remove(docIndex int) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	return m.mutate(
		diskio.WALRecord{Op: diskio.WALRemoveDocument, Doc: uint64(docIndex)},
		func() error { return m.removeDocumentLocked(docIndex) },
	)
}

// mutate runs one logged mutation: append the record to the WAL (if one
// is enabled), apply it in memory, roll the record back if the
// application is refused, and — in batch sync mode — group-commit the
// append after the write lock is released, so the acknowledgment never
// races ahead of durability but concurrent mutations can share fsyncs.
func (m *Miner) mutate(rec diskio.WALRecord, apply func() error) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrMinerClosed
	}
	wal := m.wal
	var seq int64
	if wal != nil {
		var err error
		if seq, err = wal.Append(rec); err != nil {
			m.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrWALAppend, err)
		}
	}
	err := apply()
	if err != nil && wal != nil {
		// The mutation was refused (bad document index, corrupt mapped
		// section): drop its record so a replay does not re-attempt what
		// the client saw fail. A rollback failure marks the WAL broken;
		// replay skips the unapplied record in that case.
		wal.RollbackLast()
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if wal != nil {
		// Group commit: a no-op in always mode (Append already synced),
		// one shared fsync in batch mode. Failure means the mutation is
		// applied in memory but not durable — refuse the ack.
		if serr := wal.Sync(seq); serr != nil {
			return fmt.Errorf("%w: %v", ErrWALAppend, serr)
		}
	}
	return nil
}

// addDocumentLocked applies one addition under the held write lock. With a
// live tail enabled the document also lands in the tail buffer — including
// during WAL replay, which routes through here, so a crash-recovered miner
// re-serves the un-compacted tail.
func (m *Miner) addDocumentLocked(d corpus.Document) error {
	if m.sh != nil {
		// Sharded engines route additions to the write segment at Flush;
		// before it, pending documents are visible to queries only through
		// the live tail (when enabled).
		m.sh.AddDocument(d)
		if m.tail != nil {
			m.tail.Add(d)
		}
		return nil
	}
	if m.delta == nil {
		delta, err := m.ix.NewDelta()
		if err != nil {
			return err
		}
		m.delta = delta
	}
	if err := m.delta.AddDocument(d); err != nil {
		return err
	}
	if m.tail != nil {
		m.tail.Add(d)
	}
	return nil
}

// removeDocumentLocked applies one removal under the held write lock.
func (m *Miner) removeDocumentLocked(docIndex int) error {
	if m.sh != nil {
		return m.sh.RemoveDocument(corpus.DocID(docIndex))
	}
	if m.delta == nil {
		delta, err := m.ix.NewDelta()
		if err != nil {
			return err
		}
		m.delta = delta
	}
	return m.delta.RemoveDocument(corpus.DocID(docIndex))
}

// DiscardPendingUpdates drops every un-applied document change without
// touching the index — the recovery path when a Flush is refused (on a
// sharded miner, a removal set that would empty a segment) and the
// pending updates would otherwise block Flush and persistence forever
// (Save and SaveManifest refuse while updates are pending).
//
// With a WAL enabled the log is truncated back to its last applied
// point in the same call, so the discarded updates cannot resurrect by
// replay on the next restart; the returned error reports a truncation
// failure (the in-memory discard itself cannot fail). It waits for an
// in-flight Flush, whose frozen updates it can no longer discard.
func (m *Miner) DiscardPendingUpdates() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrMinerClosed
	}
	if m.sh != nil {
		m.sh.DiscardPendingUpdates()
	} else {
		m.delta = nil
	}
	if m.tail != nil {
		// Discard is a rollback, not a compaction: drop the windowed
		// history too, so discarded documents stop counting everywhere.
		m.tail.Reset()
	}
	if m.wal != nil {
		if err := m.wal.TruncateToApplied(); err != nil {
			return fmt.Errorf("phrasemine: discarding logged updates: %w", err)
		}
	}
	return nil
}

// PendingUpdates reports the number of un-flushed document changes.
func (m *Miner) PendingUpdates() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pendingLocked()
}

// pendingLocked counts un-flushed changes under a held lock.
func (m *Miner) pendingLocked() int {
	if m.sh != nil {
		return m.sh.PendingUpdates()
	}
	if m.delta == nil {
		return 0
	}
	return m.delta.Size()
}

// ErrWALAppend classifies mutation failures where the write-ahead log
// could not durably record the mutation: the Add/Remove was NOT applied
// (or, for a failed group-commit fsync, not acknowledged as durable) and
// the index may no longer accept writes until the log is repaired —
// typically by restarting on a healthy disk. The serving layer maps it to
// HTTP 503 and degrades to read-only.
var ErrWALAppend = errors.New("phrasemine: wal append failed")

// WALStats re-exports the log counters served on /stats and /debug/vars.
type WALStats = diskio.WALStats

// WALConfig configures EnableWAL.
type WALConfig struct {
	// Dir is the directory holding the log file (created if absent).
	Dir string
	// Sync is the append durability mode: "" or "always" fsyncs every
	// mutation, "batch" group-commits (see Config.WALSync).
	Sync string
	// SnapshotPath, when non-empty, is where Flush checkpoints the index
	// so the log can be truncated: the snapshot file path of a monolithic
	// miner, or the manifest directory of a sharded one. Leave empty to
	// keep checkpointing manual (Save/SaveManifest embed the marker; the
	// log is then truncated on the next reopen).
	SnapshotPath string
	// FS overrides the filesystem the log and checkpoints write through
	// (the fault-injection seam); nil selects the real one.
	FS faultfs.FS
}

// EnableWAL opens (creating if needed) the durable mutation log in
// cfg.Dir and replays every surviving record the miner's snapshot has not
// absorbed into the pending delta, returning the replay count. After it
// returns, every Add/Remove is logged and fsynced before it is
// acknowledged, and Flush checkpoints the log (see WALConfig.SnapshotPath
// and Flush). NewMinerFromDocuments calls it automatically when
// Config.WALDir is set; miners restored by LoadMiner, OpenMinerMapped or
// OpenShardedMiner re-enable logging by calling it explicitly — the
// loaded snapshot's embedded marker makes the replay skip exactly the
// mutations already inside it.
//
// Corruption anywhere before the final log record refuses with an error
// wrapping ErrCorruptSnapshot (a torn or bit-flipped tail — the only
// damage a crash can legitimately produce — is truncated silently
// instead). Records that replay onto the index but are refused by it
// (for example a removal of a document index that was rolled back as
// failed just before a crash) are skipped and counted, never fatal.
// EnableWAL refuses while un-logged updates are pending: Flush or
// DiscardPendingUpdates first.
func (m *Miner) EnableWAL(cfg WALConfig) (int, error) {
	mode, err := diskio.ParseWALSyncMode(cfg.Sync)
	if err != nil {
		return 0, fmt.Errorf("phrasemine: %w", err)
	}
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrMinerClosed
	}
	if m.wal != nil {
		return 0, fmt.Errorf("phrasemine: wal already enabled (%s)", m.wal.Stats().Path)
	}
	if n := m.pendingLocked(); n > 0 {
		return 0, fmt.Errorf("phrasemine: %d un-logged document updates pending; Flush or DiscardPendingUpdates before EnableWAL", n)
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	wal, records, err := diskio.OpenWAL(cfg.Dir, diskio.WALOptions{Sync: mode, Marker: m.walMarker, FS: fsys})
	if err != nil {
		return 0, err
	}
	replayed, skipped := 0, int64(0)
	for _, rec := range records {
		if err := m.applyRecordLocked(rec); err != nil {
			if errors.Is(err, diskio.ErrCorruptSnapshot) {
				wal.Close()
				return 0, fmt.Errorf("phrasemine: wal replay: %w", err)
			}
			// The record is durable but its mutation was refused before
			// the crash (and rolled back too late to unlog): skip it, as
			// the original caller already saw the refusal.
			skipped++
			continue
		}
		replayed++
	}
	wal.CountReplaySkip(skipped)
	m.wal = wal
	m.walFS = fsys
	m.walCheckpoint = cfg.SnapshotPath
	return replayed, nil
}

// applyRecordLocked replays one log record under the held write lock.
func (m *Miner) applyRecordLocked(rec diskio.WALRecord) error {
	switch rec.Op {
	case diskio.WALAddDocument:
		tok := textproc.Tokenizer{EmitSentenceBreaks: true}
		return m.addDocumentLocked(corpus.Document{
			Tokens: tok.Tokenize(rec.Text),
			Facets: rec.Facets,
		})
	case diskio.WALRemoveDocument:
		return m.removeDocumentLocked(int(rec.Doc))
	default:
		return diskio.Corruptf("phrasemine: wal replay: record has unknown op %d", rec.Op)
	}
}

// WALStats reports the mutation log's counters; ok is false when no WAL
// is enabled.
func (m *Miner) WALStats() (stats WALStats, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.wal == nil {
		return WALStats{}, false
	}
	return m.wal.Stats(), true
}

// Flush rebuilds all indexes over the updated corpus, incorporating
// pending additions/removals (and any newly frequent phrases). The rebuild
// itself is parallel (Config.Workers).
//
// On a monolithic miner Flush runs in four steps, and queries and Adds
// are excluded only for the two brief swaps:
//
//  1. Freeze (write lock): capture the pending updates and the WAL
//     position they end at.
//  2. Build (no lock): rebuild the index from exactly those updates.
//     Queries keep answering from the previous index plus its pending
//     updates, and Adds keep extending them.
//  3. Install (write lock): swap the rebuilt index in and carry the Adds
//     made during the build over to it as pending updates (and in the live
//     tail).
//  4. Persist (no lock): checkpoint the WAL, below.
//
// A sharded miner rebuilds its touched segments and checkpoints under the
// write lock, excluding queries for the whole Flush. Either way Remove,
// DiscardPendingUpdates, Save, SaveManifest, EnableWAL, EnableLiveTail and
// Close wait for a Flush in progress.
//
// With a WAL enabled, a successful Flush checkpoints the log: if the
// miner knows where its persistent form lives (EnableWAL's SnapshotPath,
// set by the serving layer), the rebuilt index is written there
// atomically — carrying a marker for the absorbed log prefix — and the
// log drops that prefix, restarting as a fresh generation that holds only
// the records added since the freeze; a persistence failure leaves the
// log intact, so no
// acknowledged mutation loses its durable record before a snapshot holds
// it. Without a snapshot path the records merely get marked applied and
// the log keeps growing until Save/SaveManifest persist the index.
func (m *Miner) Flush() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	if m.sh != nil {
		return m.flushSharded()
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrMinerClosed
	}
	var frozen core.FrozenDelta
	pending := m.deltaActive()
	if pending {
		frozen = m.delta.Freeze()
	}
	pos := m.walPositionLocked()
	m.mu.Unlock()

	if pending {
		ix, err := frozen.Build()
		if err != nil {
			return err
		}
		if err := m.install(ix, frozen); err != nil {
			return err
		}
	}
	// m.ix and m.wal change only under flushMu, which Flush holds: the
	// snapshot write needs no lock.
	return m.checkpointWAL(pos, func(marker *diskio.WALMarker) error {
		return diskio.WriteToFileAtomicFS(m.walFS, m.walCheckpoint, 0o644, func(w io.Writer) error {
			return m.writeSnapshot(w, marker)
		})
	})
}

// install swaps the index frozen was built into under the write lock: the
// Adds made during the build move to a fresh delta over it, the live tail
// drops exactly the frozen documents, and the replaced index (with its
// mapping, if any) is released — before the snapshot write, so it is not
// kept alive through it.
func (m *Miner) install(ix *core.Index, frozen core.FrozenDelta) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, err := m.delta.Rebase(ix, frozen)
	if err != nil {
		return errors.Join(err, ix.Close())
	}
	old := m.ix
	m.ix, m.delta = ix, next
	m.gmPool = &sync.Pool{} // clones of the old index must not be reused
	if m.tail != nil {
		// Documents added during the build stay buffered; the windowed
		// history covers the compacted ones by design.
		m.tail.DropOldest(frozen.Added())
	}
	return old.Close()
}

// flushSharded is Flush on the sharded engine, all under the write lock:
// the touched segments (typically just the write segment, plus any whose
// phrases crossed the global document-frequency threshold) rebuild as new
// Indexes with empty caches, untouched segments keep theirs, and the
// manifest checkpoint follows.
func (m *Miner) flushSharded() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrMinerClosed
	}
	if err := m.sh.Flush(); err != nil {
		return err
	}
	if m.tail != nil {
		// The tail's documents are now inside real segments. Cleared
		// before the WAL checkpoint on purpose: a crash between the two
		// reopens to "old manifest + full log", and replay routes through
		// addDocumentLocked, repopulating the tail.
		m.tail.Clear()
	}
	return m.checkpointWAL(m.walPositionLocked(), func(marker *diskio.WALMarker) error {
		return m.saveManifestLocked(m.walFS, m.walCheckpoint, marker)
	})
}

// walPositionLocked is the WAL position the applied state ends at, zero
// without a WAL. Called with mu held, so no mutation is half-applied.
func (m *Miner) walPositionLocked() diskio.WALPosition {
	if m.wal == nil {
		return diskio.WALPosition{}
	}
	return m.wal.Position()
}

// checkpointWAL persists the index holding every log record up to pos —
// through persist, when a checkpoint destination is known — and then
// tells the log. Ordering is the crash-safety invariant: the records up to
// pos are fsynced before the snapshot or manifest claiming them is
// written, and the log drops them only after that artifact is durably
// renamed into place, so a crash at any step reopens to either "old
// snapshot + full log" or "new snapshot + log replayed past pos" — never a
// lost or doubled mutation. A persistence failure still marks the records
// applied in memory (DiscardPendingUpdates must not drop them) but keeps
// them in the log. Called with flushMu held, which keeps pos numbering the
// current generation (only a checkpoint starts the next one); the log
// serializes the update against concurrent Adds itself.
func (m *Miner) checkpointWAL(pos diskio.WALPosition, persist func(marker *diskio.WALMarker) error) error {
	if m.wal == nil || pos.Marker.Records == 0 {
		return nil
	}
	var perr error
	if m.walCheckpoint != "" {
		if perr = m.wal.Sync(pos.Marker.Records); perr == nil {
			perr = persist(&pos.Marker)
		}
		if perr != nil {
			perr = fmt.Errorf("phrasemine: wal checkpoint: %w", perr)
		}
	}
	absorbed := m.walCheckpoint != "" && perr == nil
	return errors.Join(perr, m.wal.Checkpoint(pos, absorbed))
}

// SnapshotVersion is the on-disk snapshot format version written by Save
// and required by LoadMiner. Snapshots of any other version are rejected
// as stale at load time.
const SnapshotVersion = core.SnapshotVersion

// minerConfigSection is the snapshot section holding the public Config.
const minerConfigSection = "phrasemine/config"

// minerWALSection is the snapshot section holding the WAL marker — the
// (generation, records) log prefix this snapshot has absorbed, so replay
// at the next open skips exactly the mutations already inside it. Only
// written by miners with a WAL enabled; absent otherwise.
const minerWALSection = "phrasemine/wal"

// Save serializes the miner — corpus, inverted index, phrase dictionary,
// phrase-document lists, forward index, word-specific phrase lists, and
// the indexing Config — into a versioned, checksummed snapshot that
// LoadMiner restores without re-running any build stage.
//
// Save refuses to run while document updates are pending (Add/Remove
// without a Flush): call Flush first, so a snapshot always captures a
// consistent, fully indexed state.
func (m *Miner) Save(w io.Writer) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrMinerClosed
	}
	return m.saveLocked(w, m.currentWALMarker())
}

// currentWALMarker returns the marker a snapshot persisted now should
// carry, nil without a WAL. Callers hold at least the read lock.
func (m *Miner) currentWALMarker() *diskio.WALMarker {
	if m.wal == nil {
		return nil
	}
	marker := m.wal.Position().Marker
	return &marker
}

// saveLocked is Save under the held locks. A non-nil marker is embedded as
// the minerWALSection so a reopen skips the absorbed log prefix.
func (m *Miner) saveLocked(w io.Writer, marker *diskio.WALMarker) error {
	if m.sh != nil {
		// A single snapshot cannot represent a multi-segment engine;
		// silently persisting one segment would lose the rest of the
		// corpus. Refuse loudly and point at the manifest path.
		return fmt.Errorf("phrasemine: miner is sharded (%d segments); use SaveManifest to persist one snapshot per segment behind a manifest", m.sh.NumSegments())
	}
	if m.deltaActive() {
		return fmt.Errorf("phrasemine: %d document updates pending; call Flush before Save", m.delta.Size())
	}
	return m.writeSnapshot(w, marker)
}

// writeSnapshot serializes the monolithic index and the saved Config, plus
// the marker when non-nil. It reads only fields that change under both
// locks, so the caller holds flushMu or mu.
func (m *Miner) writeSnapshot(w io.Writer, marker *diskio.WALMarker) error {
	sw := diskio.NewSnapshotWriter(SnapshotVersion)
	cfg, err := json.Marshal(m.savedConfig())
	if err != nil {
		return fmt.Errorf("phrasemine: encoding config: %w", err)
	}
	if err := sw.Add(minerConfigSection, cfg); err != nil {
		return err
	}
	if marker != nil {
		mk, err := json.Marshal(marker)
		if err != nil {
			return fmt.Errorf("phrasemine: encoding wal marker: %w", err)
		}
		if err := sw.Add(minerWALSection, mk); err != nil {
			return err
		}
	}
	if err := m.ix.AddSnapshotSections(sw); err != nil {
		return err
	}
	if _, err := sw.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// savedConfig is the Config a snapshot or manifest records: concurrency
// knobs are runtime properties of the loading process (LoadMiner takes
// its own workers bound) and the WAL settings are properties of the
// running process (EnableWAL re-arms them); leaving both out keeps
// snapshot bytes identical across worker counts and WAL placements.
func (m *Miner) savedConfig() Config {
	saved := m.cfg
	saved.Workers, saved.Shards = 0, 0
	saved.WALDir, saved.WALSync = "", ""
	saved.Tail = TailConfig{}
	return saved
}

// SaveFile writes a snapshot to path via Save. The snapshot is staged in a
// temporary file in the same directory, fsynced, and renamed into place, so
// a crash mid-save (even kill -9 or power loss) leaves either the previous
// file or the complete new one — never a truncated snapshot.
func (m *Miner) SaveFile(path string) error {
	return diskio.WriteToFileAtomic(path, 0o644, func(w io.Writer) error {
		return m.Save(w)
	})
}

// SaveManifest persists a sharded miner into dir: one v2 snapshot per
// segment plus a manifest.json referencing them (and recording the
// indexing Config), so segments can be written, shipped and memory-mapped
// individually. Like Save, it refuses while document updates are pending.
// Calling it on a monolithic miner is an error — use Save.
func (m *Miner) SaveManifest(dir string) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrMinerClosed
	}
	return m.saveManifestLocked(faultfs.OS{}, dir, m.currentWALMarker())
}

// saveManifestLocked is SaveManifest under the held locks over an explicit
// filesystem (read lock from SaveManifest, write lock from the Flush
// checkpoint). Segment files land under generation-fresh names, the
// manifest — carrying the marker when non-nil — commits atomically over
// the previous one, and only then is the superseded segment generation
// garbage-collected.
func (m *Miner) saveManifestLocked(fsys faultfs.FS, dir string, marker *diskio.WALMarker) error {
	if m.sh == nil {
		return fmt.Errorf("phrasemine: miner is not sharded; use Save for a single snapshot")
	}
	man, err := m.sh.SaveSegmentsFS(fsys, dir)
	if err != nil {
		return err
	}
	cfg, err := json.Marshal(m.savedConfig())
	if err != nil {
		return fmt.Errorf("phrasemine: encoding config: %w", err)
	}
	man.Config = cfg
	man.WAL = marker
	if err := diskio.WriteManifestFS(fsys, filepath.Join(dir, diskio.ManifestFileName), man); err != nil {
		return err
	}
	core.CleanupSegments(fsys, dir, man)
	return nil
}

// OpenShardedMiner opens a sharded miner persisted by SaveManifest. path
// may be the manifest file or the directory containing it. Every segment
// snapshot opens zero-copy via mmap (see OpenMinerMapped for the
// trade-offs); workers bounds query concurrency like Config.Workers. Call
// Close when the miner is retired.
func OpenShardedMiner(path string, workers int) (*Miner, error) {
	if workers < 0 {
		return nil, fmt.Errorf("phrasemine: workers must be non-negative, got %d (0 selects GOMAXPROCS)", workers)
	}
	man, dir, err := diskio.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if len(man.Config) > 0 {
		if err := json.Unmarshal(man.Config, &cfg); err != nil {
			return nil, fmt.Errorf("phrasemine: decoding manifest config: %w", err)
		}
	}
	sh, err := core.OpenSharded(dir, man, workers)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	cfg.Segments = sh.NumSegments()
	return &Miner{sh: sh, cfg: cfg, walMarker: man.WAL}, nil
}

// LoadMiner restores a miner from a snapshot written by Save. No build
// stage re-runs: loading is pure deserialization, so a corpus that takes
// minutes to index loads in milliseconds. The snapshot's magic, format
// version and per-section checksums are verified; stale or corrupted
// snapshots are rejected rather than half-loaded.
//
// workers bounds the loaded miner's query/rebuild concurrency exactly like
// Config.Workers (0 selects GOMAXPROCS); it is a property of the loading
// process, not of the snapshot.
func LoadMiner(r io.Reader, workers int) (*Miner, error) {
	if workers < 0 {
		return nil, fmt.Errorf("phrasemine: workers must be non-negative, got %d (0 selects GOMAXPROCS)", workers)
	}
	snap, err := diskio.ReadSnapshot(r, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	cfgBytes, ok := snap.Section(minerConfigSection)
	if !ok {
		return nil, fmt.Errorf("phrasemine: snapshot has no %q section (not written by Miner.Save?)", minerConfigSection)
	}
	var cfg Config
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		return nil, fmt.Errorf("phrasemine: decoding config: %w", err)
	}
	cfg.Workers = workers
	marker, err := snapshotWALMarker(snap.Section(minerWALSection))
	if err != nil {
		return nil, err
	}
	ix, err := core.LoadSnapshotSections(snap, workers)
	if err != nil {
		return nil, err
	}
	return &Miner{
		ix:        ix,
		cfg:       cfg,
		gmPool:    &sync.Pool{},
		walMarker: marker,
	}, nil
}

// snapshotWALMarker decodes the optional minerWALSection of a snapshot.
func snapshotWALMarker(raw []byte, ok bool) (*diskio.WALMarker, error) {
	if !ok {
		return nil, nil
	}
	var marker diskio.WALMarker
	if err := json.Unmarshal(raw, &marker); err != nil {
		return nil, diskio.Corruptf("phrasemine: decoding wal marker section: %v", err)
	}
	return &marker, nil
}

// LoadMinerFile restores a miner from a snapshot file via LoadMiner.
func LoadMinerFile(path string, workers int) (*Miner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadMiner(f, workers)
}

// OpenMinerMapped opens a snapshot file via mmap instead of deserializing
// it: startup cost is O(section directories) regardless of corpus size,
// the word lists and inverted postings are queried in their compressed
// form straight out of the mapping, and resident memory is demand-paged
// and shared across processes serving the same file. Document contents and
// the baseline/delta structures decode lazily on first use.
//
// Unlike LoadMinerFile, section checksums are not verified at open (that
// would read the whole file); the block codecs validate structure as they
// decode, so corruption surfaces loudly as query errors wrapping
// ErrCorruptSnapshot rather than as wrong answers or a process-killing
// panic. Call Close when the miner is retired; Close drains in-flight
// queries before releasing the mapping, and later queries return
// ErrMinerClosed.
func OpenMinerMapped(path string, workers int) (*Miner, error) {
	if workers < 0 {
		return nil, fmt.Errorf("phrasemine: workers must be non-negative, got %d (0 selects GOMAXPROCS)", workers)
	}
	snap, err := diskio.MapSnapshotFile(path, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	cfgBytes, ok := snap.Section(minerConfigSection)
	if !ok {
		snap.Close()
		return nil, fmt.Errorf("phrasemine: snapshot has no %q section (not written by Miner.Save?)", minerConfigSection)
	}
	var cfg Config
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		snap.Close()
		return nil, fmt.Errorf("phrasemine: decoding config: %w", err)
	}
	cfg.Workers = workers
	cfg.Compression = true // the mapping is the index; there is no raw form
	marker, err := snapshotWALMarker(snap.Section(minerWALSection))
	if err != nil {
		snap.Close()
		return nil, err
	}
	ix, err := core.OpenSnapshotSections(snap, workers)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return &Miner{
		ix:        ix,
		cfg:       cfg,
		gmPool:    &sync.Pool{},
		walMarker: marker,
	}, nil
}

// Close releases resources held by a miner opened with OpenMinerMapped
// (the snapshot mapping); it is a no-op for built or heap-loaded miners.
// Acquiring the write lock drains in-flight queries first — open cursors
// read out of the mapping, so the unmap must not race them. After Close,
// every operation returns ErrMinerClosed; calling Close again is a no-op.
// Close waits for an in-flight Flush to finish first.
func (m *Miner) Close() error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var werr error
	if m.wal != nil {
		// Close fsyncs any batch-buffered records first, so mutations
		// acknowledged just before shutdown stay durable.
		werr = m.wal.Close()
		m.wal = nil
	}
	if m.sh != nil {
		return errors.Join(m.sh.Close(), werr)
	}
	return errors.Join(m.ix.Close(), werr)
}

// IndexStats describes the physical footprint of the miner's query-time
// index structures — how many bytes hold the word lists and inverted
// postings, whether they are block-compressed, and whether they live in a
// shared mmap region — so compression and mmap wins are observable in
// serving (/stats and the expvar gauges republish it).
type IndexStats struct {
	// ListEntries is the total entry count across the score-ordered word
	// lists.
	ListEntries int `json:"list_entries"`
	// ListBytes is the physical bytes holding those lists (compressed
	// block bytes, or 16 bytes per in-heap entry).
	ListBytes int64 `json:"list_bytes"`
	// BytesPerEntry is ListBytes / ListEntries (12 bytes/entry when
	// serialized raw, 16 in heap slices; the compressed layout runs well
	// under both).
	BytesPerEntry float64 `json:"bytes_per_entry"`
	// Postings is the total posting count of the feature inverted index.
	Postings int `json:"postings"`
	// PostingBytes is the physical bytes holding the postings.
	PostingBytes int64 `json:"posting_bytes"`
	// BytesPerPosting is PostingBytes / Postings (4 bytes/posting raw).
	BytesPerPosting float64 `json:"bytes_per_posting"`
	// Compressed reports the block-compressed physical layout.
	Compressed bool `json:"compressed"`
	// Mapped reports an mmap-backed snapshot.
	Mapped bool `json:"mapped"`
	// MappedBytes is the size of the snapshot mapping (resident on
	// demand, shared across processes), zero for heap-resident miners.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// Segments is the segment count of a sharded miner (zero for the
	// monolithic engine).
	Segments int `json:"segments,omitempty"`
	// PackedBlocks counts list and posting blocks stored in the
	// bit-packed frame codec (the rest are varint); zero on
	// uncompressed miners.
	PackedBlocks int `json:"packed_blocks,omitempty"`
	// PackedBytes is the physical bytes of those packed blocks.
	PackedBytes int64 `json:"packed_bytes,omitempty"`
	// SharedScanHits counts block decodes served from a MineBatch
	// shared-scan cache instead of decoding again. Cumulative over the
	// miner's lifetime.
	SharedScanHits int64 `json:"shared_scan_hits,omitempty"`
	// SharedScanMisses counts the block decodes that populated those
	// shared-scan caches. Cumulative over the miner's lifetime.
	SharedScanMisses int64 `json:"shared_scan_misses,omitempty"`
	// IDOrderedCopies counts the resident ID-ordered copies of the word
	// lists SMJ reads (Section 4.4.1): the full-list copy plus a bounded
	// number of partial ListFraction values per index (summed over
	// segments), each built on first use.
	IDOrderedCopies int `json:"id_ordered_copies,omitempty"`
}

// IndexStats reports the miner's current index footprint, aggregated over
// segments on a sharded miner.
func (m *Miner) IndexStats() IndexStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var (
		s        core.MemStats
		segments int
	)
	if m.sh != nil {
		s = m.sh.MemStats()
		segments = m.sh.NumSegments()
	} else {
		s = m.ix.MemStats()
	}
	return IndexStats{
		Segments:         segments,
		ListEntries:      s.ListEntries,
		ListBytes:        s.ListBytes,
		BytesPerEntry:    s.BytesPerEntry,
		Postings:         s.Postings,
		PostingBytes:     s.PostingBytes,
		BytesPerPosting:  s.BytesPerPosting,
		Compressed:       s.Compressed,
		Mapped:           s.Mapped,
		MappedBytes:      s.MappedBytes,
		PackedBlocks:     s.PackedBlocks,
		PackedBytes:      s.PackedBytes,
		SharedScanHits:   m.sharedHits.Load(),
		SharedScanMisses: m.sharedMisses.Load(),
		IDOrderedCopies:  s.IDOrderedCopies,
	}
}

// Config returns the indexing configuration the miner was built (or
// loaded) with.
func (m *Miner) Config() Config {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cfg
}

// NormalizeKeywords exposes the keyword normalization Mine applies —
// trimming, lowercasing, and tokenizer-identical splitting, with facet
// features (name:value) passed through — so callers layered above the
// miner (result caches, request routers) can canonicalize queries exactly
// the way the engine will.
func NormalizeKeywords(keywords []string) []string {
	return normalizeKeywords(keywords)
}

// normalizeKeywords lowercases and tokenizes keywords the way the indexer
// does, so callers can pass raw user input. Facet features (containing the
// ':' separator, see Facet) are passed through untouched apart from
// whitespace trimming and lowercasing.
func normalizeKeywords(keywords []string) []string {
	out := make([]string, 0, len(keywords))
	tok := textproc.Tokenizer{}
	for _, k := range keywords {
		k = strings.TrimSpace(k)
		if strings.Contains(k, ":") {
			out = append(out, strings.ToLower(k))
			continue
		}
		out = append(out, tok.Tokenize(k)...)
	}
	return out
}
