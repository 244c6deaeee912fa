// Package livetail holds the streaming-ingest serving layer: an exact
// in-memory buffer of not-yet-flushed documents plus count-min sketches
// of feature/phrase co-occurrence, so freshly added documents answer
// queries immediately — no segment rebuild — and windowed ("last hour")
// phrase counts survive compaction in a ring of rotated period sketches.
//
// The tail answers a query with per-phrase document counts over the tail
// documents the query selects. Below Config.ExactThreshold tail documents
// the counts are exact (a scan of the buffer); above it they come from
// the pair sketch — upper bounds that never undercount, with the additive
// per-pair error bound of sketch.CountMin.ErrorBound. The miner merges
// these contributions into the base engine's gather (see topk.MergeLiveTail)
// and marks sketch-served answers approximate.
//
// Concurrency contract: Add, Clear, DropOldest and Reset mutate and run
// under the miner's write lock; Counts, WindowCounts and Stats only read
// and run under its read lock.
package livetail

import (
	"fmt"
	"time"

	"phrasemine/internal/corpus"
	"phrasemine/internal/sketch"
	"phrasemine/internal/textproc"
)

// Defaults for the zero Config values.
const (
	DefaultExactThreshold = 256
	DefaultSketchWidth    = 1 << 13
	DefaultSketchDepth    = 4
	DefaultWindowPeriods  = 64
)

// DefaultWindowPeriod is the default rotation granularity of the windowed
// counts.
const DefaultWindowPeriod = time.Minute

// Config sizes a Tail. The zero value selects the documented default for
// every field.
type Config struct {
	// ExactThreshold is the tail size (in documents) up to which query
	// contributions are computed by scanning the buffer exactly; above it
	// the pair sketch serves upper-bound estimates and answers are marked
	// approximate. Zero selects DefaultExactThreshold; negative forces the
	// sketch path from the first document (difftest uses this).
	ExactThreshold int
	// SketchWidth and SketchDepth size the pair sketches: estimates
	// overshoot by more than e*adds/width with probability at most
	// exp(-depth). Zero selects DefaultSketchWidth/DefaultSketchDepth.
	SketchWidth int
	// SketchDepth is the per-sketch row count (see SketchWidth).
	SketchDepth int
	// WindowPeriod is the rotation granularity of windowed counts; windows
	// round up to whole periods. Zero selects DefaultWindowPeriod.
	WindowPeriod time.Duration
	// WindowPeriods is the ring size — the maximum windowed history is
	// WindowPeriod*WindowPeriods. Zero selects DefaultWindowPeriods.
	WindowPeriods int
	// MinWords/MaxWords bound tail phrase length in words, matching the
	// index extractor (zeros select 1 and 6).
	MinWords int
	// MaxWords is the upper length bound (see MinWords).
	MaxWords int
	// DropAllStopwordPhrases mirrors the extractor option of the same name.
	DropAllStopwordPhrases bool
	// MaxPhraseBytes drops tail phrases whose canonical form exceeds this
	// many bytes, matching the extractor (zero selects 50).
	MaxPhraseBytes int
	// Now is the clock windowed counts rotate on; nil selects time.Now.
	// Tests inject a fake clock here.
	Now func() time.Time
}

// withDefaults resolves zero Config fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.ExactThreshold == 0 {
		c.ExactThreshold = DefaultExactThreshold
	}
	if c.SketchWidth == 0 {
		c.SketchWidth = DefaultSketchWidth
	}
	if c.SketchDepth == 0 {
		c.SketchDepth = DefaultSketchDepth
	}
	if c.WindowPeriod == 0 {
		c.WindowPeriod = DefaultWindowPeriod
	}
	if c.WindowPeriods == 0 {
		c.WindowPeriods = DefaultWindowPeriods
	}
	if c.MinWords == 0 {
		c.MinWords = 1
	}
	if c.MaxWords == 0 {
		c.MaxWords = 6
	}
	if c.MaxPhraseBytes == 0 {
		c.MaxPhraseBytes = 50
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate reports configuration errors withDefaults cannot repair.
func (c Config) Validate() error {
	if c.SketchWidth < 0 {
		return fmt.Errorf("livetail: SketchWidth must be non-negative, got %d (0 selects %d)", c.SketchWidth, DefaultSketchWidth)
	}
	if c.SketchDepth < 0 {
		return fmt.Errorf("livetail: SketchDepth must be non-negative, got %d (0 selects %d)", c.SketchDepth, DefaultSketchDepth)
	}
	if c.WindowPeriod < 0 {
		return fmt.Errorf("livetail: WindowPeriod must be non-negative, got %v (0 selects %v)", c.WindowPeriod, DefaultWindowPeriod)
	}
	if c.WindowPeriods < 0 {
		return fmt.Errorf("livetail: WindowPeriods must be non-negative, got %d (0 selects %d)", c.WindowPeriods, DefaultWindowPeriods)
	}
	if c.MinWords < 0 || c.MaxWords < 0 {
		return fmt.Errorf("livetail: phrase length bounds must be non-negative, got MinWords=%d MaxWords=%d", c.MinWords, c.MaxWords)
	}
	r := c.withDefaults()
	if r.MaxWords < r.MinWords {
		return fmt.Errorf("livetail: phrase length bounds inverted: MinWords=%d > MaxWords=%d", r.MinWords, r.MaxWords)
	}
	return nil
}

// tailDoc is one buffered document: its distinct features (words + facets)
// for query matching and its distinct extracted phrases for counting.
type tailDoc struct {
	features map[string]struct{}
	phrases  []string
}

// Tail is the live-tail buffer and its sketches. Create one with New.
type Tail struct {
	cfg  Config
	docs []tailDoc
	// df[p] = number of tail documents containing phrase p — the exact
	// tail-wide document frequency, also the cap on every estimate.
	df map[string]int
	// pairs sketches (feature, phrase) co-occurrence document counts over
	// the whole tail; cleared on Clear (compaction).
	pairs *sketch.CountMin
	// win sketches the same pair counts per rotation period; survives
	// Clear so windowed counts cover compacted documents too.
	win *sketch.Rotating
	// winPhrases[slot][p] = documents containing p ingested during the
	// ring slot's period — the windowed candidate set and exact windowed
	// document frequency (the sketch only serves the quadratic pair
	// counts).
	winPhrases []map[string]int
}

// New creates an empty tail.
func New(cfg Config) (*Tail, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	pairs, err := sketch.NewConservative(cfg.SketchWidth, cfg.SketchDepth)
	if err != nil {
		return nil, err
	}
	win, err := sketch.NewRotating(cfg.SketchWidth, cfg.SketchDepth, cfg.WindowPeriod, cfg.WindowPeriods)
	if err != nil {
		return nil, err
	}
	t := &Tail{
		cfg:        cfg,
		df:         make(map[string]int),
		pairs:      pairs,
		win:        win,
		winPhrases: make([]map[string]int, cfg.WindowPeriods),
	}
	win.OnEvict = func(slot int) { t.winPhrases[slot] = nil }
	return t, nil
}

// Docs reports the number of buffered tail documents.
func (t *Tail) Docs() int { return len(t.docs) }

// Phrases reports the number of distinct tail phrases.
func (t *Tail) Phrases() int { return len(t.df) }

// DF reports phrase p's exact tail-wide document frequency.
func (t *Tail) DF(p string) int { return t.df[p] }

// PairBound is the additive error bound of one pair estimate — see
// sketch.CountMin.ErrorBound. The difftest pins every pair estimate
// within it of the true pair count (modulo the documented exp(-depth)
// tail).
func (t *Tail) PairBound() uint64 { return t.pairs.ErrorBound() }

// PairEstimate upper-bounds |tail docs containing feature f and phrase p|
// from the pair sketch.
func (t *Tail) PairEstimate(f, p string) uint64 {
	return t.pairs.EstimateHash(sketch.PairHash(sketch.HashKey(f), sketch.HashKey(p)))
}

// Add buffers one document: its features and extracted phrases join the
// exact structures, and every (feature, phrase) pair is recorded in the
// whole-tail and current-period sketches. Runs under the miner's write
// lock.
func (t *Tail) Add(d corpus.Document) {
	now := t.cfg.Now()
	doc := tailDoc{features: corpus.FeatureSet(d), phrases: t.extractPhrases(d.Tokens)}
	t.docs = append(t.docs, doc)
	hashes := featureHashes(doc.features)
	t.count(doc, hashes)
	slot := t.win.Advance(now)
	if t.winPhrases[slot] == nil {
		t.winPhrases[slot] = make(map[string]int)
	}
	for _, p := range doc.phrases {
		t.winPhrases[slot][p]++
		hp := sketch.HashKey(p)
		for _, hf := range hashes {
			t.win.Add(now, sketch.PairHash(hf, hp), 1)
		}
	}
}

// featureHashes hashes a document's features once, so its per-pair sketch
// updates only mix.
func featureHashes(features map[string]struct{}) []uint64 {
	hashes := make([]uint64, 0, len(features))
	for f := range features {
		hashes = append(hashes, sketch.HashKey(f))
	}
	return hashes
}

// count adds one buffered document to the whole-tail structures: its
// phrases' document frequencies and its feature×phrase pairs in the
// sketch. hashes are featureHashes(d.features).
func (t *Tail) count(d tailDoc, hashes []uint64) {
	for _, p := range d.phrases {
		t.df[p]++
		hp := sketch.HashKey(p)
		for _, hf := range hashes {
			t.pairs.AddHash(sketch.PairHash(hf, hp), 1)
		}
	}
}

// extractPhrases lists a document's distinct candidate phrases: every
// n-gram within the configured length bounds that does not cross a
// sentence break, subject to the stopword and byte-length rules of the
// index extractor — but with no minimum document frequency, so genuinely
// new phrases become query-visible from the tail alone.
func (t *Tail) extractPhrases(tokens []string) []string {
	seen := make(map[string]struct{})
	for n := t.cfg.MinWords; n <= t.cfg.MaxWords; n++ {
		for s := 0; s+n <= len(tokens); s++ {
			window := tokens[s : s+n]
			if textproc.ContainsBreak(window) {
				continue
			}
			if t.cfg.DropAllStopwordPhrases && textproc.AllStopwords(window) {
				continue
			}
			phrase := textproc.JoinPhrase(window)
			if len(phrase) > t.cfg.MaxPhraseBytes {
				continue
			}
			seen[phrase] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	return out
}

// matches reports whether the document satisfies the query's operator
// over its features.
func (d *tailDoc) matches(q corpus.Query) bool {
	if q.Op == corpus.OpAND {
		for _, f := range q.Features {
			if _, ok := d.features[f]; !ok {
				return false
			}
		}
		return true
	}
	for _, f := range q.Features {
		if _, ok := d.features[f]; ok {
			return true
		}
	}
	return false
}

// Counts returns the tail's per-phrase document counts for the query —
// counts[p] = (an upper bound on) the number of tail documents that both
// match the query and contain p, with zero-count phrases omitted.
// consulted is the number of tail documents behind the answer (matching
// documents on the exact path, the whole tail on the sketch path), and
// approx reports the sketch path: counts never undercount the exact
// answer, overshooting per pair by at most PairBound (probabilistically)
// and never beyond the phrase's exact tail document frequency.
func (t *Tail) Counts(q corpus.Query) (counts map[string]int, consulted int, approx bool) {
	if len(t.docs) == 0 {
		return nil, 0, false
	}
	if len(t.docs) <= t.cfg.ExactThreshold {
		counts, consulted = t.exactCounts(q)
		return counts, consulted, false
	}
	return t.sketchCounts(q), len(t.docs), true
}

// exactCounts scans the buffer: per-phrase document counts over exactly
// the matching documents.
func (t *Tail) exactCounts(q corpus.Query) (map[string]int, int) {
	counts := make(map[string]int)
	matched := 0
	for i := range t.docs {
		if !t.docs[i].matches(q) {
			continue
		}
		matched++
		for _, p := range t.docs[i].phrases {
			counts[p]++
		}
	}
	return counts, matched
}

// sketchCounts upper-bounds the per-phrase counts from the pair sketch:
// for AND the true count is at most every per-feature pair count, so the
// minimum estimate bounds it; for OR it is at most their sum; both are
// capped by the phrase's exact tail document frequency.
func (t *Tail) sketchCounts(q corpus.Query) map[string]int {
	hf := make([]uint64, len(q.Features))
	for i, f := range q.Features {
		hf[i] = sketch.HashKey(f)
	}
	counts := make(map[string]int, len(t.df))
	for p, df := range t.df {
		hp := sketch.HashKey(p)
		c := pairAggregate(q.Op, hf, hp, func(ph uint64) uint64 { return t.pairs.EstimateHash(ph) })
		if c > uint64(df) {
			c = uint64(df)
		}
		if c > 0 {
			counts[p] = int(c)
		}
	}
	return counts
}

// pairAggregate combines per-feature pair estimates under the operator:
// min for AND, sum for OR — both upper bounds of the true selected count.
func pairAggregate(op corpus.Operator, hf []uint64, hp uint64, est func(uint64) uint64) uint64 {
	var agg uint64
	for i, h := range hf {
		e := est(sketch.PairHash(h, hp))
		if op == corpus.OpAND {
			if i == 0 || e < agg {
				agg = e
			}
			if agg == 0 {
				return 0
			}
		} else {
			agg += e
		}
	}
	return agg
}

// WindowCounts answers a windowed query from the rotated period
// structures: counts[p] upper-bounds the documents ingested in
// [now-window, now] that match the query and contain p, and windowDF[p]
// is the exact ingest-time document frequency over the same (whole-period
// rounded) window. Windowed counts survive compaction — they describe the
// ingest stream, not the un-flushed buffer — and are always approximate.
func (t *Tail) WindowCounts(q corpus.Query, window time.Duration) (counts, windowDF map[string]int) {
	now := t.cfg.Now()
	windowDF = make(map[string]int)
	for _, slot := range t.win.WindowSlots(now, window) {
		for p, n := range t.winPhrases[slot] {
			windowDF[p] += n
		}
	}
	if len(windowDF) == 0 {
		return nil, windowDF
	}
	hf := make([]uint64, len(q.Features))
	for i, f := range q.Features {
		hf[i] = sketch.HashKey(f)
	}
	counts = make(map[string]int, len(windowDF))
	for p, df := range windowDF {
		hp := sketch.HashKey(p)
		c := pairAggregate(q.Op, hf, hp, func(ph uint64) uint64 { return t.win.EstimateWindow(now, window, ph) })
		if c > uint64(df) {
			c = uint64(df)
		}
		if c > 0 {
			counts[p] = int(c)
		}
	}
	return counts, windowDF
}

// Clear empties the buffer and the whole-tail structures after a
// compaction folded the documents into the base engine. The windowed ring
// is kept: those counts describe the ingest stream and must survive
// compaction.
func (t *Tail) Clear() {
	t.docs = nil
	clear(t.df)
	t.pairs.Reset()
}

// DropOldest removes the n oldest buffered documents — the ones a flush
// folded into the base engine while later additions kept arriving — and
// rebuilds the whole-tail structures from the survivors, so the tail then
// answers exactly like a fresh one fed only the survivors. The windowed
// ring is kept, as in Clear.
func (t *Tail) DropOldest(n int) {
	if n >= len(t.docs) {
		t.Clear()
		return
	}
	if n <= 0 {
		return
	}
	keep := append([]tailDoc(nil), t.docs[n:]...)
	t.Clear()
	t.docs = keep
	for _, d := range keep {
		t.count(d, featureHashes(d.features))
	}
}

// Reset additionally drops the windowed history — the discard path
// (DiscardPendingUpdates), where the buffered documents never became part
// of the corpus and their windowed counts must not linger.
func (t *Tail) Reset() {
	t.Clear()
	t.win.Reset()
	for i := range t.winPhrases {
		t.winPhrases[i] = nil
	}
}

// Stats is the tail's observability snapshot.
type Stats struct {
	// Docs is the buffered (not yet compacted) document count.
	Docs int `json:"docs"`
	// Phrases is the distinct tail phrase count.
	Phrases int `json:"phrases"`
	// ExactThreshold is the tail size above which queries take the sketch
	// path.
	ExactThreshold int `json:"exact_threshold"`
	// SketchBytes is the summed counter footprint of the pair sketch and
	// the window ring.
	SketchBytes int64 `json:"sketch_bytes"`
	// PairBound is the current additive error bound of one pair estimate.
	PairBound uint64 `json:"pair_bound"`
	// WindowPeriodSeconds and WindowPeriods describe the windowed ring.
	WindowPeriodSeconds float64 `json:"window_period_seconds"`
	// WindowPeriods is the ring size in periods.
	WindowPeriods int `json:"window_periods"`
}

// Stats snapshots the tail.
func (t *Tail) Stats() Stats {
	return Stats{
		Docs:                len(t.docs),
		Phrases:             len(t.df),
		ExactThreshold:      t.cfg.ExactThreshold,
		SketchBytes:         t.pairs.Bytes() + t.win.Bytes(),
		PairBound:           t.pairs.ErrorBound(),
		WindowPeriodSeconds: t.cfg.WindowPeriod.Seconds(),
		WindowPeriods:       t.cfg.WindowPeriods,
	}
}
