package phrasemine

// This file is the live-tail layer: the glue between the miner's engines
// and internal/livetail. With the tail enabled, Add buffers the document
// (and sketches its co-occurrence counts) so Mine/MineBatch answer over
// the base segments plus the tail with no rebuild — exact segment answers
// merged at gather time with tail contributions (exact below the tail's
// size threshold, sketch-approximated above it, with Mined.Approximate
// and Mined.TailDocs marking the difference). Flush is the compaction
// point: it folds the tail into real segments and drops exactly the
// documents it folded (documents added during a monolithic rebuild stay
// buffered), commuting with the WAL checkpoint so crash recovery replays
// the un-compacted tail.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"phrasemine/internal/livetail"
	"phrasemine/internal/topk"
)

// TailConfig sizes the live tail (see Config.Tail and EnableLiveTail).
// Zero values select internal defaults; the phrase-extraction knobs
// (length bounds, stopword handling) come from the miner's Config so tail
// phrases match indexed ones.
type TailConfig struct {
	// Enabled turns the live tail on at construction (NewMinerFrom*).
	// Loaded miners enable it explicitly through EnableLiveTail.
	Enabled bool
	// ExactThreshold is the tail size (in documents) up to which query
	// contributions come from an exact scan of the buffer; above it the
	// count-min sketch serves upper-bound estimates and answers are marked
	// Approximate. Zero selects the default (256); negative forces the
	// sketch path from the first document (tests use this).
	ExactThreshold int
	// SketchWidth and SketchDepth size the co-occurrence sketches: a pair
	// estimate overshoots by more than e*adds/width with probability at
	// most exp(-depth). Zeros select the defaults (8192 x 4).
	SketchWidth int
	// SketchDepth is the per-sketch row count (see SketchWidth).
	SketchDepth int
	// WindowPeriod is the rotation granularity of windowed mining
	// (QueryOptions.Window); windows round up to whole periods. Zero
	// selects one minute.
	WindowPeriod time.Duration
	// WindowPeriods is the rotation ring size — the maximum windowed
	// history is WindowPeriod*WindowPeriods. Zero selects 64.
	WindowPeriods int
}

// validate rejects unusable tail sizing; the livetail package owns the
// rules so the two layers cannot drift.
func (c TailConfig) validate() error {
	return livetail.Config{
		ExactThreshold: c.ExactThreshold,
		SketchWidth:    c.SketchWidth,
		SketchDepth:    c.SketchDepth,
		WindowPeriod:   c.WindowPeriod,
		WindowPeriods:  c.WindowPeriods,
	}.Validate()
}

// TailStats re-exports the live tail's counters served on /stats and
// /debug/vars.
type TailStats = livetail.Stats

// EnableLiveTail turns the live tail on: from now on every Add (and every
// WAL record replayed by a later EnableWAL) also lands in the tail buffer,
// making it query-visible immediately — no Flush needed. Call it before
// EnableWAL on loaded miners, so log replay repopulates the tail; it
// refuses while document updates are pending, because those were applied
// without a tail and could not be re-served from it.
func (m *Miner) EnableLiveTail(cfg TailConfig) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrMinerClosed
	}
	if m.tail != nil {
		return fmt.Errorf("phrasemine: live tail already enabled")
	}
	if n := m.pendingLocked(); n > 0 {
		return fmt.Errorf("phrasemine: %d document updates pending predate the live tail; Flush or DiscardPendingUpdates before EnableLiveTail (and enable the tail before EnableWAL)", n)
	}
	tail, err := livetail.New(livetail.Config{
		ExactThreshold:         cfg.ExactThreshold,
		SketchWidth:            cfg.SketchWidth,
		SketchDepth:            cfg.SketchDepth,
		WindowPeriod:           cfg.WindowPeriod,
		WindowPeriods:          cfg.WindowPeriods,
		MinWords:               m.cfg.MinPhraseWords,
		MaxWords:               m.cfg.MaxPhraseWords,
		DropAllStopwordPhrases: m.cfg.DropStopwordPhrases,
	})
	if err != nil {
		return err
	}
	m.tail = tail
	cfg.Enabled = true
	m.cfg.Tail = cfg
	return nil
}

// TailStats reports the live tail's counters; ok is false when no tail is
// enabled.
func (m *Miner) TailStats() (stats TailStats, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.tail == nil {
		return TailStats{}, false
	}
	return m.tail.Stats(), true
}

// baseDocFreq reports the base engine's corpus-wide document frequency of
// a phrase (zero when the phrase is not indexed). Called with the read
// lock held.
func (m *Miner) baseDocFreq(phrase string) (uint32, error) {
	if m.sh != nil {
		return m.sh.PhraseDocFreqByText(phrase)
	}
	return m.ix.PhraseDocFreqByText(phrase)
}

// mergeTailLocked folds the live tail's contribution into a resolved base
// answer, under the held read lock. The two engines need different merge
// sets:
//
//   - Monolithic miners already correct known-phrase probabilities through
//     the pending delta (Section 4.5.1), so only phrases absent from the
//     base dictionary — genuinely new ones — enter from the tail; merging
//     known phrases again would double-count them. Base results pass
//     through with their interestingness intact.
//   - Sharded miners keep pending documents invisible until Flush, so the
//     tail is the only live view: every tail phrase merges, with the
//     combined estimate (baseFreq+tailFreq)/(baseDF+tailDF).
//
// With no tail, an empty tail, or no matching tail document the answer is
// returned untouched — bit-identical to the tail-free path.
func (m *Miner) mergeTailLocked(mined Mined, p preparedQuery) (Mined, error) {
	if m.tail == nil || m.tail.Docs() == 0 {
		return mined, nil
	}
	counts, consulted, approx := m.tail.Counts(p.q)
	if consulted == 0 {
		return mined, nil
	}
	mined.TailDocs = consulted
	mined.Approximate = approx
	if len(counts) == 0 {
		return mined, nil
	}

	base := make([]topk.LiveCandidate, 0, len(mined.Results))
	for _, r := range mined.Results {
		c := topk.LiveCandidate{Phrase: r.Phrase, Score: r.Score}
		if m.sh != nil {
			df, err := m.baseDocFreq(r.Phrase)
			if err != nil {
				return Mined{}, err
			}
			c.BaseFreq = r.Interestingness * float64(df)
			c.BaseDF = float64(df)
		}
		if c.BaseDF == 0 {
			// Monolithic path (and the defensive sharded fallback): encode
			// the interestingness as freq/df = i/1, so a phrase the tail
			// does not touch round-trips the merge bit-identically.
			c.BaseFreq = r.Interestingness
			c.BaseDF = 1
		}
		base = append(base, c)
	}
	tail := make([]topk.LiveCandidate, 0, len(counts))
	for phrase, freq := range counts {
		df, err := m.baseDocFreq(phrase)
		if err != nil {
			return Mined{}, err
		}
		if m.sh == nil && df > 0 {
			// The delta already corrects this phrase's probabilities.
			continue
		}
		c := topk.LiveCandidate{
			Phrase:   phrase,
			TailFreq: float64(freq),
			TailDF:   float64(m.tail.DF(phrase)),
		}
		if m.sh != nil && df > 0 {
			// The phrase is indexed but missed the base top-k: its base
			// subset frequency is unknown, so count only the denominator —
			// a conservative (never inflated) merged estimate.
			c.BaseDF = float64(df)
		}
		tail = append(tail, c)
	}
	if len(tail) == 0 {
		return mined, nil
	}
	merged := topk.MergeLiveTail(base, tail, p.k)
	out := make([]Result, len(merged))
	for i, r := range merged {
		out[i] = Result{Phrase: r.Phrase, Score: r.Score, Interestingness: r.Interestingness}
	}
	mined.Results = out
	return mined, nil
}

// mineWindowLocked answers a windowed query (QueryOptions.Window) from the
// tail's rotated per-period sketches, under the held read lock. Windowed
// answers are always Approximate: per-period counts are sketch upper
// bounds (capped at the period's exact phrase document frequency), and the
// window rounds up to whole rotation periods. The windowed history covers
// compacted documents too — Flush clears the tail buffer but not the ring.
func (m *Miner) mineWindowLocked(p preparedQuery) (Mined, error) {
	if m.tail == nil {
		return Mined{}, fmt.Errorf("phrasemine: windowed mining requires the live tail; enable it with Config.Tail.Enabled or EnableLiveTail")
	}
	counts, windowDF := m.tail.WindowCounts(p.q, p.window)
	cands := make([]topk.LiveCandidate, 0, len(counts))
	for phrase, freq := range counts {
		cands = append(cands, topk.LiveCandidate{
			Phrase:   phrase,
			TailFreq: float64(freq),
			TailDF:   float64(windowDF[phrase]),
		})
	}
	merged := topk.MergeLiveTail(nil, cands, p.k)
	out := make([]Result, len(merged))
	for i, r := range merged {
		out[i] = Result{Phrase: r.Phrase, Score: r.Score, Interestingness: r.Interestingness}
	}
	return Mined{Results: out, Approximate: true, TailDocs: m.tail.Docs()}, nil
}

// StartAutoCompact launches the background compaction goroutine: it folds
// the live tail into real segments via Flush — the existing write-segment
// routing and WAL checkpoint — whenever the interval elapses with updates
// pending (interval > 0), or the tail reaches maxDocs documents (maxDocs >
// 0); at least one trigger must be set. onCompact, when non-nil, runs
// after each successful compaction (the serving layer hangs its cache
// invalidation there). The goroutine exits when the miner closes or the
// returned stop function is called; stop blocks until it has, and is safe
// to call more than once.
func (m *Miner) StartAutoCompact(interval time.Duration, maxDocs int, onCompact func()) (stop func(), err error) {
	if interval <= 0 && maxDocs <= 0 {
		return nil, fmt.Errorf("phrasemine: auto-compaction needs a trigger: positive interval and/or maxDocs")
	}
	// Poll fast enough to notice a filling tail between intervals; the
	// interval trigger itself still honors its full period.
	poll := interval
	if maxDocs > 0 && (poll <= 0 || poll > time.Second) {
		poll = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				due := interval > 0 && now.Sub(last) >= interval && m.PendingUpdates() > 0
				if !due && maxDocs > 0 {
					if st, ok := m.TailStats(); ok && st.Docs >= maxDocs {
						due = true
					}
				}
				if !due {
					continue
				}
				err := m.Flush()
				if errors.Is(err, ErrMinerClosed) {
					return
				}
				last = now
				if err == nil && onCompact != nil {
					onCompact()
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}, nil
}
