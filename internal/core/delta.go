package core

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// Delta implements the incremental-operation scheme of Section 4.5.1: a
// separate inverted index over inserted and deleted documents, keyed by
// features and phrases, that supplies conditional-probability corrections
// when NRA or SMJ takes a phrase into consideration. Periodically the delta
// is flushed and the list indexes recomputed offline (Flush).
//
// Known phrases only: documents added after the build contribute counts to
// phrases already in P; genuinely new phrases enter the system at the next
// Flush, exactly as the paper prescribes.
type Delta struct {
	ix      *Index
	added   []corpus.Document
	removed map[corpus.DocID]bool
	// dDF[p] is the pending change to |docs(p)|.
	dDF map[phrasedict.PhraseID]int
	// dCo[f][p] is the pending change to |docs(f) ∩ docs(p)|, indexed by
	// feature so a query touches only its own features' pairs.
	dCo map[string]map[phrasedict.PhraseID]int
}

// NewDelta starts an empty delta over the index. On a mapped index this
// materializes the phrase-doc and forward sections (delta corrections need
// them); a corrupt mapped snapshot surfaces here as an error rather than
// admitting updates it cannot score.
func (ix *Index) NewDelta() (*Delta, error) {
	if err := ix.materializeDocs(); err != nil {
		return nil, err
	}
	return &Delta{
		ix:      ix,
		removed: make(map[corpus.DocID]bool),
		dDF:     make(map[phrasedict.PhraseID]int),
		dCo:     make(map[string]map[phrasedict.PhraseID]int),
	}, nil
}

// Size reports the number of pending document updates (inserts + deletes),
// the quantity a deployment would threshold to trigger Flush.
func (d *Delta) Size() int {
	return len(d.added) + len(d.removed)
}

// docPhrases finds the distinct dictionary phrases present in a token
// stream by scanning its n-grams against the phrase dictionary.
func (d *Delta) docPhrases(tokens []string) ([]phrasedict.PhraseID, error) {
	maxWords := d.ix.opts.Extractor.MaxWords
	if maxWords <= 0 {
		maxWords = 6
	}
	seen := make(map[phrasedict.PhraseID]struct{})
	for n := 1; n <= maxWords; n++ {
		for s := 0; s+n <= len(tokens); s++ {
			window := tokens[s : s+n]
			if textproc.ContainsBreak(window) {
				continue
			}
			id, ok, err := d.ix.Dict.ID(textproc.JoinPhrase(window))
			if err != nil {
				return nil, err
			}
			if ok {
				seen[id] = struct{}{}
			}
		}
	}
	out := make([]phrasedict.PhraseID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out, nil
}

// apply folds one document's counts into the delta with the given sign.
func (d *Delta) apply(doc corpus.Document, phrases []phrasedict.PhraseID, sign int) {
	for _, p := range phrases {
		d.dDF[p] += sign
	}
	for f := range corpus.FeatureSet(doc) {
		co := d.dCo[f]
		if co == nil {
			co = make(map[phrasedict.PhraseID]int, len(phrases))
			d.dCo[f] = co
		}
		for _, p := range phrases {
			co[p] += sign
		}
	}
}

// AddDocument registers an inserted document.
func (d *Delta) AddDocument(doc corpus.Document) error {
	phrases, err := d.docPhrases(doc.Tokens)
	if err != nil {
		return err
	}
	d.added = append(d.added, doc)
	d.apply(doc, phrases, +1)
	return nil
}

// RemoveDocument registers the deletion of a base-corpus document.
func (d *Delta) RemoveDocument(id corpus.DocID) error {
	if int(id) >= d.ix.Corpus.Len() {
		return fmt.Errorf("core: document %d out of range", id)
	}
	if d.removed[id] {
		return fmt.Errorf("core: document %d already removed", id)
	}
	doc, err := d.ix.Corpus.Doc(id)
	if err != nil {
		return err
	}
	d.removed[id] = true
	d.apply(doc, d.ix.Forward[id], -1)
	return nil
}

// adjusted corrects a stored P(feature|phrase) with the delta counts of
// one feature (dco, nil when the feature has none pending):
//
//	P'(f|p) = (co + Δco) / (df + Δdf)
//
// The stored co-occurrence count is recovered from the stored probability
// and the base document frequency (prob = co/df exactly, both integers at
// build time).
func (d *Delta) adjusted(dco map[phrasedict.PhraseID]int, p phrasedict.PhraseID, stored float64) float64 {
	df := int(d.ix.PhraseDF[p])
	co := int(math.Round(stored * float64(df)))
	df += d.dDF[p]
	co += dco[p]
	if df <= 0 || co <= 0 {
		return 0
	}
	if co > df {
		co = df
	}
	return float64(co) / float64(df)
}

// extras lists delta-minted entries for a feature: phrases whose base
// co-occurrence with the feature was zero (hence absent from the stored
// list, which omits zero probabilities) but whose pending updates give them
// a positive adjusted probability. This realizes the paper's "additional
// query ... on the separate index" for pairs the stored lists cannot serve.
func (d *Delta) extras(feature string) ([]plist.Entry, error) {
	var out []plist.Entry
	featureDocs, err := d.ix.Inverted.Docs(feature)
	if err != nil {
		return nil, err
	}
	co := d.dCo[feature]
	for p, dco := range co {
		if dco <= 0 {
			continue
		}
		if corpus.IntersectCount2(featureDocs, d.ix.PhraseDocs[p]) > 0 {
			continue // pair exists in the stored list; adjusted in place
		}
		if prob := d.adjusted(co, p, 0); prob > 0 {
			out = append(out, plist.Entry{Phrase: p, Prob: prob})
		}
	}
	return out, nil
}

// adjustedCursor rewrites cursor probabilities through the delta. Entries
// whose adjusted probability drops to zero are skipped (a zero-probability
// pair is by definition absent from the list). Score order may be mildly
// violated after adjustment, which is exactly why the paper notes that
// "such probability adjustments make NRA's pruning phase approximate";
// SMJ is unaffected because it never relies on score order.
type adjustedCursor struct {
	inner plist.Cursor
	delta *Delta
	co    map[phrasedict.PhraseID]int // the feature's pending pair counts
}

func (c *adjustedCursor) Len() int { return c.inner.Len() }
func (c *adjustedCursor) Pos() int { return c.inner.Pos() }
func (c *adjustedCursor) Next() (plist.Entry, bool) {
	for {
		e, ok := c.inner.Next()
		if !ok {
			return plist.Entry{}, false
		}
		adj := c.delta.adjusted(c.co, e.Phrase, e.Prob)
		if adj == 0 {
			continue
		}
		e.Prob = adj
		return e, true
	}
}
func (c *adjustedCursor) Err() error { return c.inner.Err() }

// chainCursor yields the inner cursor's entries followed by a fixed tail —
// how delta-minted extras reach NRA (score order is already approximate
// under adjustment, so appending keeps the implementation lazy).
type chainCursor struct {
	inner plist.Cursor
	tail  []plist.Entry
	tPos  int
}

func (c *chainCursor) Len() int { return c.inner.Len() + len(c.tail) }
func (c *chainCursor) Pos() int { return c.inner.Pos() + c.tPos }
func (c *chainCursor) Next() (plist.Entry, bool) {
	if e, ok := c.inner.Next(); ok {
		return e, true
	}
	if c.tPos < len(c.tail) {
		e := c.tail[c.tPos]
		c.tPos++
		return e, true
	}
	return plist.Entry{}, false
}
func (c *chainCursor) Err() error { return c.inner.Err() }

// mergeByIDCursor interleaves the inner (ID-ordered) cursor with ID-sorted
// extras, preserving the strict ID ordering SMJ relies on.
type mergeByIDCursor struct {
	inner   plist.Cursor
	extras  []plist.Entry
	ePos    int
	pending *plist.Entry // one-entry lookahead pulled from inner
}

func (c *mergeByIDCursor) Len() int { return c.inner.Len() + len(c.extras) }
func (c *mergeByIDCursor) Pos() int { return c.inner.Pos() + c.ePos }
func (c *mergeByIDCursor) Next() (plist.Entry, bool) {
	if c.pending == nil {
		if e, ok := c.inner.Next(); ok {
			c.pending = &e
		}
	}
	haveExtra := c.ePos < len(c.extras)
	switch {
	case c.pending != nil && (!haveExtra || c.pending.Phrase <= c.extras[c.ePos].Phrase):
		e := *c.pending
		c.pending = nil
		return e, true
	case haveExtra:
		e := c.extras[c.ePos]
		c.ePos++
		return e, true
	default:
		return plist.Entry{}, false
	}
}
func (c *mergeByIDCursor) Err() error { return c.inner.Err() }

// QueryNRA answers a query with NRA over delta-adjusted lists.
func (d *Delta) QueryNRA(q corpus.Query, opt topk.NRAOptions) ([]topk.Result, topk.NRAStats, error) {
	if err := q.Validate(); err != nil {
		return nil, topk.NRAStats{}, err
	}
	opt.Op = q.Op
	pool := d.ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors, err := d.ix.scoreCursors(s, q.Features, nil)
	if err != nil {
		return nil, topk.NRAStats{}, err
	}
	err = d.adjust(cursors, q.Features, func(inner plist.Cursor, extras []plist.Entry) plist.Cursor {
		plist.SortScoreOrder(extras)
		return &chainCursor{inner: inner, tail: extras}
	})
	if err != nil {
		return nil, topk.NRAStats{}, err
	}
	return topk.NRAScratch(cursors, opt, s)
}

// QuerySMJ answers a query with SMJ over delta-adjusted ID-ordered lists.
func (d *Delta) QuerySMJ(s *SMJIndex, q corpus.Query, opt topk.SMJOptions) ([]topk.Result, topk.SMJStats, error) {
	if err := q.Validate(); err != nil {
		return nil, topk.SMJStats{}, err
	}
	opt.Op = q.Op
	pool := d.ix.ScratchPool()
	scratch := pool.Get()
	defer pool.Put(scratch)
	cursors, err := d.ix.idCursors(scratch, s, q.Features, nil)
	if err != nil {
		return nil, topk.SMJStats{}, err
	}
	err = d.adjust(cursors, q.Features, func(inner plist.Cursor, extras []plist.Entry) plist.Cursor {
		sort.Slice(extras, func(a, b int) bool { return extras[a].Phrase < extras[b].Phrase })
		return &mergeByIDCursor{inner: inner, extras: extras}
	})
	if err != nil {
		return nil, topk.SMJStats{}, err
	}
	return topk.SMJScratch(cursors, opt, scratch)
}

// adjust wraps each feature's seated cursor, in place, in the delta's
// probability adjustment, and hands it with the feature's delta-minted
// extras to join, which orders the extras for its algorithm and returns the
// cursor the query reads. The extras scan over pending updates fans out
// per keyword through the index's bounded query pool; the delta is only
// read, so concurrent preparation is safe.
func (d *Delta) adjust(cursors []plist.Cursor, features []string, join func(inner plist.Cursor, extras []plist.Entry) plist.Cursor) error {
	errs := make([]error, len(features))
	d.ix.fanOut(len(features), func(i int) {
		extras, err := d.extras(features[i])
		if err != nil {
			errs[i] = err
			return
		}
		cursors[i] = join(&adjustedCursor{inner: cursors[i], delta: d, co: d.dCo[features[i]]}, extras)
	})
	return firstError(errs)
}

// Flush rebuilds the index offline over the updated corpus (base documents
// minus removals, plus additions) and returns it. The delta itself is left
// untouched; callers switch to the new index and discard the delta.
func (d *Delta) Flush() (*Index, error) {
	return d.Freeze().Build()
}

// FrozenDelta is the pending-update set of a Delta captured at one instant:
// its removals and the additions made so far. It is the unit an off-lock
// flush rebuilds while the live delta keeps accepting additions.
type FrozenDelta struct {
	ix      *Index
	added   []corpus.Document
	removed map[corpus.DocID]bool
}

// Freeze captures the delta's current pending updates. Additions made
// afterwards append past the captured prefix and stay out of the view, so
// the view may be built without the caller's lock while AddDocument keeps
// running; RemoveDocument must wait until Rebase, because removals number
// documents against the base index a rebuild renumbers.
func (d *Delta) Freeze() FrozenDelta {
	return FrozenDelta{
		ix:      d.ix,
		added:   d.added[:len(d.added):len(d.added)],
		removed: maps.Clone(d.removed),
	}
}

// Added reports the number of captured additions.
func (f FrozenDelta) Added() int {
	return len(f.added)
}

// Build rebuilds the index over the base documents minus the captured
// removals, plus the captured additions in order. It only reads the base
// index, so queries over the base may run concurrently.
func (f FrozenDelta) Build() (*Index, error) {
	merged := corpus.New()
	for i := 0; i < f.ix.Corpus.Len(); i++ {
		id := corpus.DocID(i)
		if f.removed[id] {
			continue
		}
		doc, err := f.ix.Corpus.Doc(id)
		if err != nil {
			return nil, err
		}
		if _, err := merged.Add(doc); err != nil {
			return nil, err
		}
	}
	for _, doc := range f.added {
		if _, err := merged.Add(doc); err != nil {
			return nil, err
		}
	}
	return Build(merged, f.ix.opts)
}

// Rebase returns a delta over ix — the index f.Build produced — holding
// the additions d received after f was frozen. It refuses if d gained
// removals since the freeze: their document numbers refer to the old base.
func (d *Delta) Rebase(ix *Index, f FrozenDelta) (*Delta, error) {
	if len(d.removed) != len(f.removed) || len(d.added) < len(f.added) {
		return nil, fmt.Errorf("core: delta changed beyond additions since it was frozen")
	}
	next, err := ix.NewDelta()
	if err != nil {
		return nil, err
	}
	for _, doc := range d.added[len(f.added):] {
		if err := next.AddDocument(doc); err != nil {
			return nil, err
		}
	}
	return next, nil
}
