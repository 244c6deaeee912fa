package topk

import (
	"context"
	"fmt"
	"slices"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// This file implements the gather half of the sharded engine's
// scatter-gather query execution. Each segment contributes a PartialList —
// its per-phrase integer co-occurrence counts with every query feature, in
// ascending (global) phrase-ID order — and MergePartials combines them
// into the final top-k with exactly the monolithic index's arithmetic:
// per-feature counts sum across segments (integer addition is exact), each
// global probability is the same float64(count)/float64(df) division the
// list builder performs, and the per-phrase score accumulates in canonical
// feature order — the order the sort-merge join consumes entries — so
// sharded results are bit-identical to the monolithic SMJ answer.

// PartialList is one shard's contribution to a scatter-gather top-k: for
// every candidate phrase the shard has evidence for, its global phrase ID
// and R per-feature co-occurrence counts (|docs(qi) ∩ docs(p)| within the
// shard). IDs must be strictly ascending; Counts is row-major with R
// counts per ID. All-zero rows are allowed and contribute nothing.
type PartialList struct {
	// IDs are the candidate phrase IDs, strictly ascending.
	IDs []phrasedict.PhraseID
	// Counts holds len(IDs)*R per-feature counts, row-major.
	Counts []uint32
}

// MergeOptions configures MergePartials.
type MergeOptions struct {
	// K is the number of results to return.
	K int
	// Op selects AND or OR scoring (Eqs. 8 and 12), exactly as in SMJ.
	Op corpus.Operator
	// R is the number of query features (counts per PartialList row).
	R int
	// DF maps global phrase ID to |docs(D, p)|, the probability
	// denominator. Phrases with DF zero are skipped (they cannot be scored),
	// mirroring the baselines' guard.
	DF []uint32
}

// Validate reports configuration errors.
func (o MergeOptions) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("topk: K must be positive, got %d", o.K)
	}
	if o.Op != corpus.OpAND && o.Op != corpus.OpOR {
		return fmt.Errorf("topk: invalid operator %d", o.Op)
	}
	if o.R < 1 || o.R > 64 {
		return fmt.Errorf("topk: R must be in [1,64], got %d", o.R)
	}
	return nil
}

// rankWorse reports whether a ranks below b in the final ordering: lower
// score, or equal score with larger phrase ID. It mirrors SMJ's selection
// comparator exactly so merged shard results tie-break identically to the
// monolithic sort-merge join.
func rankWorse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// offerScored pushes sc into the size-k min-heap over rankWorse, returning
// the (possibly grown) heap slice. The heap logic mirrors SMJ's bounded
// selection so the retained set — and therefore every tie decision — is
// identical.
func offerScored(top []scored, k int, sc scored) []scored {
	if len(top) < k {
		top = append(top, sc)
		for i := len(top) - 1; i > 0; {
			parent := (i - 1) / 2
			if !rankWorse(top[i], top[parent]) {
				break
			}
			top[i], top[parent] = top[parent], top[i]
			i = parent
		}
		return top
	}
	if rankWorse(sc, top[0]) {
		return top
	}
	top[0] = sc
	i := 0
	for {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < len(top) && rankWorse(top[l], top[smallest]) {
			smallest = l
		}
		if r < len(top) && rankWorse(top[r], top[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		top[i], top[smallest] = top[smallest], top[i]
		i = smallest
	}
}

// SortResultsByRank sorts results into the canonical selection order —
// score descending, phrase ID ascending — the exact comparator the SMJ
// selection heap and the partial merger use. Exported so callers that
// re-rank partial top-k sets (the sharded engine's range-parallel gather)
// cannot drift from the merger's tie decisions.
func SortResultsByRank(results []Result) {
	slices.SortFunc(results, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Phrase < b.Phrase:
			return -1
		case a.Phrase > b.Phrase:
			return 1
		default:
			return 0
		}
	})
}

// MergePartials merges per-shard partial results into the global top-k.
// See MergePartialsScratch; this entry point draws a pooled scratch arena.
func MergePartials(parts []PartialList, opt MergeOptions) ([]Result, error) {
	s := defaultScratchPool.Get()
	defer defaultScratchPool.Put(s)
	return MergePartialsScratch(parts, opt, s)
}

// MergePartialsScratch merges the shards' partial lists through a pooled
// loser-tree merger keyed by (phrase ID, shard index): equal phrase IDs
// arrive adjacently, their count rows sum (exact integer addition), the
// global probability of feature i is float64(sum)/float64(DF[id]) — the
// identical division the monolithic list builder performs — and the score
// accumulates over features in ascending order, the same summation order
// as the sort-merge join. Selection uses SMJ's exact comparator and heap,
// so the output is bit-identical to the monolithic SMJ answer over the
// same logical corpus. Results carry Score=Lower=Upper like SMJ's.
//
// The scratch arena must not be shared with a concurrently executing query.
func MergePartialsScratch(parts []PartialList, opt MergeOptions, s *Scratch) ([]Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	for pi := range parts {
		if len(parts[pi].Counts) != len(parts[pi].IDs)*opt.R {
			return nil, fmt.Errorf("topk: partial list %d has %d counts for %d IDs at R=%d",
				pi, len(parts[pi].Counts), len(parts[pi].IDs), opt.R)
		}
	}
	m := s.pm.reset(parts)
	sums := s.countSums(opt.R)
	top := s.top[:0]

	var (
		cur    phrasedict.PhraseID
		active bool
	)
	flush := func() error {
		if !active {
			return nil
		}
		score := 0.0
		present := 0
		if int(cur) >= len(opt.DF) {
			return fmt.Errorf("topk: phrase %d beyond DF table of %d entries", cur, len(opt.DF))
		}
		df := float64(opt.DF[cur])
		for i := 0; i < opt.R; i++ {
			n := sums[i]
			sums[i] = 0
			if n == 0 || df == 0 {
				continue
			}
			present++
			score += entryScore(opt.Op, float64(n)/df)
		}
		if present == 0 {
			return nil // no evidence (or DF zero): not a candidate
		}
		if opt.Op == corpus.OpAND && present != opt.R {
			return nil // missing from some list: P(qi|p) = 0 zeroes Eq. 7
		}
		top = offerScored(top, opt.K, scored{id: cur, score: score})
		return nil
	}
	for {
		id, part, pos, ok := m.next()
		if !ok {
			break
		}
		if !active || id != cur {
			if err := flush(); err != nil {
				return nil, err
			}
			cur, active = id, true
		}
		row := parts[part].Counts[int(pos)*opt.R : (int(pos)+1)*opt.R]
		for i, c := range row {
			sums[i] += c
		}
	}
	if err := m.error(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	s.top = top // retain the (possibly grown) buffer for reuse

	slices.SortFunc(top, func(a, b scored) int {
		switch {
		case rankWorse(b, a):
			return -1
		case rankWorse(a, b):
			return 1
		default:
			return 0
		}
	})
	out := make([]Result, len(top))
	for i, sc := range top {
		out[i] = Result{Phrase: sc.id, Score: sc.score, Lower: sc.score, Upper: sc.score}
	}
	return out, nil
}

// pmHead is one shard's current unconsumed element in the partial merger.
type pmHead struct {
	id phrasedict.PhraseID
	ok bool
}

// partialMerger is a loser-tree k-way merger over PartialLists keyed by
// (phrase ID, shard index) — the sharded gather's deterministic merge
// order. It lives in the Scratch arena so steady-state gathers reuse its
// tree and head storage.
type partialMerger struct {
	parts []PartialList
	heads []pmHead
	pos   []int32 // index into parts[i].IDs of heads[i]
	tree  []int
	n     int
	err   error
}

// reset re-seats the merger over a new shard set, reusing its storage.
func (m *partialMerger) reset(parts []PartialList) *partialMerger {
	n := len(parts)
	m.parts = parts
	if cap(m.heads) < n {
		m.heads = make([]pmHead, n)
		m.pos = make([]int32, n)
		m.tree = make([]int, n)
	} else {
		m.heads = m.heads[:n]
		m.pos = m.pos[:n]
		m.tree = m.tree[:n]
	}
	m.n = n
	m.err = nil
	for i := range parts {
		m.pos[i] = -1
		m.pull(i)
	}
	for i := range m.tree {
		m.tree[i] = -1
	}
	for i := 0; i < n; i++ {
		m.replay(i)
	}
	return m
}

// release drops shard references so a pooled merger cannot retain caller
// data across queries.
func (m *partialMerger) release() {
	m.parts = nil
	m.n = 0
	m.heads = m.heads[:0]
	m.pos = m.pos[:0]
	m.tree = m.tree[:0]
	m.err = nil
}

// pull advances shard i to its next element, enforcing strictly ascending
// IDs within the shard.
func (m *partialMerger) pull(i int) {
	next := m.pos[i] + 1
	ids := m.parts[i].IDs
	if int(next) >= len(ids) {
		m.heads[i] = pmHead{ok: false}
		m.pos[i] = next
		return
	}
	id := ids[next]
	if next > 0 && id <= ids[next-1] {
		if m.err == nil {
			m.err = fmt.Errorf("topk: partial list %d not strictly ascending at index %d (%d after %d)",
				i, next, id, ids[next-1])
		}
		m.heads[i] = pmHead{ok: false}
		return
	}
	m.heads[i] = pmHead{id: id, ok: true}
	m.pos[i] = next
}

// less orders live heads by (phrase ID, shard index); exhausted heads sort
// last.
func (m *partialMerger) less(a, b int) bool {
	ha, hb := m.heads[a], m.heads[b]
	switch {
	case !ha.ok:
		return false
	case !hb.ok:
		return true
	case ha.id != hb.id:
		return ha.id < hb.id
	default:
		return a < b
	}
}

// replay pushes leaf i up the tree, recording losers, until it either loses
// or becomes the winner at the root.
func (m *partialMerger) replay(i int) {
	winner := i
	node := (i + m.n) / 2
	for node > 0 {
		if m.tree[node] == -1 {
			m.tree[node] = winner
			return
		}
		if m.less(m.tree[node], winner) {
			m.tree[node], winner = winner, m.tree[node]
		}
		node /= 2
	}
	m.tree[0] = winner
}

// next returns the globally smallest unconsumed (id, shard, row) triple;
// ok is false when all shards are exhausted.
func (m *partialMerger) next() (id phrasedict.PhraseID, part int, pos int32, ok bool) {
	if m.n == 0 {
		return 0, 0, 0, false
	}
	w := m.tree[0]
	if w < 0 || !m.heads[w].ok {
		return 0, 0, 0, false
	}
	id = m.heads[w].id
	pos = m.pos[w]
	m.pull(w)
	winner := w
	node := (w + m.n) / 2
	for node > 0 {
		if m.less(m.tree[node], winner) {
			m.tree[node], winner = winner, m.tree[node]
		}
		node /= 2
	}
	m.tree[0] = winner
	return id, w, pos, true
}

// error reports the first structural violation encountered, if any.
func (m *partialMerger) error() error { return m.err }

// ScanGroupsCtx merges phrase-ID-ordered list cursors (one per query
// feature) with the pooled loser tree and invokes emit once per distinct
// phrase ID, passing the per-list probabilities (probs[i] is valid iff bit
// i of seen is set) in a reused buffer the callback must not retain. It is
// the scatter half of the sharded engine: a segment scans its own
// ID-ordered lists and converts each group's probabilities back to integer
// counts.
//
// Cancellation is cooperative: the merge loop tests ctx (nil never
// cancels) once per cancelCheckInterval consumed entries and returns
// ctx.Err() instead of exhausting the lists. A canceled scan never emits a
// torn group — the check runs on group boundaries' raw entry stream, and
// callers must discard the whole partial stream on error.
func ScanGroupsCtx(ctx context.Context, cursors []plist.Cursor, s *Scratch, emit func(id phrasedict.PhraseID, probs []float64, seen uint64)) error {
	r := len(cursors)
	if r == 0 {
		return fmt.Errorf("topk: no lists given")
	}
	if r > 64 {
		return fmt.Errorf("topk: %d lists exceed the supported maximum of 64", r)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	m := s.lt.reset(cursors)
	probs := s.groupProbs(r)
	var (
		cur    phrasedict.PhraseID
		seen   uint64
		active bool
	)
	checkIn := cancelCheckInterval
	for {
		e, li, ok := m.next()
		if !ok {
			break
		}
		if checkIn--; checkIn == 0 {
			checkIn = cancelCheckInterval
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if !active || e.Phrase != cur {
			if active {
				emit(cur, probs, seen)
			}
			cur, seen, active = e.Phrase, 0, true
		}
		probs[li] = e.Prob
		seen |= 1 << li
	}
	if err := m.err(); err != nil {
		return err
	}
	if active {
		emit(cur, probs, seen)
	}
	return nil
}
