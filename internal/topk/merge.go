package topk

import (
	"phrasemine/internal/plist"
)

// mergeSource is one input of a k-way merge: a peeked head entry plus its
// originating list index.
type mergeSource struct {
	head plist.Entry
	list int
	ok   bool
}

// loserTree is a tournament tree k-way merger: it yields (entry, listIndex)
// pairs in non-decreasing phrase-ID order across all input cursors, ties
// broken by list index for determinism — O(log r) comparisons per pop with
// good constants for the small r of keyword queries.
type loserTree struct {
	cursors []plist.Cursor
	heads   []mergeSource
	// tree[i] holds the loser of the match at internal node i; tree[0]
	// holds the overall winner's index into heads.
	tree    []int
	n       int
	readErr error
}

// reset seats the tree over a cursor set and builds the tournament over
// the cursors' first entries, reusing its internal slices — the
// pooled-scratch entry point.
func (t *loserTree) reset(cursors []plist.Cursor) *loserTree {
	n := len(cursors)
	t.cursors = cursors
	if cap(t.heads) < n {
		t.heads = make([]mergeSource, n)
	} else {
		t.heads = t.heads[:n]
	}
	if cap(t.tree) < n {
		t.tree = make([]int, n)
	} else {
		t.tree = t.tree[:n]
	}
	t.n = n
	t.readErr = nil
	for i := range cursors {
		t.heads[i] = t.pull(i)
	}
	// Initialize by replaying every leaf through the tree.
	for i := range t.tree {
		t.tree[i] = -1
	}
	for i := 0; i < n; i++ {
		t.replay(i)
	}
	return t
}

// release drops cursor references so a pooled tree cannot retain caller
// data across queries.
func (t *loserTree) release() {
	t.cursors = nil
	t.n = 0
	t.heads = t.heads[:0]
	t.tree = t.tree[:0]
	t.readErr = nil
}

// pull advances cursor i and packages its next entry.
func (t *loserTree) pull(i int) mergeSource {
	e, ok := t.cursors[i].Next()
	if !ok {
		if err := t.cursors[i].Err(); err != nil && t.readErr == nil {
			t.readErr = err
		}
		return mergeSource{list: i, ok: false}
	}
	return mergeSource{head: e, list: i, ok: ok}
}

// less orders live sources by (phraseID, list); exhausted sources sort last.
func (t *loserTree) less(a, b int) bool {
	ha, hb := t.heads[a], t.heads[b]
	switch {
	case !ha.ok:
		return false
	case !hb.ok:
		return true
	case ha.head.Phrase != hb.head.Phrase:
		return ha.head.Phrase < hb.head.Phrase
	default:
		return a < b
	}
}

// replay pushes leaf i up the tree, recording losers, until it either loses
// or becomes the winner at the root.
func (t *loserTree) replay(i int) {
	winner := i
	node := (i + t.n) / 2
	for node > 0 {
		if t.tree[node] == -1 {
			t.tree[node] = winner
			return
		}
		if t.less(t.tree[node], winner) {
			t.tree[node], winner = winner, t.tree[node]
		}
		node /= 2
	}
	t.tree[0] = winner
}

// next returns the globally smallest unconsumed entry and the list it came
// from; ok is false when all inputs are exhausted.
func (t *loserTree) next() (plist.Entry, int, bool) {
	w := t.tree[0]
	if w < 0 || !t.heads[w].ok {
		return plist.Entry{}, 0, false
	}
	e := t.heads[w].head
	t.heads[w] = t.pull(w)
	// Replay the winner's path from its leaf.
	winner := w
	node := (w + t.n) / 2
	for node > 0 {
		if t.less(t.tree[node], winner) {
			t.tree[node], winner = winner, t.tree[node]
		}
		node /= 2
	}
	t.tree[0] = winner
	return e, w, true
}

// err reports the first cursor error, if any.
func (t *loserTree) err() error { return t.readErr }
