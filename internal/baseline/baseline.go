// Package baseline implements the comparison systems the paper's figures
// run (Section 2, Table 3), built from scratch:
//
//   - GM: the document-forward-index approach of Gao & Michel (EDBT 2012),
//     the paper's primary baseline. It is exact: given D' it merge-counts
//     phrase frequencies over the forward lists of every document in D'
//     and scores with the interestingness measure of Eq. 1. Its cost is
//     linear in |D'|, which is precisely the behaviour the paper's
//     experiments exhibit (OR queries are much slower than AND).
//
//   - Exact: a direct evaluator of Eq. 1 over phrase postings, used as
//     ground truth by the quality harness and to cross-check GM.
package baseline

import (
	"fmt"
	"sort"

	"phrasemine/internal/phrasedict"
)

// Scored is one ranked result: a phrase with its exact interestingness
// ID(p, D') = freq(p, D')/freq(p, D) and the sub-collection frequency.
type Scored struct {
	Phrase phrasedict.PhraseID
	Score  float64
	Freq   int
}

// rankLess orders results by score descending, phrase ID ascending — the
// deterministic ranking used across all implementations in this repository.
func rankLess(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Phrase < b.Phrase
}

// topKHeap selects the top k results under rankLess using a bounded
// min-heap; the returned slice is sorted best-first.
type topKHeap struct {
	k     int
	items []Scored
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k, items: make([]Scored, 0, k)}
}

// worst reports whether a ranks below b (the heap is a min-heap over rank).
func (h *topKHeap) worst(a, b Scored) bool { return rankLess(b, a) }

func (h *topKHeap) offer(s Scored) {
	if len(h.items) < h.k {
		h.items = append(h.items, s)
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.worst(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if h.worst(s, h.items[0]) || s == h.items[0] {
		return
	}
	h.items[0] = s
	i := 0
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h.items) && h.worst(h.items[l], h.items[min]) {
			min = l
		}
		if r < len(h.items) && h.worst(h.items[r], h.items[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// sorted extracts the selected results best-first.
func (h *topKHeap) sorted() []Scored {
	out := append([]Scored(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return rankLess(out[i], out[j]) })
	return out
}

func validateQueryK(k int) error {
	if k <= 0 {
		return fmt.Errorf("baseline: k must be positive, got %d", k)
	}
	return nil
}
