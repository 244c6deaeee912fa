package corpus

import "container/heap"

// This file implements sorted document-set algebra over []DocID posting
// lists: pairwise and k-way intersection and union, intersection
// cardinality, and a bitmap set for O(1) membership probes. All list inputs
// and outputs are strictly increasing DocID slices.

// Intersect2Into appends the intersection of two sorted lists to dst and
// returns the extended slice, allocating only when dst lacks capacity. dst
// must not alias a or b. When the lists have very different lengths it
// gallops through the longer one. Appending into caller buffers is what
// lets multi-level set algebra run without per-level garbage.
func Intersect2Into(dst, a, b []DocID) []DocID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	// Galloping pays off when b is much longer than a.
	if len(b) >= len(a)*8 {
		return intersectGallopInto(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// intersectGallopInto intersects short list a against long list b using
// exponential search, appending matches to dst.
func intersectGallopInto(dst, a, b []DocID) []DocID {
	out := dst
	lo := 0
	for _, x := range a {
		// Exponential probe from lo for the first b[idx] >= x.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step *= 2
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-1, hi].
		l, r := lo, hi
		for l < r {
			m := (l + r) / 2
			if b[m] < x {
				l = m + 1
			} else {
				r = m
			}
		}
		lo = l
		if lo < len(b) && b[lo] == x {
			out = append(out, x)
			lo++
		}
		if lo >= len(b) {
			break
		}
	}
	return out
}

// IntersectCount2 reports |a ∩ b| without materializing the intersection.
func IntersectCount2(a, b []DocID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IntersectInto appends the k-way intersection of sorted lists to dst
// (which must not alias any input); zero lists intersect to nothing. Lists
// are intersected smallest-first so intermediate results shrink fast, and
// intermediate levels ping-pong between dst and one spare buffer instead
// of allocating per level.
func IntersectInto(dst []DocID, lists ...[]DocID) []DocID {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	case 2:
		return Intersect2Into(dst, lists[0], lists[1])
	}
	ordered := append([][]DocID(nil), lists...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && len(ordered[j]) < len(ordered[j-1]); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	// Reduce through two scratch buffers; the final level lands in dst.
	acc := Intersect2Into(make([]DocID, 0, len(ordered[0])), ordered[0], ordered[1])
	spare := make([]DocID, 0, len(acc))
	for li, l := range ordered[2:] {
		if len(acc) == 0 {
			return dst
		}
		if li == len(ordered)-3 { // final level
			return Intersect2Into(dst, acc, l)
		}
		spare = Intersect2Into(spare[:0], acc, l)
		acc, spare = spare, acc
	}
	return append(dst, acc...) // unreachable for >= 3 lists; kept for totality
}

// Union2Into appends the union of two sorted lists to dst and returns the
// extended slice, allocating only when dst lacks capacity. dst must not
// alias a or b.
func Union2Into(dst, a, b []DocID) []DocID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// listHeap is a min-heap of cursors over sorted lists, keyed by the current
// head DocID, used by the k-way union.
type listHeap struct {
	lists [][]DocID
	pos   []int
}

func (h *listHeap) Len() int { return len(h.lists) }
func (h *listHeap) Less(i, j int) bool {
	return h.lists[i][h.pos[i]] < h.lists[j][h.pos[j]]
}
func (h *listHeap) Swap(i, j int) {
	h.lists[i], h.lists[j] = h.lists[j], h.lists[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}
func (h *listHeap) Push(x any) {
	panic("listHeap: push not supported")
}
func (h *listHeap) Pop() any {
	n := len(h.lists) - 1
	h.lists = h.lists[:n]
	h.pos = h.pos[:n]
	return nil
}

// UnionInto appends the k-way union of sorted lists, merged through a
// heap, to dst (which must not alias any input and must not already end
// above the smallest merged DocID).
func UnionInto(dst []DocID, lists ...[]DocID) []DocID {
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	case 2:
		return Union2Into(dst, lists[0], lists[1])
	}
	h := &listHeap{}
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			h.lists = append(h.lists, l)
			h.pos = append(h.pos, 0)
			total += len(l)
		}
	}
	heap.Init(h)
	out := dst
	if need := len(out) + total; cap(out) < need {
		grown := make([]DocID, len(out), need)
		copy(grown, out)
		out = grown
	}
	base := len(out)
	for h.Len() > 0 {
		top := h.lists[0][h.pos[0]]
		if n := len(out); n == base || out[n-1] != top {
			out = append(out, top)
		}
		h.pos[0]++
		if h.pos[0] == len(h.lists[0]) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return out
}

// Bitmap is a fixed-universe bitset over DocIDs for O(1) membership probes.
type Bitmap struct {
	words []uint64
	count int
}

// NewBitmap creates a bitmap for DocIDs in [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64)}
}

// BitmapFromList builds a bitmap over [0, n) with the listed IDs set.
func BitmapFromList(list []DocID, n int) *Bitmap {
	b := NewBitmap(n)
	for _, id := range list {
		b.Set(id)
	}
	return b
}

// Set adds id to the set. Setting an already-set bit is a no-op.
func (b *Bitmap) Set(id DocID) {
	w, bit := id/64, uint64(1)<<(id%64)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.count++
	}
}

// Clear removes id from the set.
func (b *Bitmap) Clear(id DocID) {
	w, bit := id/64, uint64(1)<<(id%64)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		b.count--
	}
}

// Has reports membership. IDs outside the universe report false.
func (b *Bitmap) Has(id DocID) bool {
	w := int(id / 64)
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(uint64(1)<<(id%64)) != 0
}

// Count reports the number of set bits.
func (b *Bitmap) Count() int {
	return b.count
}

// IntersectCountList reports how many IDs of the sorted list are set in b.
func (b *Bitmap) IntersectCountList(list []DocID) int {
	n := 0
	for _, id := range list {
		if b.Has(id) {
			n++
		}
	}
	return n
}
