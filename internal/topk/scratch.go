package topk

import (
	"sync"

	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
)

// Scratch is the reusable per-query arena behind the allocation-free query
// hot path. One Scratch serves exactly one query at a time: NRA's flat
// candidate tables, SMJ's selection heap and k-way merger state, and the
// cursor slices the core layer hands to either algorithm all live here and
// are recycled across queries instead of being reallocated.
//
// Candidate state is indexed directly by dense phrasedict.PhraseID and
// invalidated by generation stamping: a slot belongs to the current query
// iff stamp[id] == gen, so "clearing" the tables between queries is a
// single counter increment, not an O(|P|) wipe. The arrays grow on demand
// to the largest phrase ID ever observed and keep their capacity while
// pooled.
//
// A Scratch is NOT safe for concurrent use; obtain one per query from a
// ScratchPool (or rely on the package-level pool used by NRA and SMJ).
// Pooled state never crosses queries: the generation stamp invalidates
// candidate slots, per-list buffers are re-length'd per run, and Put clears
// cursor references so a pooled Scratch cannot retain caller data.
type Scratch struct {
	// gen is the current query's generation stamp. 0 is never a live
	// generation (admit always stamps with gen >= 1), so stamping a slot
	// 0 is an unconditional invalidation (used by candidate pruning).
	gen uint32

	// Per-phrase candidate tables, indexed by PhraseID.
	stamp   []uint32  // slot live iff stamp[id] == gen
	lower   []float64 // sum of scores seen so far (the lower bound)
	seen    []uint64  // bitmask of lists the phrase was seen on
	heapPos []int32   // position in kheap, -1 when absent

	// ids is the dense set of live candidates, in admission order.
	ids []phrasedict.PhraseID
	// kheap is a size-<=k min-heap of candidate IDs ordered by lower[id]:
	// the incremental maintenance of the k-th best lower bound.
	kheap []phrasedict.PhraseID

	// Per-list buffers (length r per run).
	bound     []float64
	lastSeen  []float64
	exhausted []bool
	maxRead   []int

	// ranked is the final-ranking buffer (sorted by upper bound).
	ranked []rankedCand

	// Cursor reuse for core-layer callers.
	cursors []plist.Cursor
	mem     []plist.MemCursor
	blk     []plist.BlockCursor

	// SMJ reuse: bounded selection heap and the k-way merger.
	top []scored
	lt  loserTree

	// Sharded scatter-gather reuse: the partial-result loser tree plus the
	// per-feature count and probability buffers of MergePartials/ScanGroupsCtx.
	pm    partialMerger
	sums  []uint32
	probs []float64
}

// rankedCand is one candidate in NRA's final upper-bound ranking.
type rankedCand struct {
	id    phrasedict.PhraseID
	lower float64
	upper float64
}

// scored is one (phrase, score) accumulation of SMJ's bounded selection.
type scored struct {
	id    phrasedict.PhraseID
	score float64
}

// NewScratch returns a scratch arena with candidate tables pre-sized for
// phrase IDs in [0, sizeHint). The tables still grow on demand, so the hint
// is a steady-state optimization, not a bound.
func NewScratch(sizeHint int) *Scratch {
	s := &Scratch{}
	if sizeHint > 0 {
		s.growTables(sizeHint)
	}
	return s
}

// beginQuery starts a new query generation and re-lengths the per-list
// buffers for r lists.
func (s *Scratch) beginQuery(r int) {
	s.gen++
	if s.gen == 0 {
		// Generation counter wrapped: stamps from 2^32 queries ago could
		// collide, so wipe them once and restart at 1.
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	s.ids = s.ids[:0]
	s.kheap = s.kheap[:0]
	s.bound = growFloats(s.bound, r)
	s.lastSeen = growFloats(s.lastSeen, r)
	s.maxRead = growInts(s.maxRead, r)
	if cap(s.exhausted) < r {
		s.exhausted = make([]bool, r)
	} else {
		s.exhausted = s.exhausted[:r]
		for i := range s.exhausted {
			s.exhausted[i] = false
		}
	}
}

// growTables extends the per-phrase tables to cover IDs in [0, n).
func (s *Scratch) growTables(n int) {
	if n <= len(s.stamp) {
		return
	}
	if c := 2 * len(s.stamp); n < c {
		n = c
	}
	stamp := make([]uint32, n)
	copy(stamp, s.stamp)
	s.stamp = stamp
	lower := make([]float64, n)
	copy(lower, s.lower)
	s.lower = lower
	seen := make([]uint64, n)
	copy(seen, s.seen)
	s.seen = seen
	heapPos := make([]int32, n)
	copy(heapPos, s.heapPos)
	s.heapPos = heapPos
}

// live reports whether id is a candidate of the current query.
func (s *Scratch) live(id phrasedict.PhraseID) bool {
	return int(id) < len(s.stamp) && s.stamp[id] == s.gen
}

// admit registers a new candidate first seen on list bit with score.
func (s *Scratch) admit(id phrasedict.PhraseID, score float64, bit uint64) {
	if int(id) >= len(s.stamp) {
		s.growTables(int(id) + 1)
	}
	s.stamp[id] = s.gen
	s.lower[id] = score
	s.seen[id] = bit
	s.heapPos[id] = -1
	s.ids = append(s.ids, id)
}

// drop invalidates a pruned candidate's slot; a later encounter on another
// list re-admits it as a brand-new candidate (the reference semantics of
// deleting from the candidate map).
func (s *Scratch) drop(id phrasedict.PhraseID) {
	s.stamp[id] = 0
}

// kthOffer maintains the k-th-lower-bound min-heap after id's lower bound
// became (or increased to) a finite value. Lower bounds only ever increase
// within a query, so the heap's membership invariant — it holds the k
// candidates with the largest lower bounds — is preserved by sifting
// members down on growth and swapping non-members in when they exceed the
// minimum.
func (s *Scratch) kthOffer(id phrasedict.PhraseID, k int) {
	if pos := s.heapPos[id]; pos >= 0 {
		s.kthDown(int(pos))
		return
	}
	if len(s.kheap) < k {
		s.kheap = append(s.kheap, id)
		s.heapPos[id] = int32(len(s.kheap) - 1)
		s.kthUp(len(s.kheap) - 1)
		return
	}
	if s.lower[id] > s.lower[s.kheap[0]] {
		evicted := s.kheap[0]
		s.heapPos[evicted] = -1
		s.kheap[0] = id
		s.heapPos[id] = 0
		s.kthDown(0)
	}
}

func (s *Scratch) kthUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.lower[s.kheap[parent]] <= s.lower[s.kheap[i]] {
			break
		}
		s.kheapSwap(parent, i)
		i = parent
	}
}

func (s *Scratch) kthDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s.kheap) && s.lower[s.kheap[l]] < s.lower[s.kheap[smallest]] {
			smallest = l
		}
		if r < len(s.kheap) && s.lower[s.kheap[r]] < s.lower[s.kheap[smallest]] {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.kheapSwap(smallest, i)
		i = smallest
	}
}

func (s *Scratch) kheapSwap(i, j int) {
	s.kheap[i], s.kheap[j] = s.kheap[j], s.kheap[i]
	s.heapPos[s.kheap[i]] = int32(i)
	s.heapPos[s.kheap[j]] = int32(j)
}

// Cursors returns a reusable cursor slice of length n. Slots are zeroed so
// stale cursors from a previous query can never leak into this one.
func (s *Scratch) Cursors(n int) []plist.Cursor {
	if cap(s.cursors) < n {
		s.cursors = make([]plist.Cursor, n)
	} else {
		s.cursors = s.cursors[:n]
		for i := range s.cursors {
			s.cursors[i] = nil
		}
	}
	return s.cursors
}

// MemCursors returns a reusable cursor slice of length n together with n
// reusable memory cursors. Callers Reset each memory cursor onto its list
// and place &mem[i] into the cursor slice — the steady-state replacement
// for per-query plist.NewMemCursor allocations.
func (s *Scratch) MemCursors(n int) ([]plist.Cursor, []plist.MemCursor) {
	cursors := s.Cursors(n)
	if cap(s.mem) < n {
		s.mem = make([]plist.MemCursor, n)
	} else {
		s.mem = s.mem[:n]
	}
	return cursors, s.mem
}

// BlockCursors returns a reusable cursor slice of length n together with n
// reusable block cursors (each retaining its per-block decode buffer, so
// steady-state queries over compressed lists decode without allocating).
// Callers Reset each block cursor onto its BlockList and place &blk[i]
// into the cursor slice — the compressed-path analogue of MemCursors.
func (s *Scratch) BlockCursors(n int) ([]plist.Cursor, []plist.BlockCursor) {
	cursors := s.Cursors(n)
	if cap(s.blk) < n {
		blk := make([]plist.BlockCursor, n)
		// Keep previously grown decode buffers alive across growth.
		copy(blk, s.blk)
		s.blk = blk
	} else {
		s.blk = s.blk[:n]
	}
	return cursors, s.blk
}

// release drops references a pooled Scratch must not retain across queries
// (cursors point into caller-owned lists). Numeric tables keep their
// capacity — that is the point of pooling.
func (s *Scratch) release() {
	for i := range s.cursors {
		s.cursors[i] = nil
	}
	for i := range s.mem {
		s.mem[i].Reset(nil)
	}
	for i := range s.blk {
		// Drop references into caller-owned (possibly mapped) regions.
		s.blk[i].Reset(plist.BlockList{})
	}
	s.lt.release()
	s.pm.release()
}

// countSums returns a zeroed reusable uint32 buffer of length r for the
// partial merge's per-feature count accumulation.
func (s *Scratch) countSums(r int) []uint32 {
	if cap(s.sums) < r {
		s.sums = make([]uint32, r)
	} else {
		s.sums = s.sums[:r]
		for i := range s.sums {
			s.sums[i] = 0
		}
	}
	return s.sums
}

// groupProbs returns a reusable float64 buffer of length r for ScanGroupsCtx'
// per-list probabilities (validity is tracked by the seen bitmask, so the
// buffer is not zeroed).
func (s *Scratch) groupProbs(r int) []float64 {
	if cap(s.probs) < r {
		s.probs = make([]float64, r)
	} else {
		s.probs = s.probs[:r]
	}
	return s.probs
}

// ScratchPool hands out Scratch arenas for concurrent queries. It wraps a
// sync.Pool, so steady-state serving reuses a small number of arenas (one
// per concurrently executing query) with no per-query table allocations.
type ScratchPool struct {
	pool     sync.Pool
	sizeHint int
}

// NewScratchPool creates a pool whose arenas are pre-sized for phrase IDs
// in [0, sizeHint) — callers that know the phrase-dictionary cardinality
// (core.Index) pass it so the first query on a fresh arena does not pay
// growth reallocations.
func NewScratchPool(sizeHint int) *ScratchPool {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &ScratchPool{sizeHint: sizeHint}
}

// Get returns an arena for exclusive use by one query.
func (p *ScratchPool) Get() *Scratch {
	if s, ok := p.pool.Get().(*Scratch); ok {
		return s
	}
	return NewScratch(p.sizeHint)
}

// Put returns an arena to the pool after clearing caller references.
func (p *ScratchPool) Put(s *Scratch) {
	if s == nil {
		return
	}
	s.release()
	p.pool.Put(s)
}

// defaultScratchPool backs the scratch-less NRA and MergePartials entry
// points, so direct callers get pooling without wiring one.
var defaultScratchPool = NewScratchPool(0)

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
