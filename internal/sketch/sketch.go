// Package sketch provides the count-min sketch behind the live-tail
// serving layer: a fixed-size array of counters that answers "how often
// was this key added?" with a one-sided error — estimates never
// undercount, and overcount by at most an additive term proportional to
// the total stream weight divided by the sketch width. The conservative
// update variant tightens the overcount in practice without weakening
// either guarantee, and Rotating slices a sketch into fixed time periods
// so windowed counts ("the last hour") can be served from a ring of
// period sketches.
//
// Hashing is deterministic (fixed seeds): the same key stream produces
// the same sketch on every run, which the difftest equivalence harness
// relies on.
package sketch

import (
	"fmt"
	"math"
)

// CountMin is a count-min sketch: depth rows of width counters, each row
// observing every key through an independent hash. Estimate returns the
// minimum counter across rows, so it never undercounts; with the classic
// parameters the overcount exceeds ErrorBound with probability at most
// exp(-depth).
//
// CountMin is not safe for concurrent mutation; the live tail guards it
// with the miner's write lock.
type CountMin struct {
	width, depth int
	// rows holds depth*width counters, row-major.
	rows []uint64
	// total is the summed weight of every Add — the N of the ε·N error
	// bound.
	total uint64
	// conservative selects conservative update: each Add raises only the
	// counters that would otherwise fall below the new lower bound,
	// shrinking collisions' contributions without breaking the
	// never-undercount guarantee.
	conservative bool
}

// NewConservative creates a conservative-update count-min sketch: the
// never-undercount and ε·N guarantees of the plain sketch, with tighter
// estimates under skewed streams.
func NewConservative(width, depth int) (*CountMin, error) {
	return newSketch(width, depth, true)
}

func newSketch(width, depth int, conservative bool) (*CountMin, error) {
	if width < 1 {
		return nil, fmt.Errorf("sketch: width must be positive, got %d", width)
	}
	if depth < 1 {
		return nil, fmt.Errorf("sketch: depth must be positive, got %d", depth)
	}
	return &CountMin{
		width:        width,
		depth:        depth,
		rows:         make([]uint64, width*depth),
		conservative: conservative,
	}, nil
}

// Width reports the per-row counter count.
func (s *CountMin) Width() int { return s.width }

// Total reports the summed weight of every Add since the last Reset.
func (s *CountMin) Total() uint64 { return s.total }

// Bytes reports the sketch's counter-array footprint.
func (s *CountMin) Bytes() int64 { return int64(len(s.rows)) * 8 }

// Add records n occurrences of the key.
func (s *CountMin) Add(key string, n uint64) {
	s.AddHash(HashKey(key), n)
}

// AddHash is Add for a pre-hashed key (see HashKey and PairHash) — the
// live tail hashes each feature and phrase once per document and derives
// every pair's hash by mixing, instead of re-hashing the concatenated
// pair string per sketch row.
func (s *CountMin) AddHash(h uint64, n uint64) {
	if n == 0 {
		return
	}
	s.total += n
	if !s.conservative {
		for d := 0; d < s.depth; d++ {
			s.rows[s.slot(h, d)] += n
		}
		return
	}
	// Conservative update: the key's true count is at most
	// min(counters)+n, so no counter needs to exceed that.
	est := s.estimateHash(h)
	target := est + n
	for d := 0; d < s.depth; d++ {
		if i := s.slot(h, d); s.rows[i] < target {
			s.rows[i] = target
		}
	}
}

// Estimate returns an upper bound on the key's added weight: never below
// the true count, above it by more than ErrorBound with probability at
// most exp(-depth).
func (s *CountMin) Estimate(key string) uint64 {
	return s.estimateHash(HashKey(key))
}

// EstimateHash is Estimate for a pre-hashed key.
func (s *CountMin) EstimateHash(h uint64) uint64 {
	return s.estimateHash(h)
}

func (s *CountMin) estimateHash(h uint64) uint64 {
	min := s.rows[s.slot(h, 0)]
	for d := 1; d < s.depth; d++ {
		if c := s.rows[s.slot(h, d)]; c < min {
			min = c
		}
	}
	return min
}

// ErrorBound is the additive overcount bound ε·N with ε = e/width and N
// the total added weight: Estimate exceeds the true count by more than
// this with probability at most exp(-depth). Grows with the stream, so
// callers compacting the tail reset the sketch to re-tighten it.
func (s *CountMin) ErrorBound() uint64 {
	return uint64(math.Ceil(math.E * float64(s.total) / float64(s.width)))
}

// Reset zeroes every counter and the total.
func (s *CountMin) Reset() {
	clear(s.rows)
	s.total = 0
}

// slot maps a key hash to row d's counter index. Kirsch-Mitzenmacher:
// d pairwise-independent positions from two halves of one 64-bit hash.
func (s *CountMin) slot(h uint64, d int) int {
	h1 := uint32(h)
	h2 := uint32(h>>32) | 1 // odd, so successive rows never collapse
	return d*s.width + int((h1+uint32(d)*h2)%uint32(s.width))
}

// HashKey hashes a key for AddHash/EstimateHash: FNV-1a 64 finished with
// an avalanche mix so both 32-bit halves are usable as independent hashes.
func HashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// PairHash combines two key hashes into one pair hash, so (feature,
// phrase) co-occurrence keys cost two string hashes per document instead
// of one per pair. Asymmetric in its arguments: PairHash(a, b) and
// PairHash(b, a) are distinct keys.
func PairHash(a, b uint64) uint64 {
	return mix64(a ^ (b*0x9e3779b97f4a7c15 + 0x7f4a7c159e3779b9))
}

// mix64 is the splitmix64 finalizer: full avalanche, bijective.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
