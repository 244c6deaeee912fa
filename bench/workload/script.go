package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Spec is one benchmark workload: which fixture the server serves and
// how, and the traffic the driver sends. The four specs are frozen in
// Specs; a run varies only the seed and the measured seconds.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Fixture names the corpus ("rq" or "rs"); Segments > 1 serves it
	// from a sharded manifest, Mmap maps the snapshot instead of loading
	// it on the heap, CacheOff passes -cache -1, WAL adds a write-ahead
	// log and makes the served snapshot a private copy.
	Fixture  string
	Segments int
	Mmap     bool
	CacheOff bool
	WAL      bool

	// Sets keyword sets are harvested; the distinct requests are their
	// product with Ops, Ks and Algos, cut to Keys when Keys > 0.
	Sets  int
	Ops   []string
	Ks    []int
	Algos []string
	Keys  int
	// ZipfS > 0 draws requests Zipf(s) over the distinct keys instead of
	// cycling through seeded shuffles of them.
	ZipfS float64

	// OpenRate is the open-phase request rate, per second.
	OpenRate float64
	// WriteRate > 0 adds the writer connection: POST /docs at this rate,
	// POST /flush after every FlushEvery-th document, and every
	// SentinelEvery-th document carries the seeded sentinel collocation.
	WriteRate     float64
	FlushEvery    int
	SentinelEvery int
}

// Static reports whether the served corpus never changes during a run, so
// every answer to a query must equal the first one byte for byte.
func (s Spec) Static() bool { return s.WriteRate == 0 }

// Specs are the benchmark's workloads, in reporting order. Rates are
// sized so that the seed commit's closed-loop capacity on the reference
// machine (2 cores, server on one) is at least twice the open rate.
var Specs = []Spec{
	{
		Name:     "read_nra_mmap",
		Why:      "paper's headline path: NRA over compressed mmap lists, nothing cached; bit-unpack, cursor, top-k, resolve and JSON run on every request",
		Fixture:  "rq",
		Mmap:     true,
		CacheOff: true,
		Sets:     100, Ops: []string{"AND", "OR"}, Ks: []int{5}, Algos: []string{"nra"},
		OpenRate: 1000,
	},
	{
		Name:     "read_sharded4",
		Why:      "4-segment scatter-gather dominates the request (engine ms vs HTTP us), so gather work shows here and must not show on read_nra_mmap",
		Fixture:  "rq",
		Segments: 4,
		CacheOff: true,
		Sets:     100, Ops: []string{"OR"}, Ks: []int{20}, Algos: []string{"smj", "nra"},
		OpenRate: 100,
	},
	{
		Name:    "zipf_cached",
		Why:     "same endpoint, Zipf(1.1) over 4096 keys against a 1024-entry result cache: most requests end at the cache, so engine changes predict no change",
		Fixture: "rq",
		Sets:    342, Ops: []string{"AND", "OR"}, Ks: []int{5, 10, 20}, Algos: []string{"nra", "smj"},
		Keys:     4096,
		ZipfS:    1.1,
		OpenRate: 1500,
	},
	{
		Name:     "ingest_mixed",
		Why:      "writes beside reads on one Miner: WAL append+fsync, live tail, delta-corrected queries and the stop-the-world flush that sets read p99",
		Fixture:  "rt",
		CacheOff: true,
		WAL:      true,
		Sets:     100, Ops: []string{"AND", "OR"}, Ks: []int{5}, Algos: []string{"nra"},
		OpenRate:      100,
		WriteRate:     5,
		FlushEvery:    10,
		SentinelEvery: 5,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Query is one distinct /mine request of a script.
type Query struct {
	Set  int
	Op   string
	K    int
	Algo string
	// Body is the JSON request body.
	Body []byte
}

// Group identifies the (keyword set, operator, k) a query asks about;
// queries of one group differ only in algorithm and must return the same
// phrase set at full lists.
func (q Query) Group() string {
	return strconv.Itoa(q.Set) + "|" + q.Op + "|" + strconv.Itoa(q.K)
}

// Write is one step of the writer connection's script.
type Write struct {
	// Body is the POST /docs body.
	Body []byte
	// TextBytes is the size of the document text, for disk_amp.
	TextBytes int
	// Sentinel marks a document carrying the sentinel collocation.
	Sentinel bool
	// FlushAfter asks for POST /flush once this document is acknowledged.
	FlushAfter bool
}

// orderLen is how many request slots a script pre-draws; a run that
// needs more wraps around. 2^18 covers a minute at 4 000 req/s.
const orderLen = 1 << 18

// Script is everything a run sends, fixed by (spec, corpus, seed).
type Script struct {
	Spec    Spec
	Seed    int64
	Queries []Query
	// Order holds indices into Queries in sending order.
	Order []int32
	// Writes is the writer connection's script; empty on static workloads.
	Writes []Write
	// Sentinel is the two-word collocation sentinel documents carry, and
	// SentinelQuery the /mine body that asks for it.
	Sentinel      [2]string
	SentinelQuery []byte
}

// BuildScript derives a run's inputs. writes is how many documents the
// writer connection will send (0 on static workloads).
func BuildScript(spec Spec, pool Pool, corpus *Corpus, seed int64, writes int) (*Script, error) {
	sets, err := pool.Harvest(spec.Sets, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	// Independent streams, so changing how many sets are harvested does
	// not shift the order or the written documents.
	orderRng := rand.New(rand.NewSource(seed ^ 0x6f72646572))
	writeRng := rand.New(rand.NewSource(seed ^ 0x7772697465))

	s := &Script{Spec: spec, Seed: seed}
	for si, words := range sets {
		for _, op := range spec.Ops {
			for _, k := range spec.Ks {
				for _, algo := range spec.Algos {
					s.Queries = append(s.Queries, Query{
						Set: si, Op: op, K: k, Algo: algo,
						Body: MineBody(words, op, k, algo),
					})
				}
			}
		}
	}
	if spec.Keys > 0 {
		if len(s.Queries) < spec.Keys {
			return nil, fmt.Errorf("%s: %d distinct queries, need %d keys", spec.Name, len(s.Queries), spec.Keys)
		}
		orderRng.Shuffle(len(s.Queries), func(i, j int) { s.Queries[i], s.Queries[j] = s.Queries[j], s.Queries[i] })
		s.Queries = s.Queries[:spec.Keys]
	}

	s.Order = make([]int32, orderLen)
	if spec.ZipfS > 0 {
		// Rank r of the Zipf law is Queries[r]: the shuffle above already
		// decoupled rank from keyword-set frequency.
		z := rand.NewZipf(orderRng, spec.ZipfS, 1, uint64(len(s.Queries)-1))
		for i := range s.Order {
			s.Order[i] = int32(z.Uint64())
		}
	} else {
		for i := 0; i < orderLen; i += len(s.Queries) {
			perm := orderRng.Perm(len(s.Queries))
			for j := 0; j < len(perm) && i+j < orderLen; j++ {
				s.Order[i+j] = int32(perm[j])
			}
		}
	}

	if writes > 0 {
		s.Sentinel = sentinelWords(seed)
		s.SentinelQuery = MineBody(s.Sentinel[:], "AND", 5, "nra")
		// Written documents come from the middle half of the corpus by
		// length: a read's cost grows with the size of the pending delta,
		// and that size should not depend on which documents a seed drew.
		byLen := append([]string(nil), corpus.Texts...)
		sort.SliceStable(byLen, func(i, j int) bool { return len(byLen[i]) < len(byLen[j]) })
		middle := byLen[len(byLen)/4 : len(byLen)-len(byLen)/4]
		for i := 1; i <= writes; i++ {
			text := middle[writeRng.Intn(len(middle))]
			w := Write{FlushAfter: i%spec.FlushEvery == 0}
			if i%spec.SentinelEvery == 0 {
				// Its own sentence, so the only new phrases the document
				// adds are the two words and the collocation.
				text = s.Sentinel[0] + " " + s.Sentinel[1] + ". " + text
				w.Sentinel = true
			}
			body, err := json.Marshal(map[string]string{"text": text})
			if err != nil {
				return nil, err
			}
			w.Body, w.TextBytes = body, len(text)+1
			s.Writes = append(s.Writes, w)
		}
	}
	return s, nil
}

// MineBody renders a /mine request. Keywords are harvested lower-case
// ASCII words, so quoting needs no escapes.
func MineBody(words []string, op string, k int, algo string) []byte {
	var b strings.Builder
	b.WriteString(`{"keywords":["`)
	b.WriteString(strings.Join(words, `","`))
	b.WriteString(`"],"op":"`)
	b.WriteString(op)
	b.WriteString(`","k":`)
	b.WriteString(strconv.Itoa(k))
	b.WriteString(`,"algorithm":"`)
	b.WriteString(algo)
	b.WriteString(`"}`)
	return []byte(b.String())
}

// sentinelWords spells the seed in letters behind a "zq" prefix no
// generated corpus word starts with.
func sentinelWords(seed int64) [2]string {
	n := uint64(seed)
	var letters []byte
	for {
		letters = append(letters, byte('a'+n%26))
		n /= 26
		if n == 0 {
			break
		}
	}
	stem := "zq" + string(letters)
	return [2]string{stem + "xa", stem + "xb"}
}

// Hash fingerprints the script: two runs with equal hashes sent the same
// requests in the same order.
func (s *Script) Hash() string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, q := range s.Queries {
		put(q.Body)
	}
	for _, i := range s.Order {
		binary.LittleEndian.PutUint32(n[:4], uint32(i))
		h.Write(n[:4])
	}
	for _, w := range s.Writes {
		put(w.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
