package main

import (
	"math/rand"
	"slices"
	"time"

	"phrasemine/bench/workload"
	"phrasemine/internal/bitpack"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/topk"
)

const (
	// reps is how often a cheap measurement repeats; heavyReps how often
	// one that takes a second or more does (the traced run has the same
	// time cap as any other).
	reps      = 5
	heavyReps = 3
	// querySets is the size of the ladder's keyword-set harvest, the
	// paper's Reuters query-set size (§5.1).
	querySets = 100
	ladderK   = 5
)

// harvest draws the seeded keyword sets of a fixture and expands them to
// one AND and one OR query each, as read_nra_mmap does.
func (l *ladder) harvest(fixture string) []corpus.Query {
	pool, err := workload.ReadPool(l.path(fixture + ".pool.json"))
	must(err)
	sets, err := pool.Harvest(querySets, l.seed)
	must(err)
	var qs []corpus.Query
	for _, words := range sets {
		qs = append(qs, corpus.NewQuery(corpus.OpAND, words...), corpus.NewQuery(corpus.OpOR, words...))
	}
	return qs
}

// features lists the distinct features of a query set, in first-use order.
func features(qs []corpus.Query) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range qs {
		for _, f := range q.Features {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// idFrames re-encodes a score-ordered list's phrase IDs the way a packed
// block stores them — per 128-entry block, the raw IDs of entries 1..n-1 as
// one bitpack frame — so bitpack.DecodeFrame can be timed on the real ID
// streams through its public API (a BlockList does not expose its frames).
func idFrames(entries []plist.Entry) []frame {
	var frames []frame
	var vals [plist.BlockLen]uint32
	for lo := 0; lo < len(entries); lo += plist.BlockLen {
		hi := min(lo+plist.BlockLen, len(entries))
		n := 0
		for _, e := range entries[lo+1 : hi] {
			vals[n] = uint32(e.Phrase)
			n++
		}
		frames = append(frames, frame{bitpack.AppendFrame(nil, vals[:n]), n})
	}
	return frames
}

// frame is one bitpack frame and the number of values it holds.
type frame struct {
	data []byte
	n    int
}

// decode unpacks the frame into vals.
func (f frame) decode(vals *[plist.BlockLen]uint32) {
	if _, err := bitpack.DecodeFrame(vals[:f.n], f.data); err != nil {
		must(err)
	}
}

// listLayers measures L0, L1 and the selection step over the compressed,
// memory-mapped rq index: the structures read_nra_mmap serves from.
func (l *ladder) listLayers() {
	// core.snapshot_mmap_open_ms: what setup_s @ read_nra_mmap is made of.
	l.record("core.snapshot_mmap_open_ms", "ms", repeat(reps, func() float64 {
		t := time.Now()
		ix, err := core.OpenSnapshotFile(l.path("rq.snap"), 1)
		must(err)
		d := time.Since(t)
		must(ix.Close())
		return float64(d) / 1e6
	})...)
	ix, err := core.OpenSnapshotFile(l.path("rq.snap"), 1)
	must(err)
	defer ix.Close()
	qs := l.harvest("rq")
	feats := features(qs)

	lists := make([]plist.BlockList, len(feats))
	decoded := make([][]plist.Entry, len(feats))
	var frames []frame
	entries, framed := 0, 0
	for i, f := range feats {
		lists[i], err = ix.Blocks.List(f)
		must(err)
		decoded[i], err = lists[i].DecodeAll(nil)
		must(err)
		entries += len(decoded[i])
		frames = append(frames, idFrames(decoded[i])...)
		framed += len(decoded[i]) - plist.NumBlocksFor(len(decoded[i]))
	}

	// L0: bit-unpack.
	var vals [plist.BlockLen]uint32
	l.record("bitpack.decode_ns_per_entry", "ns", repeat(reps, func() float64 {
		t := time.Now()
		for _, fr := range frames {
			fr.decode(&vals)
		}
		return float64(time.Since(t)) / float64(framed)
	})...)

	// L1: block cursor.
	cur := plist.NewBlockCursor(lists[0])
	l.record("plist.next_ns_per_entry", "ns", repeat(reps, func() float64 {
		t := time.Now()
		for _, bl := range lists {
			cur.Reset(bl)
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
			}
			must(cur.Err())
		}
		return float64(time.Since(t)) / float64(entries)
	})...)
	l.record("plist.bytes_per_entry", "B", float64(ix.Blocks.SizeBytes())/float64(ix.Blocks.TotalEntries()))

	// SkipTo needs ID order: re-encode the query set's lists ID-ordered.
	idLists := map[string]plist.BlockList{}
	for i, f := range feats {
		ids := plist.ScoreList(decoded[i]).ToIDOrdered()
		data, err := plist.AppendBlockList(nil, ids, plist.OrderID)
		must(err)
		idLists[f], err = plist.NewBlockList(data, len(ids), plist.OrderID)
		must(err)
	}
	rng := rand.New(rand.NewSource(l.seed))
	numPhrases := ix.NumPhrases()
	l.record("plist.skipto_ns", "ns", repeat(reps, func() float64 {
		skips := 0
		t := time.Now()
		for _, f := range feats {
			bl := idLists[f]
			cur.Reset(bl)
			// Ascending seeded targets, about eight blocks apart.
			stride := max(1, numPhrases*8*plist.BlockLen/max(1, bl.Len()))
			for target := rng.Intn(stride); target < numPhrases; target += 1 + rng.Intn(2*stride) {
				skips++
				if _, ok := cur.SkipTo(phrasedict.PhraseID(target)); !ok {
					break
				}
			}
		}
		return float64(time.Since(t)) / float64(skips)
	})...)

	// Shared-scan hit share over a 64-query batch, as MineBatch runs it.
	sc := plist.NewShareCache()
	for _, q := range qs[:64] {
		_, _, err := ix.QueryNRAShared(q, topk.NRAOptions{K: ladderK}, sc)
		must(err)
	}
	hits, misses := sc.Stats()
	sc.Release()
	l.record("plist.share_hit_share", "ratio", float64(hits)/float64(max(1, hits+misses)))

	// Selection of D'.
	var docs []corpus.DocID
	l.record("corpus.select_us", "us", repeat(reps, func() float64 {
		return passMedian(len(qs), func(i int) {
			docs, err = ix.Inverted.SelectInto(docs[:0], qs[i])
			must(err)
		})
	})...)
}

// splitPartials turns one query's full lists into n partial lists: each
// phrase's per-feature co-occurrence count (prob x df, the integers the
// lists were built from) is dealt out over n parts, so the parts merge
// back to the monolithic answer.
func splitPartials(ix *core.Index, q corpus.Query, n int) []topk.PartialList {
	r := len(q.Features)
	counts := map[phrasedict.PhraseID][]uint32{}
	for fi, f := range q.Features {
		var entries []plist.Entry
		if ix.Blocks != nil {
			var err error
			entries, err = ix.Blocks.DecodeList(f)
			must(err)
		} else {
			entries = ix.Lists[f]
		}
		for _, e := range entries {
			row := counts[e.Phrase]
			if row == nil {
				row = make([]uint32, r)
				counts[e.Phrase] = row
			}
			row[fi] = uint32(e.Prob*float64(ix.PhraseDF[e.Phrase]) + 0.5)
		}
	}
	ids := make([]phrasedict.PhraseID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	parts := make([]topk.PartialList, n)
	for _, id := range ids {
		for p := range parts {
			parts[p].IDs = append(parts[p].IDs, id)
			for _, c := range counts[id] {
				share := c / uint32(n)
				if uint32(p) < c%uint32(n) {
					share++
				}
				parts[p].Counts = append(parts[p].Counts, share)
			}
		}
	}
	return parts
}
