package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"phrasemine/internal/corpus"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/topk"
)

// MinedPhrase is a result with its phrase text resolved, ready for display.
type MinedPhrase struct {
	ID     phrasedict.PhraseID
	Phrase string
	// Score is the algorithm-native aggregate (sum of probabilities for
	// OR, sum of log-probabilities for AND).
	Score float64
	// Estimate is the score converted to the interestingness scale of
	// Eq. 1 (see topk.EstimatedInterestingness).
	Estimate float64
}

// Resolve converts raw topk results into displayable phrases, attaching
// interestingness estimates computed against the query's sub-collection.
// Only |D'| is needed for the estimates, so the sub-collection is counted
// (SelectCount), not materialized.
func (ix *Index) Resolve(results []topk.Result, q corpus.Query) ([]MinedPhrase, error) {
	dPrimeSize, err := ix.Inverted.SelectCount(q)
	if err != nil {
		return nil, err
	}
	out := make([]MinedPhrase, len(results))
	for i, r := range results {
		text, err := ix.Dict.Phrase(r.Phrase)
		if err != nil {
			return nil, err
		}
		out[i] = MinedPhrase{
			ID:     r.Phrase,
			Phrase: text,
			Score:  r.Score,
			Estimate: topk.EstimatedInterestingness(
				r.Score, q.Op, dPrimeSize, ix.Corpus.Len()),
		}
	}
	return out, nil
}

// seatCursors is the one place that turns query features into cursors. It
// seats one of s's pooled cursors on each feature's list — memory cursors
// over raw slices or block cursors over the compressed set, whichever of
// the two holds the lists — so repeated queries allocate nothing here. With
// sc non-nil, block decodes go through the shared-scan cache under
// keyPrefix+feature; raw lists have nothing to decode and ignore it. The
// returned slice belongs to s.
func seatCursors[L ~[]plist.Entry](ix *Index, s *topk.Scratch, raw map[string]L, blocks *plist.BlockSet, features []string, sc *plist.ShareCache, keyPrefix string) ([]plist.Cursor, error) {
	if blocks == nil {
		cursors, mem := s.MemCursors(len(features))
		for i, f := range features {
			l, ok := raw[f]
			if !ok {
				if err := ix.unbuilt(f); err != nil {
					return nil, err
				}
			}
			mem[i].Reset(l)
			cursors[i] = &mem[i]
		}
		return cursors, nil
	}
	cursors, blk := s.BlockCursors(len(features))
	for i, f := range features {
		l, err := blocks.List(f)
		if err != nil {
			return nil, err
		}
		if l.Len() == 0 && !blocks.Has(f) {
			if err := ix.unbuilt(f); err != nil {
				return nil, err
			}
		}
		if sc != nil {
			blk[i].ResetShared(l, keyPrefix+f, sc)
		} else {
			blk[i].Reset(l)
		}
		cursors[i] = &blk[i]
	}
	return cursors, nil
}

// unbuilt refuses a feature that has no list although it occurs in the
// corpus, which only a restricted build (BuildOptions.ListFeatures) can
// produce: silence would mis-answer the query. A feature that occurs
// nowhere is simply an empty list.
func (ix *Index) unbuilt(f string) error {
	if ix.restricted && ix.Inverted.Has(f) {
		return fmt.Errorf("core: no list built for feature %q (restricted build)", f)
	}
	return nil
}

// scoreCursors seats score-ordered cursors (NRA, Algorithm 1) over the
// index's own lists; sc nil decodes privately.
func (ix *Index) scoreCursors(s *topk.Scratch, features []string, sc *plist.ShareCache) ([]plist.Cursor, error) {
	return seatCursors(ix, s, ix.Lists, ix.Blocks, features, sc, "n\x00")
}

// idCursors seats ID-ordered cursors (SMJ, Algorithm 2) over a prepared
// SMJ index of this index; sc nil decodes privately. The fraction is part
// of the share key because SMJ indexes at different fractions hold
// different physical lists for the same feature.
func (ix *Index) idCursors(s *topk.Scratch, smj *SMJIndex, features []string, sc *plist.ShareCache) ([]plist.Cursor, error) {
	keyPrefix := ""
	if sc != nil {
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(smj.Fraction))
		keyPrefix = "s\x00" + string(fb[:]) + "\x00"
	}
	return seatCursors(ix, s, smj.Lists, smj.Blocks, features, sc, keyPrefix)
}

// QueryNRA answers a query with the NRA algorithm over the score-ordered
// lists. Partial-list operation is selected through opt.Fraction (a
// query-time decision for NRA). Candidate tables and cursors come from the
// index's scratch pool, so repeated queries run allocation-free apart from
// the returned results. On a compressed index the cursors decode blocks on
// demand — straight out of the mapped region when the snapshot was opened
// with OpenSnapshotFile — into pooled scratch buffers; results are
// bit-identical to the uncompressed path.
func (ix *Index) QueryNRA(q corpus.Query, opt topk.NRAOptions) ([]topk.Result, topk.NRAStats, error) {
	return ix.QueryNRAShared(q, opt, nil)
}

// QueryNRAShared is QueryNRA for shared-scan batch execution: with sc
// non-nil on a compressed index, block decodes go through sc so that
// concurrent queries over the same feature lists decode each block once.
// Results are bit-identical to QueryNRA.
func (ix *Index) QueryNRAShared(q corpus.Query, opt topk.NRAOptions, sc *plist.ShareCache) ([]topk.Result, topk.NRAStats, error) {
	if err := q.Validate(); err != nil {
		return nil, topk.NRAStats{}, err
	}
	opt.Op = q.Op
	pool := ix.ScratchPool()
	s := pool.Get()
	defer pool.Put(s)
	cursors, err := ix.scoreCursors(s, q.Features, sc)
	if err != nil {
		return nil, topk.NRAStats{}, err
	}
	return topk.NRAScratch(cursors, opt, s)
}

// fanOut runs fn(i) for i in [0, n) through the index's bounded query
// pool, or inline when the index was built single-threaded (or n is
// trivial). Used for per-keyword list preparation on multi-keyword
// queries.
func (ix *Index) fanOut(n int, fn func(i int)) {
	if ix.pool == nil || ix.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ix.pool.RunN(n, fn)
}

// QuerySMJ answers a query with the SMJ algorithm over a prepared
// ID-ordered index. Merger state and cursors come from the index's scratch
// pool, so repeated queries run allocation-free apart from the returned
// results.
func (ix *Index) QuerySMJ(s *SMJIndex, q corpus.Query, opt topk.SMJOptions) ([]topk.Result, topk.SMJStats, error) {
	return ix.QuerySMJShared(s, q, opt, nil)
}

// QuerySMJShared is QuerySMJ for shared-scan batch execution: with sc
// non-nil on a block-compressed SMJ index, blocks decode through sc.
// Results are bit-identical to QuerySMJ.
func (ix *Index) QuerySMJShared(s *SMJIndex, q corpus.Query, opt topk.SMJOptions, sc *plist.ShareCache) ([]topk.Result, topk.SMJStats, error) {
	if err := q.Validate(); err != nil {
		return nil, topk.SMJStats{}, err
	}
	opt.Op = q.Op
	pool := ix.ScratchPool()
	scratch := pool.Get()
	defer pool.Put(scratch)
	cursors, err := ix.idCursors(scratch, s, q.Features, sc)
	if err != nil {
		return nil, topk.SMJStats{}, err
	}
	return topk.SMJScratch(cursors, opt, scratch)
}
