package difftest

// Packed-equivalence mode: the bit-packed block codec analogue of the
// compressed differential. The same corpus is indexed three ways — a
// varint-only compressed build (CodecVarint), a packed-capable build
// (CodecAuto, bit-packed frames wherever they win), and a zero-copy
// mapped snapshot of the packed build — and all three must answer the
// harvested NRA, SMJ, and GM workloads bit-identically (float bits and
// tie order). A shared-scan leg additionally asserts that routing block
// decodes through a ShareCache (core level) and grouping queries in
// MineBatch (public API level) changes nothing about the answers.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"phrasemine"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/plist"
	"phrasemine/internal/synth"
	"phrasemine/internal/topk"
)

// RunPackedEquivalence executes the packed-vs-varint (and mapped-packed,
// and shared-scan) differential over every corpus in opt.
func RunPackedEquivalence(opt Options) (*Report, error) {
	if opt.K <= 0 {
		opt.K = 5
	}
	rep := &Report{
		MeanPrecision: map[Key]float64{},
		precisionSum:  map[Key]float64{},
		precisionN:    map[Key]int{},
	}
	for _, cfg := range opt.Corpora {
		if err := runPackedCorpus(rep, cfg, opt); err != nil {
			return nil, fmt.Errorf("difftest: packed corpus %s: %w", cfg.Name, err)
		}
	}
	return rep, nil
}

func runPackedCorpus(rep *Report, cfg synth.Config, opt Options) error {
	s, err := prepare(cfg, opt)
	if err != nil {
		return err
	}

	// Varint twin: compressed layout with the packed codec disabled —
	// byte-compatible with the pre-packed container generation.
	buildOpts := s.ix.BuildOptions()
	buildOpts.Compression = true
	buildOpts.Codec = plist.CodecVarint
	varint, err := core.Build(s.c, buildOpts)
	if err != nil {
		return err
	}

	// Packed twin: same build, per-block codec choice enabled.
	buildOpts.Codec = plist.CodecAuto
	packed, err := core.Build(s.c, buildOpts)
	if err != nil {
		return err
	}
	if pb, _ := packed.MemStats().PackedBlocks, 0; pb == 0 {
		rep.failf("%s: packed build selected zero packed blocks — codec choice is inert", cfg.Name)
	}

	// Mapped twin: the packed build persisted and reopened zero-copy; the
	// codec choice must survive the snapshot round trip.
	dir, err := os.MkdirTemp("", "difftest-packed-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.snap")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := packed.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	mapped, err := core.OpenSnapshotFile(path, opt.Workers)
	if err != nil {
		return err
	}
	defer mapped.Close()
	// The mapped index serves its inverted postings block-backed too, so
	// it must report at least the list blocks the heap build packed.
	if mb := mapped.MemStats().PackedBlocks; mb < packed.MemStats().PackedBlocks {
		rep.failf("%s: mapped snapshot reports %d packed blocks, build reported %d",
			cfg.Name, mb, packed.MemStats().PackedBlocks)
	}

	variants := []*variant{
		{name: "varint", ix: varint},
		{name: "packed", ix: packed},
		{name: "mapped-packed", ix: mapped},
	}
	for _, v := range variants {
		v.smj = map[float64]*core.SMJIndex{}
		for _, frac := range opt.Fractions {
			v.smj[frac], err = v.ix.BuildSMJ(frac)
			if err != nil {
				return err
			}
		}
	}

	base := variants[0]
	queries := append(append([][]string(nil), s.single...), s.multi...)
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, kws := range queries {
			q := corpus.NewQuery(op, kws...)
			for _, frac := range opt.Fractions {
				want, _, err := base.ix.QueryNRA(q, topk.NRAOptions{K: opt.K, Fraction: frac})
				if err != nil {
					rep.failf("%s %v@%g: NRA on %s: %v", cfg.Name, q, frac, base.name, err)
					continue
				}
				wantSMJ, _, err := base.ix.QuerySMJ(base.smj[frac], q, topk.SMJOptions{K: opt.K})
				if err != nil {
					rep.failf("%s %v@%g: SMJ on %s: %v", cfg.Name, q, frac, base.name, err)
					continue
				}
				for _, v := range variants[1:] {
					got, _, err := v.ix.QueryNRA(q, topk.NRAOptions{K: opt.K, Fraction: frac})
					if err != nil {
						rep.failf("%s %v@%g: NRA on %s: %v", cfg.Name, q, frac, v.name, err)
						continue
					}
					if !bitIdentical(want, got) {
						rep.failf("%s %v@%g: NRA on %s diverges: %v vs %v", cfg.Name, q, frac, v.name, want, got)
					}
					gotSMJ, _, err := v.ix.QuerySMJ(v.smj[frac], q, topk.SMJOptions{K: opt.K})
					if err != nil {
						rep.failf("%s %v@%g: SMJ on %s: %v", cfg.Name, q, frac, v.name, err)
						continue
					}
					if !bitIdentical(wantSMJ, gotSMJ) {
						rep.failf("%s %v@%g: SMJ on %s diverges: %v vs %v", cfg.Name, q, frac, v.name, wantSMJ, gotSMJ)
					}

					// Shared-scan leg: the same queries with block decodes
					// routed through a ShareCache, twice per cache so the
					// second pass is served entirely from shared entries.
					sc := plist.NewShareCache()
					for pass := 0; pass < 2; pass++ {
						gotSh, _, err := v.ix.QueryNRAShared(q, topk.NRAOptions{K: opt.K, Fraction: frac}, sc)
						if err != nil {
							rep.failf("%s %v@%g: shared NRA on %s: %v", cfg.Name, q, frac, v.name, err)
							continue
						}
						if !bitIdentical(want, gotSh) {
							rep.failf("%s %v@%g: shared NRA pass %d on %s diverges", cfg.Name, q, frac, pass, v.name)
						}
						gotShSMJ, _, err := v.ix.QuerySMJShared(v.smj[frac], q, topk.SMJOptions{K: opt.K}, sc)
						if err != nil {
							rep.failf("%s %v@%g: shared SMJ on %s: %v", cfg.Name, q, frac, v.name, err)
							continue
						}
						if !bitIdentical(wantSMJ, gotShSMJ) {
							rep.failf("%s %v@%g: shared SMJ pass %d on %s diverges", cfg.Name, q, frac, pass, v.name)
						}
					}
					if hits, _ := sc.Stats(); hits == 0 {
						rep.failf("%s %v@%g: shared scan on %s produced no cache hits", cfg.Name, q, frac, v.name)
					}
				}
				rep.Cases++
			}

			// GM never touches the word lists; it guards the rest of the
			// snapshot sections of the mapped packed index.
			ga, err := base.ix.GM()
			if err != nil {
				return err
			}
			want, _, errA := ga.TopK(q, opt.K)
			for _, v := range variants[1:] {
				gb, err := v.ix.GM()
				if err != nil {
					rep.failf("%s %v: GM on %s: %v", cfg.Name, q, v.name, err)
					continue
				}
				got, _, errB := gb.TopK(q, opt.K)
				if (errA == nil) != (errB == nil) {
					rep.failf("%s %v: GM error asymmetry on %s: %v vs %v", cfg.Name, q, v.name, errA, errB)
					continue
				}
				if errA == nil && !reflect.DeepEqual(want, got) {
					rep.failf("%s %v: GM on %s diverges", cfg.Name, q, v.name)
				}
			}
			rep.Cases++
		}
	}

	return runPackedBatchLeg(rep, cfg, s, opt, queries)
}

// runPackedBatchLeg asserts the public-API shared-scan contract: MineBatch
// with sharing enabled answers exactly like per-query Mine calls on the
// same compressed miner, and actually shares (the hit gauge moves).
func runPackedBatchLeg(rep *Report, cfg synth.Config, s *setup, opt Options, queries [][]string) error {
	tokens, err := s.c.TokenSlices()
	if err != nil {
		return err
	}
	texts := make([]string, len(tokens))
	for d, ts := range tokens {
		texts[d] = strings.Join(ts, " ")
	}
	miner, err := phrasemine.NewMinerFromTexts(texts, phrasemine.Config{
		Compression: true,
		Workers:     opt.Workers,
	})
	if err != nil {
		return err
	}
	defer miner.Close()

	// Duplicate every query so grouping has something to share, and
	// interleave the duplicates to exercise group planning. The first
	// keyword set repeats until its 66 items (both operators share one
	// signature) pass MineBatch's 64-query group cap, so its class splits.
	var items []phrasemine.BatchItem
	for _, op := range []phrasemine.Operator{phrasemine.AND, phrasemine.OR} {
		for qi, kws := range queries {
			reps := 1
			if qi == 0 {
				reps = 11
			}
			for r := 0; r < reps; r++ {
				items = append(items,
					phrasemine.BatchItem{Keywords: kws, Op: op, Options: phrasemine.QueryOptions{K: opt.K}},
					phrasemine.BatchItem{Keywords: kws, Op: op, Options: phrasemine.QueryOptions{K: opt.K, Algorithm: phrasemine.AlgoSMJ, ListFraction: 0.5}},
					phrasemine.BatchItem{Keywords: kws, Op: op, Options: phrasemine.QueryOptions{K: opt.K}},
				)
			}
		}
	}
	batch := miner.MineBatch(items)
	for i, item := range items {
		want, wantErr := miner.Mine(item.Keywords, item.Op, item.Options)
		got := batch[i]
		if (wantErr == nil) != (got.Err == nil) {
			rep.failf("%s batch[%d] %v: error asymmetry: %v vs %v", cfg.Name, i, item.Keywords, wantErr, got.Err)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !sameResults(want, got.Results) {
			rep.failf("%s batch[%d] %v: shared batch diverges from Mine: %v vs %v",
				cfg.Name, i, item.Keywords, want, got.Results)
		}
		rep.Cases++
	}
	if hits := miner.IndexStats().SharedScanHits; hits == 0 {
		rep.failf("%s: MineBatch over %d grouped queries recorded no shared-scan hits", cfg.Name, len(items))
	}
	return nil
}

// sameResults compares public mining results with float64 bit equality —
// same phrases, same order, same score bits.
func sameResults(a, b []phrasemine.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phrase != b[i].Phrase ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].Interestingness) != math.Float64bits(b[i].Interestingness) {
			return false
		}
	}
	return true
}
