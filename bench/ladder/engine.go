package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"phrasemine"
	"phrasemine/bench/workload"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/plist"
	"phrasemine/internal/server"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// mineBody renders a query as the /mine request the driver would send.
func mineBody(q corpus.Query, k int, algo string) string {
	return string(workload.MineBody(q.Features, q.Op.String(), k, algo))
}

// serve runs one request through the server's handler, in process.
func serve(srv *server.Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code >= 300 {
		must(&httpError{rec.Code, rec.Body.String()})
	}
	return rec
}

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return "handler answered " + strconv.Itoa(e.code) + ": " + e.body }

func publicOp(op corpus.Operator) phrasemine.Operator {
	if op == corpus.OpAND {
		return phrasemine.AND
	}
	return phrasemine.OR
}

// engineLayers measures L2-L5 over the mmap rq snapshot (the rungs above
// listLayers' L0 and L1, on the same structures), the sharded engine, and
// the build and load paths.
func (l *ladder) engineLayers() {
	ctx := context.Background()
	qs := l.harvest("rq")
	feats := features(qs)

	// The rungs L2-L5, opened the way `serve -mmap` opens them: topk over
	// raw cursors, the engine query plus resolve, the public Miner, the
	// HTTP handler.
	ix, err := core.OpenSnapshotFile(l.path("rq.snap"), 1)
	must(err)
	defer ix.Close()
	miner, err := phrasemine.OpenMinerMapped(l.path("rq.snap"), 1)
	must(err)
	defer miner.Close()
	must(miner.EnableLiveTail(phrasemine.TailConfig{}))
	off := server.New(miner, server.Options{CacheSize: -1})
	scratch := topk.NewScratch(ix.NumPhrases())

	var stats topk.NRAStats
	topkNRA := func(i int) {
		q := qs[i]
		cursors, blk := scratch.BlockCursors(len(q.Features))
		for j, f := range q.Features {
			bl, err := ix.Blocks.List(f)
			must(err)
			blk[j].Reset(bl)
			cursors[j] = &blk[j]
		}
		_, stats, err = topk.NRAScratch(cursors, topk.NRAOptions{K: ladderK, Op: q.Op}, scratch)
		must(err)
	}
	mine := func(i int, algo phrasemine.Algorithm) {
		_, err := miner.MineDetailed(ctx, qs[i].Features, publicOp(qs[i].Op), phrasemine.QueryOptions{K: ladderK, Algorithm: algo})
		must(err)
	}
	nra := interleaved(len(qs), reps,
		topkNRA,
		func(i int) {
			res, _, err := ix.QueryNRA(qs[i], topk.NRAOptions{K: ladderK, Fraction: 1})
			must(err)
			_, err = ix.Resolve(res, qs[i])
			must(err)
		},
		func(i int) { mine(i, phrasemine.AlgoNRA) },
		func(i int) { serve(off, http.MethodPost, "/mine", mineBody(qs[i], ladderK, "nra")) },
	)
	l.record("topk.nra_us", "us", nra[0]...)
	coreNRA := l.record("core.nra_us", "us", nra[1]...)
	mineNRA := l.record("miner.mine_nra_us", "us", nra[2]...)
	handle := l.record("server.handle_us", "us", nra[3]...)
	l.record("miner.overhead_ratio", "ratio", mineNRA/coreNRA)
	l.record("server.overhead_us", "us", handle-mineNRA)

	read, total := 0, 0
	for i := range qs {
		topkNRA(i)
		for j := range stats.EntriesRead {
			read += stats.EntriesRead[j]
			total += stats.ListLens[j]
		}
	}
	l.record("topk.nra_read_share", "ratio", float64(read)/float64(total))
	l.record("topk.allocs_per_query", "count", testing.AllocsPerRun(100, func() { topkNRA(0) }))
	l.record("miner.mine_allocs", "count", testing.AllocsPerRun(100, func() { mine(0, phrasemine.AlgoNRA) }))

	// The same for SMJ, down to the miner. The engine and topk rungs read
	// an ID-ordered index of just the query set's features: building the
	// full one costs seconds and the queries touch nothing else.
	idLists := map[string]plist.IDList{}
	for _, f := range feats {
		entries, err := ix.Blocks.DecodeList(f)
		must(err)
		idLists[f] = plist.ScoreList(entries).ToIDOrdered()
	}
	smjBlocks, err := plist.BuildIDBlockSet(idLists)
	must(err)
	smj := &core.SMJIndex{Fraction: 1, Blocks: smjBlocks}
	mine(0, phrasemine.AlgoSMJ) // builds the miner's own lazy SMJ index
	smjReps := interleaved(len(qs), reps,
		func(i int) {
			q := qs[i]
			cursors, blk := scratch.BlockCursors(len(q.Features))
			for j, f := range q.Features {
				bl, err := smjBlocks.List(f)
				must(err)
				blk[j].Reset(bl)
				cursors[j] = &blk[j]
			}
			_, _, err := topk.SMJScratch(cursors, topk.SMJOptions{K: ladderK, Op: q.Op}, scratch)
			must(err)
		},
		func(i int) {
			res, _, err := ix.QuerySMJ(smj, qs[i], topk.SMJOptions{K: ladderK})
			must(err)
			_, err = ix.Resolve(res, qs[i])
			must(err)
		},
		func(i int) { mine(i, phrasemine.AlgoSMJ) },
	)
	l.record("topk.smj_us", "us", smjReps[0]...)
	l.record("core.smj_us", "us", smjReps[1]...)
	l.record("miner.mine_smj_us", "us", smjReps[2]...)

	batch := make([]phrasemine.BatchItem, 64)
	for i := range batch {
		// Consecutive queries are one keyword set under AND and OR: the
		// batch shares every list at least twice.
		batch[i] = phrasemine.BatchItem{Keywords: qs[i].Features, Op: publicOp(qs[i].Op), Options: phrasemine.QueryOptions{K: ladderK, Algorithm: phrasemine.AlgoNRA}}
	}
	l.record("miner.batch_qps", "1/s", repeat(reps, func() float64 {
		t := time.Now()
		for _, r := range miner.MineBatch(batch) {
			must(r.Err)
		}
		return float64(len(batch)) / time.Since(t).Seconds()
	})...)

	// The handler again with a warm cache.
	on := server.New(miner, server.Options{})
	for _, q := range qs {
		serve(on, http.MethodPost, "/mine", mineBody(q, ladderK, "nra"))
	}
	l.record("server.cache_hit_us", "us", repeat(reps, func() float64 {
		return passMedian(len(qs), func(i int) { serve(on, http.MethodPost, "/mine", mineBody(qs[i], ladderK, "nra")) })
	})...)

	// Load paths and heap footprint.
	var heap *core.Index
	l.record("core.snapshot_load_ms", "ms", repeat(heavyReps, func() float64 {
		f, err := os.Open(l.path("rq.snap"))
		must(err)
		defer f.Close()
		t := time.Now()
		heap, err = core.LoadSnapshot(f, 1)
		must(err)
		return float64(time.Since(t)) / 1e6
	})...)
	text, err := os.Stat(l.path("rq.txt"))
	must(err)
	mem := heap.MemStats()
	l.record("core.heap_bytes_per_doc_byte", "ratio", float64(mem.ListBytes+mem.PostingBytes)/float64(text.Size()))

	// The gather's merge: one three-keyword OR query's per-feature counts,
	// split four ways as four segments would report them.
	var wide corpus.Query
	for _, q := range qs {
		if q.Op == corpus.OpOR && len(q.Features) >= 3 {
			wide = q
			break
		}
	}
	parts := splitPartials(heap, wide, 4)
	l.record("topk.merge_partials_us", "us", repeat(reps, func() float64 {
		return passMedian(20, func(int) {
			_, err := topk.MergePartials(parts, topk.MergeOptions{K: 20, Op: wide.Op, R: len(wide.Features), DF: heap.PhraseDF})
			must(err)
		})
	})...)

	// Builds run on rs, so that three repetitions — and the two sharded
	// engines below — fit the traced run's time.
	f, err := os.Open(l.path("rs.snap"))
	must(err)
	rs, err := core.LoadSnapshot(f, 1)
	f.Close()
	must(err)
	l.shardedLayers(ctx, rs)
	tokens, err := rs.Corpus.TokenSlices()
	must(err)
	opts := rs.BuildOptions()
	opts.Workers = 1
	l.record("textproc.extract_docs_per_s", "1/s", repeat(heavyReps, func() float64 {
		t := time.Now()
		_, err := textproc.Extract(tokens, opts.Extractor)
		must(err)
		return float64(len(tokens)) / time.Since(t).Seconds()
	})...)
	l.record("core.build_docs_per_s", "1/s", repeat(heavyReps, func() float64 {
		t := time.Now()
		_, err := core.Build(rs.Corpus, opts)
		must(err)
		return float64(rs.Corpus.Len()) / time.Since(t).Seconds()
	})...)
}

// shardedLayers measures the scatter-gather: a 4-segment engine against a
// one-segment engine (bit-identical to monolithic SMJ), on read_sharded4's
// query shape — multi-keyword OR, k = 20. Both are built here, over the rs
// corpus and with word lists for the query set's features only (a query
// reads no other list): two builds over rq take 25 s.
func (l *ladder) shardedLayers(ctx context.Context, heap *core.Index) {
	const k = 20
	qs := l.harvest("rs")
	feats := features(qs)
	var or []corpus.Query
	for _, q := range qs {
		if q.Op == corpus.OpOR {
			or = append(or, q)
		}
	}
	opts := heap.BuildOptions()
	opts.Workers = 1
	opts.ListFeatures = feats // the queries touch no other list
	s4, err := core.BuildSharded(heap.Corpus, opts, 4)
	must(err)
	defer s4.Close()
	// One measurement: a fresh build per repetition costs seconds.
	t := time.Now()
	_, err = s4.QueryNRA(ctx, or[0], k, 1)
	must(err)
	l.record("core.sharded_first_query_s", "s", time.Since(t).Seconds())

	// The globalized lists are built per feature on first use: one untimed
	// pass builds them all.
	for _, q := range or {
		_, err := s4.QueryNRA(ctx, q, k, 1)
		must(err)
	}
	nra4 := l.record("core.sharded4_nra_us", "us", repeat(heavyReps, func() float64 {
		return passMedian(len(or), func(i int) {
			_, err := s4.QueryNRA(ctx, or[i], k, 1)
			must(err)
		})
	})...)
	_, err = s4.QuerySMJ(ctx, or[0], k, 1) // builds the per-segment SMJ indexes
	must(err)
	l.record("core.sharded4_smj_us", "us", repeat(heavyReps, func() float64 {
		return passMedian(len(or), func(i int) {
			_, err := s4.QuerySMJ(ctx, or[i], k, 1)
			must(err)
		})
	})...)

	s1, err := core.BuildSharded(heap.Corpus, opts, 1)
	must(err)
	defer s1.Close()
	_, err = s1.QuerySMJ(ctx, or[0], k, 1)
	must(err)
	smj1 := l.record("core.sharded1_smj_us", "us", repeat(heavyReps, func() float64 {
		return passMedian(len(or), func(i int) {
			_, err := s1.QuerySMJ(ctx, or[i], k, 1)
			must(err)
		})
	})...)
	l.record("core.gather_ratio", "ratio", nra4/smj1)
}
