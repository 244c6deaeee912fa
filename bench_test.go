// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment; see DESIGN.md §2) plus ablations of the design choices
// (§5). Datasets are built once per process at a CI-tractable scale and
// shared across benchmarks; override the scale with -benchscale.
//
//	go test -bench=. -benchmem
package phrasemine

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"phrasemine/internal/bitpack"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/experiments"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/synth"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

var benchScale = flag.Float64("benchscale", 0.1, "dataset scale for benchmarks (1.0 = paper-equivalent)")

func benchDataset(b *testing.B, kind experiments.DatasetKind) *experiments.Dataset {
	b.Helper()
	ds, err := experiments.Load(kind, *benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// rotate cycles queries across b.N iterations.
func rotate(qs []corpus.Query, i int) corpus.Query {
	return qs[i%len(qs)]
}

// --- Figures 5/6: result quality ------------------------------------------

func benchmarkQuality(b *testing.B, kind experiments.DatasetKind) {
	ds := benchDataset(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunQuality(ds, []float64{0.2, 0.5}, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5QualityReuters(b *testing.B) { benchmarkQuality(b, experiments.Reuters) }
func BenchmarkFig6QualityPubmed(b *testing.B)  { benchmarkQuality(b, experiments.Pubmed) }

// --- Figures 7/8: SMJ vs GM in-memory runtimes ------------------------------

func benchmarkSMJ(b *testing.B, kind experiments.DatasetKind, frac float64, op corpus.Operator) {
	ds := benchDataset(b, kind)
	smj, err := ds.Index.BuildSMJ(frac)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.Index.QuerySMJ(smj, rotate(queries, i), topk.SMJOptions{K: experiments.K}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkGM(b *testing.B, kind experiments.DatasetKind, op corpus.Operator) {
	ds := benchDataset(b, kind)
	gm, err := ds.Index.GM()
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gm.TopK(rotate(queries, i), experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SMJ20AndReuters(b *testing.B) {
	benchmarkSMJ(b, experiments.Reuters, 0.2, corpus.OpAND)
}
func BenchmarkFig7SMJ20OrReuters(b *testing.B) {
	benchmarkSMJ(b, experiments.Reuters, 0.2, corpus.OpOR)
}
func BenchmarkFig7SMJ100AndReuters(b *testing.B) {
	benchmarkSMJ(b, experiments.Reuters, 1.0, corpus.OpAND)
}
func BenchmarkFig7GMAndReuters(b *testing.B) { benchmarkGM(b, experiments.Reuters, corpus.OpAND) }
func BenchmarkFig7GMOrReuters(b *testing.B)  { benchmarkGM(b, experiments.Reuters, corpus.OpOR) }

func BenchmarkFig8SMJ20AndPubmed(b *testing.B) {
	benchmarkSMJ(b, experiments.Pubmed, 0.2, corpus.OpAND)
}
func BenchmarkFig8SMJ20OrPubmed(b *testing.B) {
	benchmarkSMJ(b, experiments.Pubmed, 0.2, corpus.OpOR)
}
func BenchmarkFig8GMAndPubmed(b *testing.B) { benchmarkGM(b, experiments.Pubmed, corpus.OpAND) }
func BenchmarkFig8GMOrPubmed(b *testing.B)  { benchmarkGM(b, experiments.Pubmed, corpus.OpOR) }

// --- Sharded engine: scatter-gather queries and segmented builds -------------

// shardedBenchK is the result depth of the sharded acceptance benchmark
// (k=20 multi-keyword queries per the PR-5 criterion).
const shardedBenchK = 20

// shardedBenchQueries selects the multi-keyword OR workload: the shape
// that exercises the adaptive per-shard NRA scatter.
func shardedBenchQueries(b *testing.B, ds *experiments.Dataset) []corpus.Query {
	var out []corpus.Query
	for _, f := range ds.Features {
		if len(f) >= 2 {
			out = append(out, corpus.NewQuery(corpus.OpOR, f...))
		}
	}
	if len(out) == 0 {
		b.Fatal("no multi-keyword queries in the harvested workload")
	}
	return out
}

// benchmarkShardedMine measures sustained serving: each iteration answers
// a sweep of k=20 multi-keyword queries while absorbing a document update
// through Add + Flush — the mixed read/write workload the write-segment
// routing exists for. On the monolithic layout (one segment) every flush
// rebuilds the whole corpus; at four segments only the write segment
// rebuilds, so the sharded engine sustains the same query stream at a
// fraction of the maintenance cost regardless of core count. (Pure query
// latency is recorded separately by BenchmarkShardedQuery*.)
func benchmarkShardedMine(b *testing.B, segments int) {
	ds := benchDataset(b, experiments.Reuters)
	sx, err := core.BuildSharded(ds.Corpus, ds.Index.BuildOptions(), segments)
	if err != nil {
		b.Fatal(err)
	}
	queries := shardedBenchQueries(b, ds)
	doc := ds.Corpus.MustDoc(0)
	// Each iteration removes the previous iteration's document and adds a
	// fresh one, so the corpus size is stationary and s/op does not depend
	// on b.N.
	serve := func(first bool) {
		if !first {
			if err := sx.RemoveDocument(corpus.DocID(sx.NumDocs() - 1)); err != nil {
				b.Fatal(err)
			}
		}
		sx.AddDocument(corpus.Document{Tokens: doc.Tokens})
		if err := sx.Flush(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if _, err := sx.QueryNRA(context.Background(), rotate(queries, j), shardedBenchK, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	}
	serve(true) // warm caches and tallies; corpus settles at |D|+1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(false)
	}
}

// BenchmarkShardedMineSeg1Reuters is the single-segment baseline the
// 4-segment run is gated against (>= 2x speedup, recorded in
// BENCH_pr5.json).
func BenchmarkShardedMineSeg1Reuters(b *testing.B) { benchmarkShardedMine(b, 1) }

// BenchmarkShardedMineSeg4Reuters is the 4-segment run of the acceptance
// criterion.
func BenchmarkShardedMineSeg4Reuters(b *testing.B) { benchmarkShardedMine(b, 4) }

// benchmarkShardedQuery measures pure query latency on a static sharded
// engine: the adaptive per-shard NRA scatter plus the exact completion
// gather. On multi-core hardware the per-segment work proceeds in
// parallel; on a single core the extra segments are pure overhead (the
// committed baseline records a single-core container).
func benchmarkShardedQuery(b *testing.B, segments int) {
	ds := benchDataset(b, experiments.Reuters)
	sx, err := core.BuildSharded(ds.Corpus, ds.Index.BuildOptions(), segments)
	if err != nil {
		b.Fatal(err)
	}
	queries := shardedBenchQueries(b, ds)
	for _, q := range queries {
		if _, err := sx.QueryNRA(context.Background(), q, shardedBenchK, 1.0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sx.QueryNRA(context.Background(), rotate(queries, i), shardedBenchK, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedQuerySeg1Reuters is pure query latency at one segment.
func BenchmarkShardedQuerySeg1Reuters(b *testing.B) { benchmarkShardedQuery(b, 1) }

// BenchmarkShardedQuerySeg4Reuters is pure query latency at four segments.
func BenchmarkShardedQuerySeg4Reuters(b *testing.B) { benchmarkShardedQuery(b, 4) }

func benchmarkShardedBuild(b *testing.B, segments int) {
	ds := benchDataset(b, experiments.Reuters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSharded(ds.Corpus, ds.Index.BuildOptions(), segments); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedBuildSeg1Reuters builds a one-segment sharded engine
// (the segmented pipeline's overhead baseline).
func BenchmarkShardedBuildSeg1Reuters(b *testing.B) { benchmarkShardedBuild(b, 1) }

// BenchmarkShardedBuildSeg4Reuters builds four segments in parallel.
func BenchmarkShardedBuildSeg4Reuters(b *testing.B) { benchmarkShardedBuild(b, 4) }

// --- Figures 9/10: disk-resident NRA cost break-up --------------------------

func benchmarkNRADisk(b *testing.B, kind experiments.DatasetKind, frac float64) {
	ds := benchDataset(b, kind)
	rows, err := experiments.RunNRADiskBreakup(ds, corpus.OpAND, []float64{frac}, experiments.K)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[0].DiskMS, "diskms/query")
	b.ReportMetric(rows[0].ComputeMS, "computems/query")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNRADiskBreakup(ds, corpus.OpAND, []float64{frac}, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9NRADisk20Reuters(b *testing.B) { benchmarkNRADisk(b, experiments.Reuters, 0.2) }
func BenchmarkFig10NRADisk20Pubmed(b *testing.B) { benchmarkNRADisk(b, experiments.Pubmed, 0.2) }

// --- Figure 11: NRA traversal depth -----------------------------------------

func benchmarkTraversal(b *testing.B, kind experiments.DatasetKind) {
	ds := benchDataset(b, kind)
	rows, err := experiments.RunTraversalDepth(ds, experiments.K)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[0].MeanPct, "pct-traversed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTraversalDepth(ds, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11TraversalReuters(b *testing.B) { benchmarkTraversal(b, experiments.Reuters) }
func BenchmarkFig11TraversalPubmed(b *testing.B)  { benchmarkTraversal(b, experiments.Pubmed) }

// --- Figures 12/13: NRA-disk vs GM-memory ------------------------------------

func benchmarkDiskVsGM(b *testing.B, kind experiments.DatasetKind) {
	ds := benchDataset(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNRADiskVsGM(ds, []float64{0.2, 0.5}, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12DiskVsGMReuters(b *testing.B) { benchmarkDiskVsGM(b, experiments.Reuters) }
func BenchmarkFig13DiskVsGMPubmed(b *testing.B)  { benchmarkDiskVsGM(b, experiments.Pubmed) }

// --- Tables 4-7 --------------------------------------------------------------

func BenchmarkTable4Samples(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSampleResults(ds, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5IndexSizes(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunIndexSizes(ds, []float64{0.1, 0.2, 0.5}, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6EstimateAccuracy(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEstimateAccuracy(ds, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7Summary(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSummary(ds, experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationBatchSize sweeps NRA's pruning batch b (§4.5: small
// batches in the thousands help; extreme values hurt).
func BenchmarkAblationBatchSize(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	queries := ds.Queries(corpus.OpOR)
	for _, batch := range []int{16, 256, 1024, 16384, 1 << 20} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ds.Index.QueryNRA(rotate(queries, i),
					topk.NRAOptions{K: experiments.K, BatchSize: batch})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckNew measures the value of the checknew gate
// (Alg. 1 line 11).
func BenchmarkAblationCheckNew(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	queries := ds.Queries(corpus.OpOR)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run("checknew="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ds.Index.QueryNRA(rotate(queries, i),
					topk.NRAOptions{K: experiments.K, BatchSize: 256, DisableCheckNew: disable})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMerge times SMJ's loser-tree k-way merge over full
// lists (the binary-heap comparator it used to be set against is gone).
func BenchmarkAblationMerge(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	smj, err := ds.Index.BuildSMJ(1.0)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(corpus.OpOR)
	b.Run("losertree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := ds.Index.QuerySMJ(smj, rotate(queries, i), topk.SMJOptions{K: experiments.K})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFraction sweeps the partial-list fraction beyond the
// paper's grid for NRA.
func BenchmarkAblationFraction(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	queries := ds.Queries(corpus.OpOR)
	for _, frac := range []float64{0.01, 0.05, 0.1, 0.35, 0.75, 1.0} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ds.Index.QueryNRA(rotate(queries, i),
					topk.NRAOptions{K: experiments.K, Fraction: frac})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEarlyStop quantifies Alg. 1's stop test (line 13).
func BenchmarkAblationEarlyStop(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	queries := ds.Queries(corpus.OpAND)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run("earlystop="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ds.Index.QueryNRA(rotate(queries, i),
					topk.NRAOptions{K: experiments.K, BatchSize: 256, DisableEarlyStop: disable})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the substrates ---------------------------------------

func BenchmarkEntryCodec(b *testing.B) {
	e := plist.Entry{Phrase: 123456, Prob: 0.123456}
	var buf [plist.EntrySize]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plist.EncodeEntry(buf[:], e)
		e = plist.DecodeEntry(buf[:])
	}
	_ = e
}

func BenchmarkIndexBuild(b *testing.B) {
	// End-to-end index construction (extraction, dictionary, postings,
	// forward lists, word lists) over a small corpus. The corpus itself
	// is generated once outside the timed loop.
	cfg := synth.ReutersLike().Scale(0.01)
	c, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.BuildOptions{
		Extractor: textproc.ExtractorOptions{MinWords: 1, MaxWords: 6, MinDocFreq: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationForwardCompression compares the plain GM forward index
// with the prefix-compressed variant (same results, smaller index, chain
// expansion at query time).
func BenchmarkAblationForwardCompression(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	queries := ds.Queries(corpus.OpOR)
	gm, err := ds.Index.GM()
	if err != nil {
		b.Fatal(err)
	}
	gmc, err := ds.Index.GMCompressed()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gm.TopK(rotate(queries, i), experiments.K); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		b.ReportMetric(gmc.CompressionRatio(), "stored/full")
		for i := 0; i < b.N; i++ {
			if _, _, err := gmc.TopK(rotate(queries, i), experiments.K); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInclusionExclusion compares the paper's first-order OR
// scoring (Eq. 12) with the second-order truncation of Eq. 11.
func BenchmarkAblationInclusionExclusion(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	smj, err := ds.Index.BuildSMJ(1.0)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(corpus.OpOR)
	for _, second := range []bool{false, true} {
		name := "first-order"
		if second {
			name = "second-order"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ds.Index.QuerySMJ(smj, rotate(queries, i),
					topk.SMJOptions{K: experiments.K, SecondOrderOR: second})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimitsisBaseline measures the third prior-work technique for
// completeness of the Table 3 survey.
func BenchmarkSimitsisBaseline(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	s, err := ds.Index.Simitsis(1)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(corpus.OpOR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopK(rotate(queries, i), experiments.K); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tentpole: parallel index build and concurrent query engine -------------

// benchmarkIndexBuild measures end-to-end index construction (extraction,
// forward/inverted indexes, full-vocabulary word lists) at a worker count.
// docs/s is the throughput figure the parallel-vs-sequential speedup is
// read from.
func benchmarkIndexBuild(b *testing.B, workers int) {
	ds := benchDataset(b, experiments.Reuters)
	opt := core.BuildOptions{
		Extractor: textproc.ExtractorOptions{MinDocFreq: 3},
		Workers:   workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(ds.Corpus, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Corpus.Len())*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkParallelIndexBuild reports sequential vs all-cores build
// throughput; the built indexes are byte-identical (see
// internal/core TestParallelBuildByteIdentical), so the ratio is pure
// speedup.
func BenchmarkParallelIndexBuild(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchmarkIndexBuild(b, w)
		})
	}
}

// --- Tentpole: block-compressed lists and zero-copy snapshots ----------------

// benchCompressedList builds a block-compressed list with realistic shape:
// dense ascending IDs with small-ratio probabilities.
func benchCompressedList(n int, ord plist.Ordering) plist.BlockList {
	rng := rand.New(rand.NewSource(42))
	entries := make([]plist.Entry, n)
	id := uint32(0)
	for i := range entries {
		id += uint32(1 + rng.Intn(8))
		den := 1 + rng.Intn(24)
		num := 1 + rng.Intn(den)
		entries[i] = plist.Entry{Phrase: phrasedict.PhraseID(id), Prob: float64(num) / float64(den)}
	}
	if ord == plist.OrderScore {
		plist.SortScoreOrder(entries)
	}
	data, err := plist.AppendBlockList(nil, entries, ord)
	if err != nil {
		panic(err)
	}
	l, err := plist.NewBlockList(data, n, ord)
	if err != nil {
		panic(err)
	}
	return l
}

// benchCodecList is benchCompressedList with an explicit block codec, for
// packed-vs-varint decode comparisons over identical entries.
func benchCodecList(n int, ord plist.Ordering, codec plist.BlockCodec) plist.BlockList {
	rng := rand.New(rand.NewSource(42))
	entries := make([]plist.Entry, n)
	id := uint32(0)
	for i := range entries {
		id += uint32(1 + rng.Intn(8))
		den := 1 + rng.Intn(24)
		num := 1 + rng.Intn(den)
		entries[i] = plist.Entry{Phrase: phrasedict.PhraseID(id), Prob: float64(num) / float64(den)}
	}
	if ord == plist.OrderScore {
		plist.SortScoreOrder(entries)
	}
	data, _, err := plist.AppendBlockListCodec(nil, entries, ord, codec)
	if err != nil {
		panic(err)
	}
	l, err := plist.NewBlockList(data, n, ord)
	if err != nil {
		panic(err)
	}
	return l
}

// benchmarkBlockDecode measures raw ID-stream decode throughput: the same
// gap sequence decoded from bit-packed frames vs from uvarints. This is
// the per-entry cost the packed codec attacks, isolated from the shared
// probability-dictionary work, and is what the CI -min-speedup gate
// compares (a same-run ratio, so it is machine-independent).
func benchmarkBlockDecode(b *testing.B, packed bool) {
	const nVals = 127 // one max-size list block
	const blocks = 64
	rng := rand.New(rand.NewSource(7))
	frames := make([][]byte, blocks)
	varints := make([][]byte, blocks)
	for f := range frames {
		vals := make([]uint32, nVals)
		for i := range vals {
			vals[i] = uint32(rng.Intn(8))
		}
		frames[f] = bitpack.AppendFrame(nil, vals)
		var enc []byte
		for _, v := range vals {
			enc = binary.AppendUvarint(enc, uint64(v))
		}
		varints[f] = enc
	}
	var dst [nVals]uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % blocks
		if packed {
			if _, err := bitpack.DecodeFrame(dst[:], frames[src]); err != nil {
				b.Fatal(err)
			}
		} else {
			pos := 0
			for j := 0; j < nVals; j++ {
				v, n := binary.Uvarint(varints[src][pos:])
				if n <= 0 {
					b.Fatal("short uvarint")
				}
				dst[j] = uint32(v)
				pos += n
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nVals), "ns/entry")
}

func BenchmarkBlockDecodePacked(b *testing.B) { benchmarkBlockDecode(b, true) }
func BenchmarkBlockDecodeVarint(b *testing.B) { benchmarkBlockDecode(b, false) }

// benchmarkListDecode measures end-to-end list decode (IDs plus the shared
// probability dictionary) under each codec — the cost a full-list scan
// actually pays on a compressed index.
func benchmarkListDecode(b *testing.B, codec plist.BlockCodec) {
	const n = 1 << 16
	l := benchCodecList(n, plist.OrderID, codec)
	var (
		buf []plist.Entry
		err error
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = l.DecodeAll(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
}

func BenchmarkListDecodePacked(b *testing.B) { benchmarkListDecode(b, plist.CodecAuto) }
func BenchmarkListDecodeVarint(b *testing.B) { benchmarkListDecode(b, plist.CodecVarint) }

// BenchmarkCompressedCursorNext measures sequential decode throughput of
// the block cursor (the per-entry cost NRA/SMJ pay on a compressed index).
func BenchmarkCompressedCursorNext(b *testing.B) {
	l := benchCompressedList(1<<16, plist.OrderScore)
	c := plist.NewBlockCursor(l)
	b.SetBytes(plist.EntrySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := c.Next()
		if !ok {
			c.Reset(l)
			continue
		}
		_ = e
	}
}

// BenchmarkCompressedCursorSkipTo measures galloping skip performance over
// the skip table (blocks between cursor and target are never decoded).
func BenchmarkCompressedCursorSkipTo(b *testing.B) {
	const n = 1 << 16
	l := benchCompressedList(n, plist.OrderID)
	c := plist.NewBlockCursor(l)
	// Ascending targets with a stride crossing ~8 blocks per skip.
	stride := phrasedict.PhraseID(8 * plist.BlockLen * 4)
	target := phrasedict.PhraseID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := c.SkipTo(target)
		if !ok {
			c.Reset(l)
			target = 0
			continue
		}
		target = e.Phrase + stride
	}
}

// benchSnapshotFile persists the shared Reuters index once per process.
var benchSnapshotPath string

func benchSnapshot(b *testing.B) string {
	b.Helper()
	if benchSnapshotPath != "" {
		return benchSnapshotPath
	}
	ds := benchDataset(b, experiments.Reuters)
	dir, err := os.MkdirTemp("", "phrasemine-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "bench.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ds.Index.WriteSnapshot(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	benchSnapshotPath = path
	return path
}

// BenchmarkSnapshotLoad measures the fully verified heap deserialization
// (the pre-existing load path): every section is checksummed and decoded.
func BenchmarkSnapshotLoad(b *testing.B) {
	path := benchSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := core.LoadSnapshot(f, 1)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		_ = ix
	}
}

// BenchmarkSnapshotOpenMmap measures the zero-copy open: O(section
// directories), no decode, no checksum pass. The acceptance target is
// >= 10x faster than BenchmarkSnapshotLoad on the smoke corpus.
func BenchmarkSnapshotOpenMmap(b *testing.B) {
	path := benchSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := core.OpenSnapshotFile(path, 1)
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}

// BenchmarkCompressedNRAReuters runs the Fig 7 NRA workload over the
// block-compressed index — the steady-state query cost of the compressed
// layout (compare with the uncompressed BenchmarkAblationFraction/frac=1).
func BenchmarkCompressedNRAReuters(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	opts := core.BuildOptions{
		Extractor:   textproc.ExtractorOptions{MinDocFreq: 3},
		Compression: true,
	}
	ix, err := core.Build(ds.Corpus, opts)
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Queries(corpus.OpOR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.QueryNRA(rotate(queries, i), topk.NRAOptions{K: experiments.K}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMmapQueryReuters serves the Fig 7 NRA workload straight out of
// a mapped snapshot: blocks decode from the mapping into pooled scratch.
func BenchmarkMmapQueryReuters(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	path := benchSnapshot(b)
	ix, err := core.OpenSnapshotFile(path, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := ds.Queries(corpus.OpOR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.QueryNRA(rotate(queries, i), topk.NRAOptions{K: experiments.K}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentMine drives Mine from GOMAXPROCS goroutines against
// one shared Miner — the concurrent-callers hot path of the public API.
func BenchmarkConcurrentMine(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3})
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Features
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			kw := queries[i%len(queries)]
			i++
			if _, err := m.Mine(kw, OR, QueryOptions{}); err != nil {
				// b.Fatal must not run on a RunParallel worker
				// goroutine (testing.FailNow contract).
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMineBatch measures the pooled batch entry point at a server-ish
// batch size.
func BenchmarkMineBatch(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]BatchItem, 0, len(ds.Features))
	for _, kw := range ds.Features {
		items = append(items, BatchItem{Keywords: kw, Op: OR})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range m.MineBatch(items) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// benchmarkMineBatchSharing measures the shared-scan batch executor on a
// compressed miner against the same batch with sharing disabled. The
// workload repeats each query (the server-cache-miss storm shape sharing
// targets), so with sharing on, each keyword list block decodes once per
// group instead of once per query. Queries run SMJ over full lists — the
// most decode-heavy path (a merge join touches every block of every
// feature list); NRA's early termination decodes too few blocks for
// sharing to matter either way. The decodes/op metrics are the real
// signal: sharing cuts paid decodes ~4x (one per group of four). Wall
// clock is near parity on this in-memory workload because the loser-tree
// merge, not decode, dominates SMJ (decode is a few percent of the
// query); the decode saving pays off when blocks are expensive — mapped
// snapshots faulting cold pages, or wider packed frames.
func benchmarkMineBatchSharing(b *testing.B, disable bool) {
	ds := benchDataset(b, experiments.Reuters)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3, Compression: true})
	if err != nil {
		b.Fatal(err)
	}
	var items []BatchItem
	for _, kw := range ds.Features {
		for r := 0; r < 4; r++ {
			items = append(items, BatchItem{
				Keywords: kw,
				Op:       OR,
				Options:  QueryOptions{Algorithm: AlgoSMJ, ListFraction: 1},
			})
		}
	}
	opt := DefaultBatchOptions()
	opt.DisableSharing = disable
	// Materialize the fraction-1 SMJ index outside the timed loop (it is
	// built once and cached, like a served index).
	if out, err := m.MineBatchOpts(items[:1], opt); err != nil || out[0].Err != nil {
		b.Fatalf("SMJ warm-up: %v / %v", err, out[0].Err)
	}
	before := m.IndexStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.MineBatchOpts(items, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	after := m.IndexStats()
	// decodes/op is the number of block decodes actually paid per batch;
	// shared mode reports the saving directly (independent mode touches no
	// counters, so only the shared run emits the metrics).
	if hits := after.SharedScanHits - before.SharedScanHits; hits > 0 || !disable {
		misses := after.SharedScanMisses - before.SharedScanMisses
		b.ReportMetric(float64(misses)/float64(b.N), "decodes/op")
		b.ReportMetric(float64(hits)/float64(b.N), "shareddecodes/op")
	}
}

func BenchmarkMineBatchShared(b *testing.B)      { benchmarkMineBatchSharing(b, false) }
func BenchmarkMineBatchIndependent(b *testing.B) { benchmarkMineBatchSharing(b, true) }

// BenchmarkCanceledMine prices cancellation: the "canceled" series runs
// every query under an already-canceled context, so its cost is pure
// admission overhead — prepare, the entry cancellation check, and the
// error return. Comparing it to the "full" series (same queries,
// background context) shows a canceled query costs a small bounded
// fraction of a completed one; the cooperative checks make mid-run
// cancellation land within one check interval (~1024 entries) of that
// floor.
func BenchmarkCanceledMine(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3})
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.Features
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kw := queries[i%len(queries)]
			if _, err := m.Mine(kw, OR, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("canceled", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < b.N; i++ {
			kw := queries[i%len(queries)]
			if _, err := m.MineCtx(ctx, kw, OR, QueryOptions{}); err == nil {
				b.Fatal("canceled query returned no error")
			}
		}
	})
}

// --- PR-10: live tail ------------------------------------------------------

// benchTailTexts reassembles up to n document texts from the benchmark
// corpus for feeding the live tail, so ingested documents have realistic
// phrase density.
func benchTailTexts(b *testing.B, ds *experiments.Dataset, n int) []string {
	b.Helper()
	tokens, err := ds.Corpus.TokenSlices()
	if err != nil {
		b.Fatal(err)
	}
	if n > len(tokens) {
		n = len(tokens)
	}
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		texts[i] = strings.Join(tokens[i], " ")
	}
	return texts
}

// BenchmarkLiveTailIngest prices one streaming Add on a tail-enabled
// miner: tokenize, delta bookkeeping, the exact tail buffer, and the
// count-min sketch updates. ns/op is nanoseconds per ingested document.
// The pending buffer is discarded off the clock every few thousand
// documents so the measurement stays flat instead of tracking an
// ever-growing tail.
func BenchmarkLiveTailIngest(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	texts := benchTailTexts(b, ds, 256)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3, Tail: TailConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%4096 == 0 {
			b.StopTimer()
			if err := m.DiscardPendingUpdates(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := m.Add(Document{Text: texts[i%len(texts)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkLiveTailQuery measures Mine latency with tailDocs un-flushed
// documents buffered under the given tail configuration.
func benchmarkLiveTailQuery(b *testing.B, segments int, tail TailConfig, tailDocs int) {
	ds := benchDataset(b, experiments.Reuters)
	m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3, Segments: segments, Tail: tail})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for _, text := range benchTailTexts(b, ds, tailDocs) {
		if err := m.Add(Document{Text: text}); err != nil {
			b.Fatal(err)
		}
	}
	// The default algorithm resolution (SMJ at the default fraction) is
	// right for the monolithic engine; on the sharded engine SMJ is the
	// exhaustive scatter scan, so use NRA like the sharded benchmarks
	// above.
	var qopt QueryOptions
	if segments > 1 {
		qopt.Algorithm = AlgoNRA
	}
	queries := ds.Features
	for _, kw := range queries {
		// Warm the lazy engine structures (tallies, cursor caches) so the
		// timed loop measures steady-state latency, like the sharded
		// benchmarks above.
		if _, err := m.Mine(kw, OR, qopt); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kw := queries[i%len(queries)]
		if _, err := m.Mine(kw, OR, qopt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveTailQuery shows the per-query cost of serving with
// un-flushed documents. On the monolithic engine ("base"/"exact"/"sketch",
// 0 vs 64 pending documents) the cost is dominated by the pre-existing
// delta-corrected list scan, not the tail merge — the exact- and
// sketch-path numbers land within noise of each other and of a tail-less
// delta query. The sharded pair isolates the tail itself: sharded engines
// keep pending documents invisible to the segments until Flush, so
// "sharded-tail" vs "sharded-base" is the pure tail-merge overhead.
func BenchmarkLiveTailQuery(b *testing.B) {
	b.Run("base", func(b *testing.B) {
		benchmarkLiveTailQuery(b, 0, TailConfig{}, 0)
	})
	b.Run("exact", func(b *testing.B) {
		benchmarkLiveTailQuery(b, 0, TailConfig{Enabled: true, ExactThreshold: 1 << 20}, 64)
	})
	b.Run("sketch", func(b *testing.B) {
		benchmarkLiveTailQuery(b, 0, TailConfig{Enabled: true, ExactThreshold: -1}, 64)
	})
	b.Run("sharded-base", func(b *testing.B) {
		benchmarkLiveTailQuery(b, 4, TailConfig{}, 0)
	})
	b.Run("sharded-tail", func(b *testing.B) {
		benchmarkLiveTailQuery(b, 4, TailConfig{Enabled: true, ExactThreshold: 1 << 20}, 64)
	})
}

// BenchmarkLiveTailCompact prices compaction: each iteration folds a
// 64-document tail into the base index via Flush. Miner construction and
// the Adds happen off the clock, so ns/op is the rebuild alone; docs/s is
// the sustained compaction throughput.
func BenchmarkLiveTailCompact(b *testing.B) {
	ds := benchDataset(b, experiments.Reuters)
	texts := benchTailTexts(b, ds, 64)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := newMiner(ds.Corpus, Config{MinDocFreq: 3, Tail: TailConfig{Enabled: true}})
		if err != nil {
			b.Fatal(err)
		}
		for _, text := range texts {
			if err := m.Add(Document{Text: text}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := m.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(len(texts))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}
