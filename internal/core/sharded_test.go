package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio/faultfs"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

func smokeCorpus(seed int64, docs int) *corpus.Corpus {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"trade", "reserves", "economic", "minister", "bank", "rate",
		"database", "query", "optimization", "systems", "index", "join",
		"weather", "storm", "coast", "report", "week", "statement"}
	c := corpus.New()
	for i := 0; i < docs; i++ {
		n := 6 + rng.Intn(10)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = words[rng.Intn(len(words))]
		}
		c.Add(corpus.Document{Tokens: toks})
	}
	return c
}

func TestShardedSmoke(t *testing.T) {
	c := smokeCorpus(7, 300)
	opt := BuildOptions{Extractor: textproc.ExtractorOptions{MinDocFreq: 3, MaxWords: 3, DropAllStopwordPhrases: true}}
	mono, err := Build(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	smj := mustSMJ(mono, 1.0)
	for _, nseg := range []int{1, 2, 4, 7} {
		sx, err := BuildSharded(c, opt, nseg)
		if err != nil {
			t.Fatal(err)
		}
		if sx.NumPhrases() != mono.NumPhrases() {
			t.Fatalf("N=%d: |P| %d vs %d", nseg, sx.NumPhrases(), mono.NumPhrases())
		}
		if sx.VocabSize() != mono.Inverted.VocabSize() {
			t.Fatalf("N=%d: |W| %d vs %d", nseg, sx.VocabSize(), mono.Inverted.VocabSize())
		}
		queries := [][]string{{"trade"}, {"trade", "reserves"}, {"query", "optimization", "systems"}, {"bank", "rate"}, {"storm", "coast", "weather"}}
		for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
			for _, kws := range queries {
				q := corpus.NewQuery(op, kws...)
				want, _, err := mono.QuerySMJ(smj, q, topk.SMJOptions{K: 5})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sx.QuerySMJ(context.Background(), q, 5, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEq(want, got) {
					t.Fatalf("N=%d %v SMJ: want %v got %v", nseg, q, want, got)
				}
				gotN, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEq(want, gotN) {
					t.Fatalf("N=%d %v NRA: want %v got %v", nseg, q, want, gotN)
				}
				gm, err := mono.GM()
				if err != nil {
					t.Fatal(err)
				}
				wg, _, err := gm.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				gg, err := sx.QueryGM(context.Background(), q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(wg) != len(gg) {
					t.Fatalf("N=%d %v GM: len %d vs %d", nseg, q, len(wg), len(gg))
				}
				for i := range wg {
					if wg[i].Phrase != gg[i].Phrase || math.Float64bits(wg[i].Score) != math.Float64bits(gg[i].Score) {
						t.Fatalf("N=%d %v GM row %d: %+v vs %+v", nseg, q, i, wg[i], gg[i])
					}
				}
			}
		}
		t.Logf("N=%d ok |P|=%d", nseg, sx.NumPhrases())
	}
}

func bitEq(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Phrase != b[i].Phrase || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestShardedFlushSmoke(t *testing.T) {
	c := smokeCorpus(11, 200)
	opt := BuildOptions{Extractor: textproc.ExtractorOptions{MinDocFreq: 3, MaxWords: 3, DropAllStopwordPhrases: true}}
	sx, err := BuildSharded(c, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Add docs, remove a couple, flush, compare against a monolith over the
	// same logical corpus.
	extra := smokeCorpus(99, 20)
	for i := 0; i < extra.Len(); i++ {
		sx.AddDocument(extra.MustDoc(corpus.DocID(i)))
	}
	if err := sx.RemoveDocument(5); err != nil {
		t.Fatal(err)
	}
	if err := sx.RemoveDocument(150); err != nil {
		t.Fatal(err)
	}
	if got := sx.PendingUpdates(); got != 22 {
		t.Fatalf("pending %d", got)
	}
	if err := sx.Flush(); err != nil {
		t.Fatal(err)
	}
	if sx.PendingUpdates() != 0 {
		t.Fatal("pending after flush")
	}

	ref := corpus.New()
	for i := 0; i < c.Len(); i++ {
		if i == 5 || i == 150 {
			continue
		}
		ref.Add(c.MustDoc(corpus.DocID(i)))
	}
	// Additions land in the write segment, i.e. at the end of the global
	// doc space... but removals shift earlier segments. Reconstruct the
	// expected order: per segment in order, minus removals, adds at the end.
	// Our ref above keeps original order minus removed, then adds appended.
	for i := 0; i < extra.Len(); i++ {
		ref.Add(extra.MustDoc(corpus.DocID(i)))
	}
	if sx.NumDocs() != ref.Len() {
		t.Fatalf("docs %d vs %d", sx.NumDocs(), ref.Len())
	}
	mono, err := Build(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumPhrases() != mono.NumPhrases() {
		t.Fatalf("|P| %d vs %d after flush", sx.NumPhrases(), mono.NumPhrases())
	}
	smj := mustSMJ(mono, 1.0)
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, kws := range [][]string{{"trade"}, {"trade", "reserves"}, {"query", "optimization", "systems"}} {
			q := corpus.NewQuery(op, kws...)
			want, _, err := mono.QuerySMJ(smj, q, topk.SMJOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(want, got) {
				t.Fatalf("%v after flush: want %v got %v", q, want, got)
			}
		}
	}
}

func TestShardedManifestSmoke(t *testing.T) {
	c := smokeCorpus(7, 300)
	opt := BuildOptions{Extractor: textproc.ExtractorOptions{MinDocFreq: 3, MaxWords: 3, DropAllStopwordPhrases: true}}
	sx, err := BuildSharded(c, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := sx.SaveSegmentsFS(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSharded(dir, man, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.NumPhrases() != sx.NumPhrases() || opened.NumDocs() != sx.NumDocs() {
		t.Fatalf("shape: %d/%d vs %d/%d", opened.NumPhrases(), opened.NumDocs(), sx.NumPhrases(), sx.NumDocs())
	}
	for _, op := range []corpus.Operator{corpus.OpAND, corpus.OpOR} {
		for _, kws := range [][]string{{"trade", "reserves"}, {"query", "optimization", "systems"}} {
			q := corpus.NewQuery(op, kws...)
			want, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opened.QueryNRA(context.Background(), q, 5, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(want, got) {
				t.Fatalf("%v reopened: %v vs %v", q, want, got)
			}
			wg, err := sx.QueryGM(context.Background(), q, 5)
			if err != nil {
				t.Fatal(err)
			}
			gg, err := opened.QueryGM(context.Background(), q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEq(wg, gg) {
				t.Fatalf("%v GM reopened diverges", q)
			}
		}
	}
	// Flush on a reopened engine re-derives tallies and stays exact.
	opened.AddDocument(corpus.Document{Tokens: []string{"trade", "reserves", "trade", "reserves"}})
	if err := opened.Flush(); err != nil {
		t.Fatal(err)
	}
	if opened.NumDocs() != sx.NumDocs()+1 {
		t.Fatalf("docs after reopened flush: %d", opened.NumDocs())
	}
}

// TestShardedFlushRefusalLeavesStateIntact locks the atomicity of a
// refused Flush: when a removal set would empty a segment, the refusal
// must leave the engine exactly as it was — same documents, same
// answers, updates still pending — rather than having already rewritten
// earlier segments' corpora (which would make a later retry resolve the
// retained removal IDs against shifted documents).
func TestShardedFlushRefusalLeavesStateIntact(t *testing.T) {
	c := smokeCorpus(3, 60)
	opt := BuildOptions{Extractor: textproc.ExtractorOptions{MinDocFreq: 3, MaxWords: 3, DropAllStopwordPhrases: true}}
	sx, err := BuildSharded(c, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := corpus.NewQuery(corpus.OpOR, "trade", "reserves")
	before, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one doc from segment 0 AND every doc of segment 1, so the
	// flush refuses after segment 0's corpus would already have been
	// staged.
	if err := sx.RemoveDocument(0); err != nil {
		t.Fatal(err)
	}
	lo, hi := sx.remap.Global(1, 0), sx.remap.Global(2, 0)
	for id := lo; id < hi; id++ {
		if err := sx.RemoveDocument(id); err != nil {
			t.Fatal(err)
		}
	}
	pending := sx.PendingUpdates()
	if err := sx.Flush(); err == nil {
		t.Fatal("flush emptying a segment did not refuse")
	}
	if sx.NumDocs() != c.Len() {
		t.Fatalf("refused flush changed NumDocs: %d vs %d", sx.NumDocs(), c.Len())
	}
	if got := sx.PendingUpdates(); got != pending {
		t.Fatalf("refused flush changed pending updates: %d vs %d", got, pending)
	}
	after, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEq(before, after) {
		t.Fatalf("refused flush changed answers: %v vs %v", before, after)
	}
	// The segment corpora themselves must be untouched: doc 0 still
	// resolves to the original first document.
	if sx.segs[0].c.Len() != sx.remap.SegmentLen(0) {
		t.Fatalf("segment 0 corpus mutated by refused flush")
	}
	// DiscardPendingUpdates is the recovery path: it unblocks Flush
	// without ever having applied the poisoned removal set.
	sx.DiscardPendingUpdates()
	if sx.PendingUpdates() != 0 {
		t.Fatal("DiscardPendingUpdates left pending updates")
	}
	if err := sx.Flush(); err != nil {
		t.Fatalf("flush after discard: %v", err)
	}
	recovered, err := sx.QueryNRA(context.Background(), q, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEq(before, recovered) {
		t.Fatalf("recovered engine diverges: %v vs %v", before, recovered)
	}
}
