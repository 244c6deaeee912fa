package core

import (
	"bytes"
	"reflect"
	"testing"

	"phrasemine/internal/corpus"
	"phrasemine/internal/synth"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

func topkNRAOpts() topk.NRAOptions { return topk.NRAOptions{K: 5} }
func topkSMJOpts() topk.SMJOptions { return topk.SMJOptions{K: 5} }

func parallelTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	cfg := synth.ReutersLike().Scale(0.015)
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildAt(t *testing.T, c *corpus.Corpus, workers, shards int) *Index {
	t.Helper()
	ix, err := Build(c, BuildOptions{
		Extractor: textproc.ExtractorOptions{MinDocFreq: 3},
		Workers:   workers,
		Shards:    shards,
	})
	if err != nil {
		t.Fatalf("Build(workers=%d): %v", workers, err)
	}
	return ix
}

// serialize renders the whole index snapshot — corpus, dictionary,
// inverted index, phrase documents and lists — to bytes; the byte-identity
// of the snapshot is the strongest equivalence statement the system can
// make.
func serialize(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildByteIdentical asserts the tentpole determinism contract:
// index construction at any worker/shard count produces a byte-identical
// snapshot and structurally identical in-memory indexes to the sequential
// (Workers=1) build.
func TestParallelBuildByteIdentical(t *testing.T) {
	c := parallelTestCorpus(t)
	seq := buildAt(t, c, 1, 0)
	seqSnap := serialize(t, seq)

	for _, tc := range []struct{ workers, shards int }{
		{2, 0}, {4, 0}, {4, 3}, {8, 31},
	} {
		par := buildAt(t, c, tc.workers, tc.shards)
		if !bytes.Equal(seqSnap, serialize(t, par)) {
			t.Errorf("workers=%d shards=%d: snapshot bytes diverge", tc.workers, tc.shards)
		}
		if !reflect.DeepEqual(seq.PhraseDF, par.PhraseDF) {
			t.Errorf("workers=%d: PhraseDF diverges", tc.workers)
		}
		if !reflect.DeepEqual(seq.PhraseDocs, par.PhraseDocs) {
			t.Errorf("workers=%d: PhraseDocs diverges", tc.workers)
		}
		if !reflect.DeepEqual(seq.Forward, par.Forward) {
			t.Errorf("workers=%d: Forward index diverges", tc.workers)
		}
		for _, f := range seq.Inverted.Features() {
			seqDocs, err := seq.Inverted.Docs(f)
			if err != nil {
				t.Fatal(err)
			}
			parDocs, err := par.Inverted.Docs(f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqDocs, parDocs) {
				t.Fatalf("workers=%d: inverted postings diverge for %q", tc.workers, f)
			}
		}
		if seq.Inverted.VocabSize() != par.Inverted.VocabSize() {
			t.Errorf("workers=%d: vocab size %d vs %d", tc.workers, par.Inverted.VocabSize(), seq.Inverted.VocabSize())
		}
	}
}

// TestParallelBuildIdenticalQueryResults runs the same query workload over
// sequential- and parallel-built indexes and requires identical results
// from every algorithm, at full and truncated lists.
func TestParallelBuildIdenticalQueryResults(t *testing.T) {
	c := parallelTestCorpus(t)
	seq := buildAt(t, c, 1, 0)
	par := buildAt(t, c, 4, 9)

	feats := seq.Inverted.TopFeaturesByDocFreq(40)
	queries := make([]corpus.Query, 0, 40)
	for i := 0; i+1 < len(feats) && len(queries) < 30; i += 2 {
		queries = append(queries,
			corpus.NewQuery(corpus.OpOR, feats[i], feats[i+1]),
			corpus.NewQuery(corpus.OpAND, feats[i], feats[i+1]),
		)
	}
	if len(queries) == 0 {
		t.Fatal("no queries harvested")
	}

	smjSeq, smjPar := mustSMJ(seq, 0.5), mustSMJ(par, 0.5)
	if !reflect.DeepEqual(smjSeq.Lists, smjPar.Lists) {
		t.Error("SMJ index (fraction 0.5) diverges between sequential and parallel builds")
	}
	for _, q := range queries {
		rs, _, err := seq.QueryNRA(q, topkNRAOpts())
		if err != nil {
			t.Fatal(err)
		}
		rp, _, err := par.QueryNRA(q, topkNRAOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, rp) {
			t.Fatalf("NRA results diverge for %v: %v vs %v", q, rs, rp)
		}
		ss, _, err := seq.QuerySMJ(smjSeq, q, topkSMJOpts())
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := par.QuerySMJ(smjPar, q, topkSMJOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ss, sp) {
			t.Fatalf("SMJ results diverge for %v: %v vs %v", q, ss, sp)
		}
	}
}
