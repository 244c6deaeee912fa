package main

import (
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"phrasemine"
	"phrasemine/bench/workload"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/diskio/faultfs"
	"phrasemine/internal/livetail"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

const (
	// tailDocs is the pending-document count the un-flushed-path metrics
	// are taken at; flushDocs the batch one flush of ingest_mixed absorbs.
	tailDocs  = 32
	flushDocs = 10
)

// countingFS is the real filesystem with a count of fsyncs and bytes
// written through it: the WAL's device-level work per append.
type countingFS struct {
	faultfs.OS
	syncs, bytes atomic.Int64
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// ingestLayers measures the write path and the un-flushed read path over
// rt, the fixture ingest_mixed serves: delta, live tail, WAL, snapshot
// write, and the Miner operations that combine them.
func (l *ladder) ingestLayers() {
	tmp, err := os.MkdirTemp(filepath.Dir(l.fx), "ladder-")
	must(err)
	defer os.RemoveAll(tmp)

	texts, err := workload.ReadCorpus(l.path("rt.txt"))
	must(err)
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	docs := make([]corpus.Document, 0, 64)
	textBytes := 0
	for _, text := range texts.Texts[:64] {
		docs = append(docs, corpus.Document{Tokens: tok.Tokenize(text)})
		textBytes += len(text)
	}
	// A query costs milliseconds once documents are pending: a fifth of
	// the set keeps three repetitions inside the traced run's time.
	qs := l.harvest("rt")[:40]

	f, err := os.Open(l.path("rt.snap"))
	must(err)
	ix, err := core.LoadSnapshot(f, 1)
	f.Close()
	must(err)

	// core.Delta: add, query with pending documents, rebuild.
	var delta *core.Delta
	l.record("core.delta_add_us", "us", repeat(heavyReps, func() float64 {
		delta, err = ix.NewDelta()
		must(err)
		return passMedian(tailDocs, func(i int) { must(delta.AddDocument(docs[i])) })
	})...)
	l.record("core.delta_nra_us_32", "us", repeat(heavyReps, func() float64 {
		return passMedian(len(qs), func(i int) {
			_, _, err := delta.QueryNRA(qs[i], topk.NRAOptions{K: ladderK})
			must(err)
		})
	})...)
	l.record("core.rebuild_s", "s", repeat(heavyReps, func() float64 {
		d, err := ix.NewDelta()
		must(err)
		for _, doc := range docs[:flushDocs] {
			must(d.AddDocument(doc))
		}
		t := time.Now()
		_, err = d.Flush()
		must(err)
		return time.Since(t).Seconds()
	})...)

	// Live tail and its merge into a base answer.
	var tail *livetail.Tail
	l.record("livetail.add_us", "us", repeat(heavyReps, func() float64 {
		tail, err = livetail.New(livetail.Config{})
		must(err)
		return passMedian(tailDocs, func(i int) { tail.Add(docs[i]) })
	})...)
	l.record("livetail.counts_us", "us", repeat(reps, func() float64 {
		return passMedian(len(qs), func(i int) { tail.Counts(qs[i]) })
	})...)
	l.record("sketch.bytes", "B", float64(tail.Stats().SketchBytes))
	// A query over words of a pending document, so the tail has
	// something to contribute.
	tq := corpus.NewQuery(corpus.OpOR, docs[0].Tokens[0], docs[1].Tokens[0])
	res, _, err := ix.QueryNRA(tq, topk.NRAOptions{K: ladderK})
	must(err)
	mined, err := ix.Resolve(res, tq)
	must(err)
	var base, tailSide []topk.LiveCandidate
	for _, m := range mined {
		base = append(base, topk.LiveCandidate{Phrase: m.Phrase, Score: m.Score, BaseFreq: m.Estimate, BaseDF: 1})
	}
	counts, _, _ := tail.Counts(tq)
	for phrase, freq := range counts {
		tailSide = append(tailSide, topk.LiveCandidate{Phrase: phrase, TailFreq: float64(freq), TailDF: float64(tail.DF(phrase))})
	}
	l.record("topk.tailmerge_us", "us", repeat(reps, func() float64 {
		return passMedian(50, func(int) { topk.MergeLiveTail(base, tailSide, ladderK) })
	})...)

	// WAL: append + sync on a real directory, per sync mode.
	for _, mode := range []diskio.WALSyncMode{diskio.WALSyncBatch, diskio.WALSyncAlways} {
		fs := &countingFS{}
		dir := filepath.Join(tmp, "wal-"+mode.String())
		wal, _, err := diskio.OpenWAL(dir, diskio.WALOptions{Sync: mode, FS: fs})
		must(err)
		fs.syncs.Store(0)
		fs.bytes.Store(0)
		us := passMedian(len(docs), func(i int) {
			seq, err := wal.Append(diskio.WALRecord{Op: diskio.WALAddDocument, Text: texts.Texts[i]})
			must(err)
			must(wal.Sync(seq))
		})
		must(wal.Close())
		l.record("diskio.wal_append_us_"+mode.String(), "us", us)
		if mode == diskio.WALSyncBatch {
			l.record("diskio.wal_fsyncs_per_append", "ratio", float64(fs.syncs.Load())/float64(len(docs)))
			l.record("diskio.wal_bytes_per_doc_byte", "ratio", float64(fs.bytes.Load())/float64(textBytes))
		}
	}

	// Snapshot write, through the atomic-replace path a flush uses.
	snapPath := filepath.Join(tmp, "write.snap")
	l.record("diskio.snapshot_write_ms", "ms", repeat(reps, func() float64 {
		t := time.Now()
		must(diskio.WriteToFileAtomic(snapPath, 0o644, func(w io.Writer) error {
			_, err := ix.WriteSnapshot(w)
			return err
		}))
		return float64(time.Since(t)) / 1e6
	})...)
	written, err := os.Stat(snapPath)
	must(err)
	l.record("diskio.snapshot_bytes_per_doc_byte", "ratio", float64(written.Size())/float64(texts.TextBytes))

	// The Miner, configured as `serve -index ... -wal-dir ... -wal-sync
	// batch` configures it.
	served := filepath.Join(tmp, "served.snap")
	raw, err := os.ReadFile(l.path("rt.snap"))
	must(err)
	must(os.WriteFile(served, raw, 0o644))
	miner, err := phrasemine.LoadMinerFile(served, 1)
	must(err)
	defer miner.Close()
	must(miner.EnableLiveTail(phrasemine.TailConfig{}))
	_, err = miner.EnableWAL(phrasemine.WALConfig{Dir: filepath.Join(tmp, "miner-wal"), Sync: "batch", SnapshotPath: served})
	must(err)
	next := 0
	add := func() {
		must(miner.Add(phrasemine.Document{Text: texts.Texts[next%len(texts.Texts)]}))
		next++
	}
	mineAll := func() float64 {
		return passMedian(len(qs), func(i int) {
			_, err := miner.Mine(qs[i].Features, publicOp(qs[i].Op), phrasemine.QueryOptions{K: ladderK, Algorithm: phrasemine.AlgoNRA})
			must(err)
		})
	}
	l.record("miner.add_us", "us", passMedian(tailDocs, func(int) { add() }))
	l.record("miner.mine_tail32_us", "us", repeat(heavyReps, mineAll)...)
	l.record("miner.flush_s", "s", repeat(heavyReps, func() float64 {
		for miner.PendingUpdates() < flushDocs {
			add()
		}
		t := time.Now()
		must(miner.Flush())
		return time.Since(t).Seconds()
	})...)
	l.record("miner.read_wait_in_flush_ms", "ms", repeat(heavyReps, func() float64 {
		for miner.PendingUpdates() < flushDocs {
			add()
		}
		done := make(chan error, 1)
		go func() { done <- miner.Flush() }()
		time.Sleep(10 * time.Millisecond)
		t := time.Now()
		_, err := miner.Mine(qs[0].Features, publicOp(qs[0].Op), phrasemine.QueryOptions{K: ladderK})
		wait := time.Since(t)
		must(err)
		must(<-done)
		return float64(wait) / 1e6
	})...)
}
