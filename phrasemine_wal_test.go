package phrasemine

// Crash-consistency matrix for the durable mutation WAL: a scripted
// mutation sequence (adds, removals, flush checkpoints) runs over a
// deterministic in-memory filesystem, the process "crashes" at every
// single IO operation in turn (losing all un-fsynced state, including
// torn half-synced tails), and each crashed state is recovered the way a
// restarted server would — load the surviving snapshot, replay the
// surviving log, flush. The invariants checked at every crash point:
//
//  1. Every acknowledged mutation survives (an acked Add/Remove returned
//     only after its record was fsynced).
//  2. At most the one in-flight (un-acked, errored) mutation may appear
//     beyond the acked prefix; nothing else, and never half of one.
//  3. Recovery itself never fails and never reports corruption — crash
//     damage is always a cleanly truncatable tail.
//  4. The recovered miner answers bit-identically to a miner built
//     cleanly from the surviving documents.
//
// One flush adds a document while its rebuild runs off the lock, so the
// checkpoint it writes must keep that record in the log (and replay it
// exactly once) at every crash point too.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phrasemine/internal/core"
	"phrasemine/internal/diskio"
	"phrasemine/internal/diskio/faultfs"
)

// walCorpus is a tiny three-topic corpus: small enough that hundreds of
// recoveries stay fast, repetitive enough that every topic phrase clears
// the document-frequency threshold.
func walCorpus() []string {
	var docs []string
	for i := 0; i < 4; i++ {
		docs = append(docs, fmt.Sprintf("trade reserves economic minister statement %d. economic minister spoke.", i))
		docs = append(docs, fmt.Sprintf("database systems query optimization figures %d. query optimization improves.", i))
		docs = append(docs, fmt.Sprintf("weather sports local report %d.", i))
	}
	return docs
}

func walTestConfig() Config {
	return Config{
		MinPhraseWords:      1,
		MaxPhraseWords:      3,
		MinDocFreq:          2,
		DropStopwordPhrases: true,
	}
}

// walOp is one scripted step: a mutation or a flush checkpoint. A flush
// with text also adds that document while its rebuild runs off the lock.
type walOp struct {
	kind string // "add", "remove" or "flush"
	text string
	doc  int
}

func (op walOp) mutation() bool { return op.kind != "flush" }

// walScriptAcks is how many ops a clean run of the script acknowledges:
// one per step, plus the add a flush carries.
func walScriptAcks() int {
	n := 0
	for _, op := range walScript() {
		n++
		if op.kind == "flush" && op.text != "" {
			n++
		}
	}
	return n
}

// runWALScript executes the script on m until it completes or an
// operation fails, returning the acked prefix and the errored in-flight
// mutation (nil if none, e.g. when a flush hit the crash). A flush's add
// is issued while the monolithic rebuild is held off the lock — after the
// flush on a sharded miner, whose flush holds the lock throughout — so in
// the acked order it follows the flush: pending over the rebuilt index.
func runWALScript(m *Miner) (acked []walOp, inflight *walOp) {
	for _, op := range walScript() {
		op := op
		var err error
		switch op.kind {
		case "add":
			err = m.Add(Document{Text: op.text})
		case "remove":
			err = m.Remove(op.doc)
		case "flush":
			add := walOp{kind: "add", text: op.text}
			var addErr error
			added := false
			if op.text != "" {
				core.BuildHook = func() { added, addErr = true, m.Add(Document{Text: op.text}) }
			}
			err = m.Flush()
			core.BuildHook = nil
			if err == nil {
				acked = append(acked, op)
				if op.text != "" && !added {
					added, addErr = true, m.Add(Document{Text: op.text})
				}
			}
			if added {
				if addErr != nil {
					return acked, &add
				}
				acked = append(acked, add)
			}
			if err != nil {
				return acked, nil
			}
			continue
		}
		if err != nil {
			if op.mutation() {
				inflight = &op
			}
			return acked, inflight
		}
		acked = append(acked, op)
	}
	return acked, nil
}

// walScript mixes mutations with checkpoints so crash points land in
// every phase: logged-but-unflushed, mid-checkpoint, post-truncate, and a
// checkpoint that must keep the record appended during its rebuild.
func walScript() []walOp {
	return []walOp{
		{kind: "add", text: "solar storm warning issued. solar storm warning repeated."},
		{kind: "remove", doc: 0},
		{kind: "add", text: "harvest festival parade delayed. harvest festival parade resumed."},
		{kind: "flush", text: "volcano ash advisory lifted. volcano ash advisory extended."},
		{kind: "add", text: "midnight regatta results posted. midnight regatta results archived."},
		{kind: "remove", doc: 1},
		{kind: "flush"},
	}
}

// walModel simulates the surviving document texts after a prefix of the
// script (plus recovery's final flush): pending removals mark base
// documents, pending additions queue, and each flush keeps survivors in
// order with the additions appended — the engine's documented order.
func walModel(base []string, ops []walOp) []string {
	docs := append([]string(nil), base...)
	var added []string
	removed := map[int]bool{}
	flush := func() {
		var next []string
		for i, d := range docs {
			if !removed[i] {
				next = append(next, d)
			}
		}
		docs = append(next, added...)
		added = nil
		removed = map[int]bool{}
	}
	for _, op := range ops {
		switch op.kind {
		case "add":
			added = append(added, op.text)
		case "remove":
			removed[op.doc] = true
		case "flush":
			flush()
		}
	}
	flush() // recovery always ends in a Flush
	return docs
}

// walFingerprint captures a miner's externally visible answers: document
// count plus full top-10 results (phrases and float-exact scores) for a
// fixed query set.
type walFingerprint struct {
	numDocs int
	answers map[string][]Result
}

var walQueries = [][]string{
	{"trade", "reserves"},
	{"query", "optimization"},
	{"economic"},
}

func fingerprintMiner(t *testing.T, m *Miner) walFingerprint {
	t.Helper()
	fp := walFingerprint{numDocs: m.NumDocuments(), answers: map[string][]Result{}}
	for _, q := range walQueries {
		res, err := m.Mine(q, OR, QueryOptions{K: 10})
		if err != nil {
			t.Fatalf("mining %v: %v", q, err)
		}
		fp.answers[strings.Join(q, "+")] = res
	}
	return fp
}

const (
	walTestSnap = "snap/index.snap"
	walTestDir  = "wal"
)

// walSetup establishes the pre-crash durable state inside mem: a built
// index checkpointed to a snapshot (carrying its WAL marker) plus an
// empty generation-1 log.
func walSetup(t *testing.T, mem *faultfs.Mem) {
	t.Helper()
	m, err := NewMinerFromTexts(walCorpus(), walTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, SnapshotPath: walTestSnap, FS: mem}); err != nil {
		t.Fatal(err)
	}
	if err := diskio.WriteToFileAtomicFS(mem, walTestSnap, 0o644, m.Save); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// walScriptRun loads the miner from mem's snapshot, enables the WAL
// through the fault wrapper, and executes the script until it completes
// or the injected crash makes an operation fail. It returns the acked
// prefix and the errored in-flight mutation (nil if none, e.g. when a
// flush or the WAL open itself hit the crash).
func walScriptRun(t *testing.T, mem *faultfs.Mem, ffs *faultfs.Fault, mode string) (acked []walOp, inflight *walOp) {
	t.Helper()
	raw, err := mem.ReadFile(walTestSnap)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() // the crashed FS may error; recovery is what matters
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, Sync: mode, SnapshotPath: walTestSnap, FS: ffs}); err != nil {
		return nil, nil // crashed before any mutation could be acked
	}
	return runWALScript(m)
}

// walRecover crashes mem, materializes its durable state onto the real
// filesystem, and recovers exactly like a restarted server: load the
// snapshot, replay the log, flush. Any failure here is a lost-durability
// bug, not an acceptable outcome.
func walRecover(t *testing.T, mem *faultfs.Mem, label string) *Miner {
	t.Helper()
	mem.Crash()
	root := t.TempDir()
	if err := mem.ExportDurable(root); err != nil {
		t.Fatalf("%s: exporting durable state: %v", label, err)
	}
	rec, err := LoadMinerFile(filepath.Join(root, walTestSnap), 2)
	if err != nil {
		t.Fatalf("%s: surviving snapshot does not load: %v", label, err)
	}
	if _, err := rec.EnableWAL(WALConfig{Dir: filepath.Join(root, walTestDir)}); err != nil {
		rec.Close()
		t.Fatalf("%s: surviving wal does not replay: %v", label, err)
	}
	if err := rec.Flush(); err != nil {
		rec.Close()
		t.Fatalf("%s: recovery flush: %v", label, err)
	}
	return rec
}

// TestWALConfigEnablesLogging covers the Config-driven path on the real
// filesystem: WALDir arms logging at build time, and a rebuild over the
// same directory replays the surviving mutations into the pending delta
// (a fresh build carries no marker, so everything replays).
func TestWALConfigEnablesLogging(t *testing.T) {
	dir := t.TempDir()
	cfg := walTestConfig()
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WALSync = "always"
	m, err := NewMinerFromTexts(walCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Document{Text: "solar storm warning issued."}); err != nil {
		t.Fatal(err)
	}
	stats, ok := m.WALStats()
	if !ok || stats.Records != 1 || stats.Mode != "always" {
		t.Fatalf("wal stats after one add: %+v ok=%v", stats, ok)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulated restart: same raw input, same WAL directory.
	m2, err := NewMinerFromTexts(walCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.PendingUpdates(); n != 1 {
		t.Fatalf("replayed %d pending updates, want 1", n)
	}
	stats, _ = m2.WALStats()
	if stats.Replayed != 1 {
		t.Fatalf("wal stats after replay: %+v", stats)
	}
}

// TestWALDiscardPendingUpdatesTruncatesLog covers the recovery-path
// interplay: discarded updates must also leave the log, so a restart
// cannot resurrect a delta the operator explicitly dropped, and Save's
// "updates pending" refusal clears in the same call.
func TestWALDiscardPendingUpdatesTruncatesLog(t *testing.T) {
	mem := faultfs.NewMem()
	walSetup(t, mem)
	raw, err := mem.ReadFile(walTestSnap)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, SnapshotPath: walTestSnap, FS: mem}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Document{Text: "solar storm warning issued."}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("Save with pending updates: %v", err)
	}
	if err := m.DiscardPendingUpdates(); err != nil {
		t.Fatal(err)
	}
	if n := m.PendingUpdates(); n != 0 {
		t.Fatalf("%d updates survive the discard", n)
	}
	if err := m.Save(new(bytes.Buffer)); err != nil {
		t.Fatalf("Save after discard: %v", err)
	}
	if stats, _ := m.WALStats(); stats.Records != 0 {
		t.Fatalf("log still holds %d records after discard", stats.Records)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: nothing may replay.
	m2, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	replayed, err := m2.EnableWAL(WALConfig{Dir: walTestDir, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 || m2.PendingUpdates() != 0 {
		t.Fatalf("discarded updates resurrected: replayed=%d pending=%d", replayed, m2.PendingUpdates())
	}
}

// TestWALShardedCheckpointRecovery runs the crash matrix over a sharded
// miner: mutations route through the same WAL, Flush checkpoints into a
// manifest directory (generation-fresh segment files, marker in the
// manifest), and recovery goes through OpenShardedMiner. Answers are
// compared against clean monolithic builds — the sharded engine's
// bit-identical contract.
func TestWALShardedCheckpointRecovery(t *testing.T) {
	base := walCorpus()
	cfg := walTestConfig()
	cfg.Segments = 2
	const manifestDir = "shards"

	setup := func(t *testing.T, mem *faultfs.Mem) {
		t.Helper()
		m, err := NewMinerFromTexts(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, SnapshotPath: manifestDir, FS: mem}); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		err = m.saveManifestLocked(mem, manifestDir, m.currentWALMarker())
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(t *testing.T, mem *faultfs.Mem, ffs *faultfs.Fault) (acked []walOp, inflight *walOp) {
		t.Helper()
		// Load through the volatile view (pre-crash state), like a
		// process that has been running since before the faults began.
		root := t.TempDir()
		for _, name := range []string{diskio.ManifestFileName, "segment-000.snap", "segment-001.snap"} {
			raw, err := mem.ReadFile(manifestDir + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if err := diskio.WriteFileAtomicFS(faultfs.OS{}, filepath.Join(root, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := OpenShardedMiner(root, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, Sync: "always", SnapshotPath: manifestDir, FS: ffs}); err != nil {
			return nil, nil
		}
		return runWALScript(m)
	}
	recover := func(t *testing.T, mem *faultfs.Mem, label string) *Miner {
		t.Helper()
		mem.Crash()
		root := t.TempDir()
		if err := mem.ExportDurable(root); err != nil {
			t.Fatalf("%s: exporting durable state: %v", label, err)
		}
		rec, err := OpenShardedMiner(filepath.Join(root, manifestDir), 2)
		if err != nil {
			t.Fatalf("%s: surviving manifest does not open: %v", label, err)
		}
		if _, err := rec.EnableWAL(WALConfig{Dir: filepath.Join(root, walTestDir)}); err != nil {
			rec.Close()
			t.Fatalf("%s: surviving wal does not replay: %v", label, err)
		}
		if err := rec.Flush(); err != nil {
			rec.Close()
			t.Fatalf("%s: recovery flush: %v", label, err)
		}
		return rec
	}

	refCache := map[string]walFingerprint{}
	reference := func(docs []string) walFingerprint {
		key := strings.Join(docs, "\x1f")
		if fp, ok := refCache[key]; ok {
			return fp
		}
		rm, err := NewMinerFromTexts(docs, walTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprintMiner(t, rm)
		rm.Close()
		refCache[key] = fp
		return fp
	}

	mem := faultfs.NewMem()
	setup(t, mem)
	ffs := faultfs.NewFault(mem)
	acked, inflight := run(t, mem, ffs)
	if inflight != nil || len(acked) != walScriptAcks() {
		t.Fatalf("clean run failed: acked %d/%d ops", len(acked), walScriptAcks())
	}
	totalOps := ffs.Ops()
	rec := recover(t, mem, "clean")
	got := fingerprintMiner(t, rec)
	rec.Close()
	if want := reference(walModel(base, acked)); !reflect.DeepEqual(got, want) {
		t.Fatalf("clean run: recovered sharded answers differ from monolithic build over survivors (%d vs %d docs)", got.numDocs, want.numDocs)
	}

	// The sharded matrix samples every third IO step (plus the final
	// one): each recovery re-opens and re-merges every segment, so the
	// full enumeration the monolithic matrix runs would dominate the
	// test suite for no added coverage of the shared WAL logic.
	for crashAt := 1; crashAt <= totalOps; crashAt += 3 {
		label := fmt.Sprintf("crash@%d/%d", crashAt, totalOps)
		mem := faultfs.NewMem()
		setup(t, mem)
		ffs := faultfs.NewFault(mem)
		ffs.CrashAt(crashAt)
		acked, inflight := run(t, mem, ffs)
		rec := recover(t, mem, label)
		got := fingerprintMiner(t, rec)
		rec.Close()
		candidates := [][]walOp{acked}
		if inflight != nil {
			candidates = append(candidates, append(append([]walOp(nil), acked...), *inflight))
		}
		matched := false
		for _, cand := range candidates {
			if reflect.DeepEqual(got, reference(walModel(base, cand))) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("%s: recovered state (%d docs) matches neither the %d acked ops nor acked+inflight (inflight=%v)",
				label, got.numDocs, len(acked), inflight)
		}
	}
}

func TestWALCrashConsistencyMatrix(t *testing.T) {
	base := walCorpus()
	refCache := map[string]walFingerprint{}
	reference := func(docs []string) walFingerprint {
		key := strings.Join(docs, "\x1f")
		if fp, ok := refCache[key]; ok {
			return fp
		}
		rm, err := NewMinerFromTexts(docs, walTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprintMiner(t, rm)
		rm.Close()
		refCache[key] = fp
		return fp
	}

	for _, mode := range []string{"always", "batch"} {
		t.Run(mode, func(t *testing.T) {
			// Clean run: validates the document-order model against the
			// real engine and sizes the crash matrix.
			mem := faultfs.NewMem()
			walSetup(t, mem)
			ffs := faultfs.NewFault(mem)
			acked, inflight := walScriptRun(t, mem, ffs, mode)
			if inflight != nil || len(acked) != walScriptAcks() {
				t.Fatalf("clean run failed: acked %d/%d ops", len(acked), walScriptAcks())
			}
			totalOps := ffs.Ops()
			if totalOps < 20 {
				t.Fatalf("suspiciously small crash matrix: %d IO ops", totalOps)
			}
			t.Logf("crash matrix: %d IO ops", totalOps)
			rec := walRecover(t, mem, "clean")
			got := fingerprintMiner(t, rec)
			rec.Close()
			if want := reference(walModel(base, acked)); !reflect.DeepEqual(got, want) {
				t.Fatalf("clean run: recovered answers differ from clean build over survivors (%d vs %d docs)", got.numDocs, want.numDocs)
			}

			for crashAt := 1; crashAt <= totalOps; crashAt++ {
				label := fmt.Sprintf("crash@%d/%d", crashAt, totalOps)
				mem := faultfs.NewMem()
				walSetup(t, mem)
				ffs := faultfs.NewFault(mem)
				ffs.CrashAt(crashAt)
				acked, inflight := walScriptRun(t, mem, ffs, mode)
				rec := walRecover(t, mem, label)
				got := fingerprintMiner(t, rec)
				rec.Close()

				// The recovered state must be the acked prefix, plus at
				// most the single in-flight mutation.
				candidates := [][]walOp{acked}
				if inflight != nil {
					withInflight := append(append([]walOp(nil), acked...), *inflight)
					candidates = append(candidates, withInflight)
				}
				matched := false
				for _, cand := range candidates {
					if reflect.DeepEqual(got, reference(walModel(base, cand))) {
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("%s: recovered state (%d docs) matches neither the %d acked ops nor acked+inflight (inflight=%v)",
						label, got.numDocs, len(acked), inflight)
				}
			}
		})
	}
}

// noWALReplaceFS refuses to stage files in the WAL directory, so a
// checkpoint installs its snapshot but cannot replace the log.
type noWALReplaceFS struct{ faultfs.FS }

func (f noWALReplaceFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	if dir == walTestDir {
		return nil, fmt.Errorf("staging %s in %s refused", pattern, dir)
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestWALCheckpointSyncsFrozenRecords covers a batch-mode Add caught by a
// flush between its apply and its group commit: its record lies inside the
// checkpoint's prefix but is not yet durable. The checkpoint must fsync it
// before a snapshot claims it — otherwise a crash leaves a snapshot whose
// marker counts records the surviving log does not hold, and recovery
// refuses the log. The crash lands between the snapshot install and the
// log's replacement, the one window where the old log meets the new
// marker.
func TestWALCheckpointSyncsFrozenRecords(t *testing.T) {
	mem := faultfs.NewMem()
	walSetup(t, mem)
	raw, err := mem.ReadFile(walTestSnap)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fsys := noWALReplaceFS{mem}
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, Sync: "batch", SnapshotPath: walTestSnap, FS: fsys}); err != nil {
		t.Fatal(err)
	}
	// Add's first half: logged and applied under the lock, not yet synced.
	addUnsynced := func(text string) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, err := m.wal.Append(diskio.WALRecord{Op: diskio.WALAddDocument, Text: text}); err != nil {
			t.Fatal(err)
		}
		if err := m.applyRecordLocked(diskio.WALRecord{Op: diskio.WALAddDocument, Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	frozen := walOp{kind: "add", text: "solar storm warning issued. solar storm warning repeated."}
	suffix := walOp{kind: "add", text: "volcano ash advisory lifted. volcano ash advisory extended."}
	addUnsynced(frozen.text)
	core.BuildHook = func() { addUnsynced(suffix.text) }
	err = m.Flush()
	core.BuildHook = nil
	if err == nil {
		t.Fatal("flush succeeded although the log could not be replaced")
	}
	rec := walRecover(t, mem, "crash after the snapshot install")
	got := fingerprintMiner(t, rec)
	rec.Close()
	base := walCorpus()
	for _, ops := range [][]walOp{{frozen, {kind: "flush"}}, {frozen, {kind: "flush"}, suffix}} {
		ref, err := NewMinerFromTexts(walModel(base, ops), walTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprintMiner(t, ref)
		ref.Close()
		if reflect.DeepEqual(got, want) {
			return
		}
	}
	t.Fatalf("recovered state (%d docs) is neither the frozen document alone nor with the unacknowledged suffix", got.numDocs)
}
