package phrasemine

// Tests for the monolithic Flush's off-lock window: between the brief
// freeze and install swaps, queries and Adds run against the previous
// index plus its pending updates while the rebuild and the snapshot write
// proceed, and the operations that must not interleave with it wait.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"phrasemine/internal/core"
	"phrasemine/internal/diskio/faultfs"
)

// offLockTimeout bounds every wait that would hang if the window were
// still under the write lock.
const offLockTimeout = 10 * time.Second

// within runs f on its own goroutine and fails the test if it does not
// return in time — a call blocked on the miner's write lock never would.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(offLockTimeout):
		t.Fatalf("%s blocked: the flush window holds the write lock", what)
	}
}

// The updates of the tests below: the frozen generation (a removal plus
// these additions) and the document added inside the window. Their phrases
// repeat so they clear MinDocFreq 2 once flushed.
var (
	frozenAdds = []string{
		"solar storm warning issued. solar storm warning repeated.",
		"harvest festival parade delayed. harvest festival parade resumed.",
		"solar storm warning lifted. harvest festival parade ended.",
	}
	windowAdd = "volcano ash advisory lifted. volcano ash advisory extended. solar storm warning."
)

// offLockQueries probe the base topics, the frozen documents and the
// window document.
var offLockQueries = [][]string{
	{"trade", "reserves"},
	{"solar", "storm"},
	{"volcano", "ash"},
	{"harvest", "parade"},
}

// answers fingerprints a miner: document and pending counts plus the
// detailed answers (results and tail markers) of every probe query under
// both list algorithms and both operators.
func answers(t *testing.T, m *Miner) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "docs=%d pending=%d\n", m.NumDocuments(), m.PendingUpdates())
	for _, q := range offLockQueries {
		for _, algo := range []Algorithm{AlgoNRA, AlgoSMJ} {
			for _, op := range []Operator{AND, OR} {
				mined, err := m.MineDetailed(nil, q, op, QueryOptions{K: 8, Algorithm: algo})
				if err != nil {
					t.Fatalf("mining %v %s %s: %v", q, op, algo, err)
				}
				fmt.Fprintf(&b, "%v %s %s tail=%d approx=%v %+v\n", q, op, algo, mined.TailDocs, mined.Approximate, mined.Results)
			}
		}
	}
	return b.String()
}

func offLockConfig() Config {
	cfg := walTestConfig()
	cfg.Tail = TailConfig{Enabled: true}
	return cfg
}

// coldMiner builds a tail-enabled miner over texts and adds pending
// without flushing: the reference a flushed miner must answer like. The
// miner closes when the test ends.
func coldMiner(t *testing.T, texts []string, pending ...string) *Miner {
	t.Helper()
	m, err := NewMinerFromTexts(texts, offLockConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for _, text := range pending {
		if err := m.Add(Document{Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// frozenMiner is a miner over walCorpus with the frozen generation
// pending, and base+frozen is the corpus a flush of it builds.
func frozenMiner(t *testing.T) (m *Miner, flushedTexts []string) {
	t.Helper()
	base := walCorpus()
	m = coldMiner(t, base)
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	for _, text := range frozenAdds {
		if err := m.Add(Document{Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	return m, append(append([]string(nil), base[1:]...), frozenAdds...)
}

// holdBuild starts m.Flush on its own goroutine and returns once the
// flush is paused inside core.Build; release lets it finish and returns
// its error. A test that fails first releases it on cleanup, ahead of the
// miner's Close (which waits for the flush).
func holdBuild(t *testing.T, m *Miner) (release func() error) {
	t.Helper()
	entered, resume := make(chan struct{}), make(chan struct{})
	core.BuildHook = func() {
		close(entered)
		<-resume
	}
	flushed := make(chan error, 1)
	go func() { flushed <- m.Flush() }()
	<-entered
	var once sync.Once
	var err error
	release = func() error {
		once.Do(func() {
			close(resume)
			err = <-flushed
			core.BuildHook = nil
		})
		return err
	}
	t.Cleanup(func() { release() })
	return release
}

// TestFlushOffLockWindow holds a Flush inside core.Build: queries and Adds
// proceed — so no lock they take is held around the build — the added
// document is served from the live tail at once, and pending counts cover
// frozen and new documents. After release the
// miner answers exactly like a cold build over the base plus the frozen
// documents with the window's document pending, and a second Flush like a
// cold build over everything.
func TestFlushOffLockWindow(t *testing.T) {
	m, flushedTexts := frozenMiner(t)
	release := holdBuild(t, m)

	within(t, "Mine during the build", func() error {
		_, err := m.Mine([]string{"trade", "reserves"}, OR, QueryOptions{})
		return err
	})
	within(t, "Add during the build", func() error {
		return m.Add(Document{Text: windowAdd})
	})
	mined, err := m.MineDetailed(nil, []string{"volcano"}, OR, QueryOptions{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	if mined.TailDocs != 1 || !containsPhrase(mined.Results, "volcano ash advisory") {
		t.Fatalf("document added during the build not served from the tail: tail=%d %+v", mined.TailDocs, mined.Results)
	}
	if got, want := m.PendingUpdates(), 1+len(frozenAdds)+1; got != want {
		t.Fatalf("PendingUpdates during the build = %d, want %d (frozen + new)", got, want)
	}

	if err := release(); err != nil {
		t.Fatal(err)
	}
	cold := coldMiner(t, flushedTexts, windowAdd)
	if got, want := answers(t, m), answers(t, cold); got != want {
		t.Fatalf("after the flush, answers differ from a cold build over base+frozen with the window document pending:\n got %s\nwant %s", got, want)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	all := coldMiner(t, append(flushedTexts, windowAdd))
	if got, want := answers(t, m), answers(t, all); got != want {
		t.Fatalf("after the second flush, answers differ from a cold build over all documents:\n got %s\nwant %s", got, want)
	}
}

// TestFlushOffLockWaiters: the operations that cannot interleave with a
// rebuild — Remove (its document index refers to the index being
// replaced), DiscardPendingUpdates, Save, EnableWAL and Close — block
// until the held build is released, then complete.
func TestFlushOffLockWaiters(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(m *Miner) error
	}{
		{"Remove", func(m *Miner) error { return m.Remove(1) }},
		{"DiscardPendingUpdates", func(m *Miner) error { return m.DiscardPendingUpdates() }},
		{"Save", func(m *Miner) error { return m.Save(new(bytes.Buffer)) }},
		{"EnableWAL", func(m *Miner) error {
			_, err := m.EnableWAL(WALConfig{Dir: "wal", FS: faultfs.NewMem()})
			return err
		}},
		{"Close", func(m *Miner) error { return m.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := frozenMiner(t)
			release := holdBuild(t, m)
			done := make(chan error, 1)
			go func() { done <- tc.op(m) }()
			select {
			case err := <-done:
				t.Fatalf("%s returned during the held build (err %v)", tc.name, err)
			case <-time.After(100 * time.Millisecond):
			}
			// Queries and Adds still run beside the waiter.
			within(t, "Mine beside the waiter", func() error {
				_, err := m.Mine([]string{"solar"}, OR, QueryOptions{})
				return err
			})
			if err := release(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s after the flush: %v", tc.name, err)
				}
			case <-time.After(offLockTimeout):
				t.Fatalf("%s still blocked after the flush finished", tc.name)
			}
		})
	}
}

// renameHookFS runs onRename as a file is renamed onto target — inside a
// snapshot write, between fsyncing the staged file and installing it.
type renameHookFS struct {
	faultfs.FS
	target   string
	onRename func()
}

func (f *renameHookFS) Rename(oldpath, newpath string) error {
	if newpath == f.target && f.onRename != nil {
		f.onRename()
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestFlushOffLockSnapshotWrite checks the persist step: the checkpoint
// snapshot is written with no lock held (a query and an Add complete from
// inside it), the Add's record alone moves to the next log generation, and
// a restart from the checkpoint replays exactly that record into an
// answer-identical miner.
func TestFlushOffLockSnapshotWrite(t *testing.T) {
	mem := faultfs.NewMem()
	fsys := &renameHookFS{FS: mem, target: walTestSnap}
	m, _ := frozenMiner(t)
	// The frozen generation predates the log; flush it so the checkpoint
	// below covers logged records only.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, Sync: "batch", SnapshotPath: walTestSnap, FS: fsys}); err != nil {
		t.Fatal(err)
	}
	for _, text := range frozenAdds {
		if err := m.Add(Document{Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	fsys.onRename = func() {
		fsys.onRename = nil
		within(t, "Mine during the snapshot write", func() error {
			_, err := m.Mine([]string{"solar", "storm"}, AND, QueryOptions{})
			return err
		})
		within(t, "Add during the snapshot write", func() error {
			return m.Add(Document{Text: windowAdd})
		})
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if fsys.onRename != nil {
		t.Fatal("the flush wrote no checkpoint snapshot")
	}
	stats, _ := m.WALStats()
	if stats.Generation != 2 || stats.Records != 1 {
		t.Fatalf("checkpoint with a record after it: wal %+v, want generation 2 holding that record", stats)
	}

	raw, err := mem.ReadFile(walTestSnap)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if err := restarted.EnableLiveTail(TailConfig{}); err != nil {
		t.Fatal(err)
	}
	replayed, err := restarted.EnableWAL(WALConfig{Dir: walTestDir, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("restart replayed %d records, want exactly the one added during the snapshot write", replayed)
	}
	if got, want := answers(t, restarted), answers(t, m); got != want {
		t.Fatalf("restarted miner answers differ from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestFlushOffLockLogBounded adds a document inside every checkpointing
// flush's build, as steady ingest beside background compaction does: each
// checkpoint leaves the log holding only that document's record, so the
// log never grows with the history, and a restart replays just it.
func TestFlushOffLockLogBounded(t *testing.T) {
	mem := faultfs.NewMem()
	m := coldMiner(t, walCorpus())
	if _, err := m.EnableWAL(WALConfig{Dir: walTestDir, Sync: "batch", SnapshotPath: walTestSnap, FS: mem}); err != nil {
		t.Fatal(err)
	}
	// Equal-length texts, so every record has the same size.
	text := func(i int) string {
		return fmt.Sprintf("volcano ash advisory %d lifted. volcano ash advisory extended.", i)
	}
	if err := m.Add(Document{Text: text(10)}); err != nil {
		t.Fatal(err)
	}
	defer func() { core.BuildHook = nil }()
	var first WALStats
	for i := 11; i < 30; i++ {
		core.BuildHook = func() {
			within(t, "Add during the build", func() error { return m.Add(Document{Text: text(i)}) })
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		stats, _ := m.WALStats()
		if i == 11 {
			first = stats
		}
		if stats.Records != 1 || stats.Bytes != first.Bytes {
			t.Fatalf("flush %d: wal %+v, want the one record added during the build (%d bytes after the first flush)", i-10, stats, first.Bytes)
		}
	}
	core.BuildHook = nil

	raw, err := mem.ReadFile(walTestSnap)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := LoadMiner(bytes.NewReader(raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if err := restarted.EnableLiveTail(TailConfig{}); err != nil {
		t.Fatal(err)
	}
	replayed, err := restarted.EnableWAL(WALConfig{Dir: walTestDir, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("restart replayed %d records, want the one added during the last build", replayed)
	}
	if got, want := answers(t, restarted), answers(t, m); got != want {
		t.Fatalf("restarted miner answers differ from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestFlushOffLockConcurrent interleaves checkpointing flushes with
// concurrent queries and logged Adds (run it under -race, many times):
// every query succeeds, no acknowledged document is lost or counted twice,
// once the writer stops a final Flush answers like a cold build over the
// base plus every added document in order, and a restart from the
// checkpoint and the log answers the same.
func TestFlushOffLockConcurrent(t *testing.T) {
	base := walCorpus()
	m := coldMiner(t, base)
	dir := t.TempDir()
	snap, walDir := filepath.Join(dir, "index.snap"), filepath.Join(dir, "wal")
	if _, err := m.EnableWAL(WALConfig{Dir: walDir, Sync: "batch", SnapshotPath: snap}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := offLockQueries[(i+r)%len(offLockQueries)]
				if _, err := m.Mine(q, OR, QueryOptions{K: 5}); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	var added []string
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 40; i++ {
			text := fmt.Sprintf("%s %d", frozenAdds[i%len(frozenAdds)], i)
			if err := m.Add(Document{Text: text}); err != nil {
				errs <- err
				return
			}
			added = append(added, text)
		}
	}()
	flushes := 0
	for writing := true; writing; flushes++ {
		select {
		case <-writerDone:
			writing = false
		default:
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d flushes beside %d adds", flushes, len(added))
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := m.NumDocuments()+m.PendingUpdates(), len(base)+len(added); got != want {
		t.Fatalf("documents + pending = %d, want %d", got, want)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	cold := coldMiner(t, append(append([]string(nil), base...), added...))
	live := answers(t, m)
	if want := answers(t, cold); live != want {
		t.Fatalf("after the final flush, answers differ from a cold build:\n got %s\nwant %s", live, want)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, err := LoadMinerFile(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if err := restarted.EnableLiveTail(TailConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.EnableWAL(WALConfig{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, restarted); got != live {
		t.Fatalf("restart from the checkpoint answers differently:\n got %s\nwant %s", got, live)
	}
}

func containsPhrase(results []Result, phrase string) bool {
	for _, r := range results {
		if r.Phrase == phrase {
			return true
		}
	}
	return false
}
