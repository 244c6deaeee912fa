package diskio

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"phrasemine/internal/diskio/faultfs"
)

func walRecords() []WALRecord {
	return []WALRecord{
		{Op: WALAddDocument, Text: "the quick brown fox", Facets: map[string]string{"cat": "news", "year": "1987"}},
		{Op: WALAddDocument, Text: "jumps over the lazy dog"},
		{Op: WALRemoveDocument, Doc: 7},
		{Op: WALAddDocument, Text: "pack my box with five dozen jugs", Facets: map[string]string{"cat": "sport"}},
	}
}

func appendAll(t *testing.T, w *WAL, recs []WALRecord) {
	t.Helper()
	for i, r := range recs {
		seq, err := w.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.Sync(seq); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(replay))
	}
	recs := walRecords()
	appendAll(t, w, recs)
	st := w.Stats()
	if st.Records != int64(len(recs)) || st.AppendedTotal != int64(len(recs)) {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replay, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", replay, recs)
	}
	if got := w2.Stats().Replayed; got != int64(len(recs)) {
		t.Fatalf("replayed counter = %d", got)
	}
}

func TestWALTornTailTruncatesCleanly(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs)
	w.Close()
	path := filepath.Join(dir, WALFileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 1; cut < 40; cut += 3 {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, replay, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(replay) >= len(recs) {
			t.Fatalf("cut %d: torn tail not dropped, replayed %d", cut, len(replay))
		}
		if !reflect.DeepEqual(replay, recs[:len(replay)]) {
			t.Fatalf("cut %d: replay is not a prefix", cut)
		}
		// The healed log accepts appends and round-trips them.
		seq, err := w2.Append(WALRecord{Op: WALRemoveDocument, Doc: 42})
		if err != nil {
			t.Fatalf("cut %d: append after heal: %v", cut, err)
		}
		if err := w2.Sync(seq); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3, replay3, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen after heal: %v", cut, err)
		}
		want := append(append([]WALRecord{}, recs[:len(replay)]...), WALRecord{Op: WALRemoveDocument, Doc: 42})
		if !reflect.DeepEqual(replay3, want) {
			t.Fatalf("cut %d: healed replay mismatch", cut)
		}
		w3.Close()
	}
}

func TestWALBitFlipPolicy(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs)
	w.Close()
	path := filepath.Join(dir, WALFileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flip inside the final record's payload truncates just that record.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-3] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("tail flip: %v", err)
	}
	w2.Close()
	if !reflect.DeepEqual(replay, recs[:len(recs)-1]) {
		t.Fatalf("tail flip: want prefix of %d records, got %d", len(recs)-1, len(replay))
	}

	// A flip in an earlier record (with intact records after it) refuses.
	flipped = append([]byte(nil), full...)
	flipped[walHeaderSize+10] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("mid-log flip: err=%v, want ErrCorruptSnapshot", err)
	}
}

func TestWALZeroFilledTailTruncates(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()[:2]
	appendAll(t, w, recs)
	w.Close()
	path := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("zero tail: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replay, recs) {
		t.Fatalf("zero tail: replay mismatch")
	}
}

func TestWALMarkerGenerations(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs[:3])
	pos := w.Position()
	marker := pos.Marker
	if marker.Generation != 1 || marker.Records != 3 {
		t.Fatalf("marker = %+v", marker)
	}

	// Same generation: the marker's prefix is skipped.
	w.Close()
	w, replay, err := OpenWAL(dir, WALOptions{Marker: &marker})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("same-gen marker should skip all, replayed %d", len(replay))
	}

	// A checkpoint absorbing the whole log starts the next generation,
	// which replays only new records against the old marker.
	if err := w.Checkpoint(w.Position(), true); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Generation != 2 || st.Records != 0 {
		t.Fatalf("after absorbing checkpoint: %+v", st)
	}
	appendAll(t, w, recs[3:])
	w.Close()
	w, replay, err = OpenWAL(dir, WALOptions{Marker: &marker})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if !reflect.DeepEqual(replay, recs[3:]) {
		t.Fatalf("next-gen replay mismatch: %+v", replay)
	}

	// A marker the log cannot extend is refused.
	stale := WALMarker{Generation: 9, Records: 1}
	if _, _, err := OpenWAL(dir, WALOptions{Marker: &stale}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("stale marker: err=%v, want ErrCorruptSnapshot", err)
	}
	over := WALMarker{Generation: 2, Records: 99}
	if _, _, err := OpenWAL(dir, WALOptions{Marker: &over}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("overclaiming marker: err=%v, want ErrCorruptSnapshot", err)
	}
}

func TestWALRollbackLast(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs[:2])
	if _, err := w.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.RollbackLast(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replay, recs[:2]) {
		t.Fatalf("rollback left %d records, want 2", len(replay))
	}
}

func TestWALTruncateToApplied(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs[:2])
	// Applied in memory only: no snapshot absorbs the records, so the log
	// keeps them and its generation.
	if err := w.Checkpoint(w.Position(), false); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[2:])
	if err := w.TruncateToApplied(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Records; got != 2 {
		t.Fatalf("records after discard = %d", got)
	}
	w.Close()
	w2, replay, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(replay, recs[:2]) {
		t.Fatalf("discard kept wrong records: %+v", replay)
	}
}

func TestWALBatchModeDurability(t *testing.T) {
	mem := faultfs.NewMem()
	w, _, err := OpenWAL("wal", WALOptions{Sync: WALSyncBatch, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	// Unsynced batch append: lost on crash.
	if _, err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Synced batch append: survives. One Sync covers both outstanding
	// records (group commit), so the first becomes durable here too.
	seq, err := w.Append(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(recs[2]); err != nil { // never synced
		t.Fatal(err)
	}
	// Coalescing: a Sync for an already-durable seq is a no-op.
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}

	mem.Crash()
	_, replay, err := OpenWAL("wal", WALOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, recs[:2]) {
		t.Fatalf("after crash: %d records survive, want the 2 synced ones", len(replay))
	}
}

// walFileSize is the log's size on disk.
func walFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestWALCheckpointKeepsSuffix covers a checkpoint taken at a position
// captured before more records arrived — a flush whose rebuild ran while
// appends continued. Absorbed by a snapshot, the prefix leaves the file
// and the suffix moves to the next generation; either file a crash can
// leave behind replays exactly the suffix against the checkpoint's
// marker, and a later discard cuts back to the checkpoint.
func TestWALCheckpointKeepsSuffix(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	appendAll(t, w, recs[:3])
	at := w.Position()
	appendAll(t, w, recs[3:]) // arrives while the checkpoint is built

	// Applied but not absorbed (the snapshot write failed): the log keeps
	// everything — the state a crash before the replacement leaves — and
	// reopening against the marker replays exactly the suffix.
	if err := w.Checkpoint(at, false); err != nil {
		t.Fatal(err)
	}
	full := w.Stats()
	if full.Generation != 1 || full.Records != 4 {
		t.Fatalf("unabsorbed checkpoint rewrote the log: %+v", full)
	}
	w.Close()
	w, replay, err := OpenWAL(dir, WALOptions{Marker: &at.Marker})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, recs[3:]) {
		t.Fatalf("replay of the old log against marker %+v = %+v, want the suffix", at.Marker, replay)
	}

	// Absorbed: the log shrinks to the next generation holding the suffix.
	if err := w.Checkpoint(at, true); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if want := full.Bytes - (at.offset - walHeaderSize); st.Generation != 2 || st.Records != 1 || st.Bytes != want {
		t.Fatalf("absorbing checkpoint with a suffix: %+v, want generation 2, 1 record, %d bytes", st, want)
	}
	if got := walFileSize(t, dir); got != st.Bytes {
		t.Fatalf("log file holds %d bytes, stats say %d", got, st.Bytes)
	}
	w.Close()
	for _, marker := range []*WALMarker{&at.Marker, nil} {
		w, replay, err = OpenWAL(dir, WALOptions{Marker: marker})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if !reflect.DeepEqual(replay, recs[3:]) {
			t.Fatalf("replay of the new log against marker %v = %+v, want the suffix", marker, replay)
		}
	}

	// A live log checkpointed with a suffix discards back to the
	// checkpoint, never into the absorbed prefix.
	w, _, err = OpenWAL(dir, WALOptions{Marker: &at.Marker})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:1])
	at2 := w.Position()
	appendAll(t, w, recs[1:2])
	if err := w.Checkpoint(at2, true); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateToApplied(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Generation != 3 || st.Records != 0 || st.Bytes != walHeaderSize {
		t.Fatalf("discard after checkpoint: %+v, want an empty generation 3", st)
	}
	w.Close()
	w, replay, err = OpenWAL(dir, WALOptions{Marker: &at2.Marker})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(replay) != 0 {
		t.Fatalf("discarded suffix resurrected: %+v", replay)
	}

	// A position from another generation is refused.
	if err := w.Checkpoint(WALPosition{Marker: WALMarker{Generation: 7, Records: 1}}, true); err == nil {
		t.Fatal("checkpoint at a foreign generation accepted")
	}
}

// TestWALCheckpointStaysBounded checkpoints a log whose every checkpoint
// has records after it, as under steady ingest beside a flush: the file
// holds only what arrived since the last checkpoint, never the history.
func TestWALCheckpointStaysBounded(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := walRecords()
	var last WALStats
	for round := 0; round < 50; round++ {
		appendAll(t, w, recs[:3])
		at := w.Position()
		appendAll(t, w, recs[3:])
		if err := w.Checkpoint(at, true); err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		if st.Records != 1 || (round > 0 && st.Bytes != last.Bytes) {
			t.Fatalf("round %d: %+v after a checkpoint with one record after it (previous %+v)", round, st, last)
		}
		last = st
	}
	if got := walFileSize(t, dir); got != last.Bytes {
		t.Fatalf("log file holds %d bytes, stats say %d", got, last.Bytes)
	}
}

// TestWALCheckpointBesideAppend runs a checkpoint between an unsynced
// batch-mode append after the checkpoint position and its group commit or
// rollback: the sequence number Append returned still syncs, the rollback
// removes exactly the moved record, and what survives a crash is what
// was acknowledged.
func TestWALCheckpointBesideAppend(t *testing.T) {
	recs := walRecords()
	for _, rollback := range []bool{false, true} {
		mem := faultfs.NewMem()
		w, _, err := OpenWAL("wal", WALOptions{Sync: WALSyncBatch, FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, w, recs[:2])
		at := w.Position()
		seq, err := w.Append(recs[2])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Checkpoint(at, true); err != nil {
			t.Fatal(err)
		}
		want := recs[2:3]
		if rollback {
			if err := w.RollbackLast(); err != nil {
				t.Fatal(err)
			}
			want = nil
		} else if err := w.Sync(seq); err != nil {
			t.Fatalf("sync with a sequence number from before the checkpoint: %v", err)
		}
		mem.Crash()
		_, replay, err := OpenWAL("wal", WALOptions{FS: mem, Marker: &at.Marker})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replay, want) {
			t.Fatalf("rollback=%v: replay after crash = %+v, want %+v", rollback, replay, want)
		}
	}
}
