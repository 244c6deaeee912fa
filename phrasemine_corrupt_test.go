package phrasemine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"phrasemine/internal/diskio"
)

// These tests are the crash-safety contract for serving from untrusted
// bytes: every section of a v2 snapshot (and of a sharded manifest
// directory) is truncated and bit-flipped, and each mutant must either be
// refused at open or answer every query with an error wrapping
// ErrCorruptSnapshot — never a panic, never a process kill. Run under
// -race they also pin down that concurrent decode-failure caching is safe.

// sectionSpan locates one section payload inside snapshot bytes, parsed
// straight from the container layout (see diskio/snapshot.go).
type sectionSpan struct {
	name   string
	off    int64
	size   int64
	crcOff int64 // where the section header keeps the payload's CRC-32
}

func parseSectionSpans(t *testing.T, data []byte) []sectionSpan {
	t.Helper()
	if len(data) < 16 {
		t.Fatalf("snapshot too short: %d bytes", len(data))
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	off := int64(16)
	spans := make([]sectionSpan, 0, count)
	for i := 0; i < count; i++ {
		nameLen := int64(binary.LittleEndian.Uint16(data[off:]))
		name := string(data[off+2 : off+2+nameLen])
		size := int64(binary.LittleEndian.Uint64(data[off+2+nameLen:]))
		crcOff := off + 2 + nameLen + 8
		off += 2 + nameLen + 12
		if size > 0 {
			off += (diskio.SnapshotAlign - off%diskio.SnapshotAlign) % diskio.SnapshotAlign
		}
		spans = append(spans, sectionSpan{name: name, off: off, size: size, crcOff: crcOff})
		off += size
	}
	return spans
}

// corruptQueries is the workload thrown at every mutant: all algorithms,
// both operators, keyword and facet features, plus a delta mutation (the
// forward/dictionary decode path).
func runQueriesOnMutant(t *testing.T, label string, m *Miner) {
	t.Helper()
	queries := [][]string{{"trade"}, {"oil", "reserves"}, {Facet("topic", "oil")}}
	for _, algo := range []Algorithm{AlgoAuto, AlgoNRA, AlgoSMJ, AlgoGM, AlgoExact} {
		for _, op := range []Operator{AND, OR} {
			for _, kw := range queries {
				_, err := m.Mine(kw, op, QueryOptions{K: 5, Algorithm: algo})
				if err != nil && !errors.Is(err, ErrCorruptSnapshot) {
					t.Errorf("%s: Mine(%v, %v, %s) error does not wrap ErrCorruptSnapshot: %v",
						label, kw, op, algo, err)
				}
			}
		}
	}
	if err := m.Add(Document{Text: "fresh trade report for the delta path"}); err != nil &&
		!errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("%s: Add error does not wrap ErrCorruptSnapshot: %v", label, err)
	}
	// Batches must degrade item-by-item, not die.
	out := m.MineBatch([]BatchItem{
		{Keywords: []string{"trade"}, Op: OR},
		{Keywords: []string{"grain", "exports"}, Op: AND, Options: QueryOptions{Algorithm: AlgoSMJ}},
	})
	for i, r := range out {
		if r.Err != nil && !errors.Is(r.Err, ErrCorruptSnapshot) {
			t.Errorf("%s: batch[%d] error does not wrap ErrCorruptSnapshot: %v", label, i, r.Err)
		}
	}
}

// openMutant writes mutant bytes to path and opens them mapped. A refusal
// at open is a pass; a successful open hands the miner to the caller.
func openMutant(t *testing.T, dir, label string, mutant []byte) *Miner {
	t.Helper()
	path := filepath.Join(dir, "mutant.snap")
	if err := os.WriteFile(path, mutant, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMinerMapped(path, 2)
	if err != nil {
		return nil // refused at open: acceptable outcome
	}
	return m
}

func TestCorruptSnapshotNeverPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocFreq = 3
	m, err := NewMinerFromDocuments(snapshotCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.snap")
	if err := m.SaveFile(goodPath); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	spans := parseSectionSpans(t, good)
	if len(spans) < 5 {
		t.Fatalf("expected a multi-section snapshot, got %d sections", len(spans))
	}

	for _, span := range spans {
		span := span
		t.Run("flip/"+span.name, func(t *testing.T) {
			if span.size == 0 {
				t.Skip("empty section")
			}
			// Flip one bit at the start, middle, and end of the payload,
			// plus one in the section header's size field.
			offsets := []int64{span.off, span.off + span.size/2, span.off + span.size - 1}
			for _, off := range offsets {
				mutant := append([]byte(nil), good...)
				mutant[off] ^= 0x40
				label := fmt.Sprintf("%s@%d", span.name, off)
				if mm := openMutant(t, t.TempDir(), label, mutant); mm != nil {
					runQueriesOnMutant(t, label, mm)
					mm.Close()
				}
			}
		})
		t.Run("truncate/"+span.name, func(t *testing.T) {
			// Cut the file mid-payload (or mid-header for empty sections):
			// the directory then references bytes past EOF.
			cut := span.off + span.size/2
			if cut >= int64(len(good)) {
				cut = int64(len(good)) - 1
			}
			mutant := append([]byte(nil), good[:cut]...)
			label := fmt.Sprintf("%s truncated at %d", span.name, cut)
			if mm := openMutant(t, t.TempDir(), label, mutant); mm != nil {
				runQueriesOnMutant(t, label, mm)
				mm.Close()
			}
		})
	}

	// Header damage: magic, version, section count.
	t.Run("header", func(t *testing.T) {
		for _, off := range []int64{0, 9, 13} {
			mutant := append([]byte(nil), good...)
			mutant[off] ^= 0xff
			if mm := openMutant(t, t.TempDir(), fmt.Sprintf("header@%d", off), mutant); mm != nil {
				runQueriesOnMutant(t, fmt.Sprintf("header@%d", off), mm)
				mm.Close()
			}
		}
	})

	// The v1 list and posting containers (PMBLSET1 / PMINVBK1) have no
	// reader any more: a section announcing one must be refused as corrupt
	// by both loaders. The section checksum is recomputed so the heap
	// loader's CRC does not mask the magic check.
	t.Run("v1-magic", func(t *testing.T) {
		for _, magic := range []string{"PMBLSET2", "PMINVBK2"} {
			var hit *sectionSpan
			for i := range spans {
				if bytes.HasPrefix(good[spans[i].off:], []byte(magic)) {
					hit = &spans[i]
				}
			}
			if hit == nil {
				t.Fatalf("no section carries a %s container", magic)
			}
			mutant := append([]byte(nil), good...)
			mutant[hit.off+7] = '1'
			binary.LittleEndian.PutUint32(mutant[hit.crcOff:], crc32.ChecksumIEEE(mutant[hit.off:hit.off+hit.size]))
			path := filepath.Join(t.TempDir(), "v1.snap")
			if err := os.WriteFile(path, mutant, 0o644); err != nil {
				t.Fatal(err)
			}
			if mm, err := OpenMinerMapped(path, 2); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s -> v1, mapped open: got (%v, %v), want an error wrapping ErrCorruptSnapshot", magic, mm, err)
			}
			if mm, err := LoadMinerFile(path, 2); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s -> v1, heap load: got (%v, %v), want an error wrapping ErrCorruptSnapshot", magic, mm, err)
			}
		}
	})
}

func TestCorruptManifestNeverPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocFreq = 3
	cfg.Segments = 3
	m, err := NewMinerFromDocuments(snapshotCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	goodDir := t.TempDir()
	if err := m.SaveManifest(goodDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(goodDir)
	if err != nil {
		t.Fatal(err)
	}

	// copyDir clones the good manifest directory so each mutant damages a
	// private copy.
	copyDir := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(goodDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}

	tryOpen := func(t *testing.T, dir, label string) {
		t.Helper()
		sm, err := OpenShardedMiner(dir, 2)
		if err != nil {
			return // refused at open: acceptable
		}
		runQueriesOnMutant(t, label, sm)
		sm.Close()
	}

	for _, e := range entries {
		name := e.Name()
		t.Run("flip/"+name, func(t *testing.T) {
			path := filepath.Join(goodDir, name)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range []int64{0, int64(len(good)) / 2, int64(len(good)) - 1} {
				dir := copyDir(t)
				mutant := append([]byte(nil), good...)
				mutant[off] ^= 0x40
				if err := os.WriteFile(filepath.Join(dir, name), mutant, 0o644); err != nil {
					t.Fatal(err)
				}
				tryOpen(t, dir, fmt.Sprintf("%s@%d", name, off))
			}
		})
		t.Run("truncate/"+name, func(t *testing.T) {
			path := filepath.Join(goodDir, name)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dir := copyDir(t)
			if err := os.WriteFile(filepath.Join(dir, name), good[:len(good)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			tryOpen(t, dir, name+" truncated")
		})
	}

	t.Run("missing-segment", func(t *testing.T) {
		dir := copyDir(t)
		if err := os.Remove(filepath.Join(dir, "segment-001.snap")); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedMiner(dir, 2); err == nil {
			t.Fatal("open succeeded with a missing segment")
		}
	})
}
