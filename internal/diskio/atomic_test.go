package diskio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"phrasemine/internal/diskio/faultfs"
)

func TestWriteFileAtomicReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomicFS(faultfs.OS{}, path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("content = %q", got)
	}
	if err := WriteFileAtomicFS(faultfs.OS{}, path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("content after rewrite = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteToFileAtomicKeepsOldOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomicFS(faultfs.OS{}, path, []byte("survivor"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mid-write failure")
	err := WriteToFileAtomic(path, 0o644, func(w io.Writer) error {
		fmt.Fprint(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped mid-write failure", err)
	}
	// The failed write must leave the previous file intact and no temp
	// file behind.
	if got, _ := os.ReadFile(path); string(got) != "survivor" {
		t.Fatalf("content after failed write = %q, want untouched original", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind after failed write: %v", entries)
	}
}

func TestCorruptfWrapsSentinel(t *testing.T) {
	err := Corruptf("decoding section %q: payload too short", "core/lists")
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Corruptf result does not wrap ErrCorruptSnapshot: %v", err)
	}
	want := `decoding section "core/lists": payload too short: corrupt snapshot`
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}
