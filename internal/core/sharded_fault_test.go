package core

// Fault injection for the multi-file segment save: a failure at any point
// (ENOSPC mid-write, failed fsync, failed rename partway through the
// rename pass) must leave the previously persisted generation — manifest
// plus every segment it references — intact and openable. The
// generation-suffixed naming makes this structural: a rewrite never opens
// a file the live manifest points at.

import (
	"errors"
	"path/filepath"
	"testing"

	"phrasemine/internal/diskio"
	"phrasemine/internal/diskio/faultfs"
	"phrasemine/internal/textproc"
)

func TestSaveSegmentsFaultsKeepPreviousGeneration(t *testing.T) {
	c := smokeCorpus(11, 120)
	opt := BuildOptions{Extractor: textproc.ExtractorOptions{MinDocFreq: 3, MaxWords: 3, DropAllStopwordPhrases: true}}
	sx, err := BuildSharded(c, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	dir := t.TempDir()
	manPath := filepath.Join(dir, diskio.ManifestFileName)
	man, err := sx.SaveSegmentsFS(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := diskio.WriteManifestFS(faultfs.OS{}, manPath, man); err != nil {
		t.Fatal(err)
	}

	reopen := func(label string) {
		t.Helper()
		gotMan, gotDir, err := diskio.ReadManifest(dir)
		if err != nil {
			t.Fatalf("%s: manifest unreadable: %v", label, err)
		}
		re, err := OpenSharded(gotDir, gotMan, 2)
		if err != nil {
			t.Fatalf("%s: previous generation does not open: %v", label, err)
		}
		if re.NumDocs() != c.Len() {
			t.Fatalf("%s: reopened %d docs, want %d", label, re.NumDocs(), c.Len())
		}
		re.Close()
	}
	reopen("baseline")

	errDisk := errors.New("ENOSPC")
	cases := []struct {
		name string
		op   faultfs.Op
		nth  int
	}{
		{name: "failed segment create", op: faultfs.OpCreate, nth: 1},
		{name: "enospc mid segment write", op: faultfs.OpWrite, nth: 3},
		{name: "failed segment fsync", op: faultfs.OpSync, nth: 2},
		{name: "failed first rename", op: faultfs.OpRename, nth: 1},
		{name: "failed second rename", op: faultfs.OpRename, nth: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.NewFault(faultfs.OS{})
			ffs.FailNth(tc.op, tc.nth, errDisk)
			if _, err := sx.SaveSegmentsFS(ffs, dir); !errors.Is(err, errDisk) {
				t.Fatalf("want injected error, got %v", err)
			}
			reopen(tc.name)
		})
	}

	// A clean retry lands on fresh names, and after the manifest commits
	// the superseded generation is garbage-collected.
	man2, err := sx.SaveSegmentsFS(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Segments[0].File == man.Segments[0].File {
		t.Fatalf("rewrite reused live segment name %q", man2.Segments[0].File)
	}
	if err := diskio.WriteManifestFS(faultfs.OS{}, manPath, man2); err != nil {
		t.Fatal(err)
	}
	CleanupSegments(faultfs.OS{}, dir, man2)
	reopen("post-cleanup")
	names, err := faultfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{diskio.ManifestFileName: true}
	for _, s := range man2.Segments {
		live[s.File] = true
	}
	for _, n := range names {
		if !live[n] {
			t.Fatalf("cleanup left %q behind (have %v)", n, names)
		}
	}
}
