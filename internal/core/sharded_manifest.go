package core

// Sharded persistence: every segment serializes through the existing v2
// snapshot container (WriteSnapshot), and a diskio.Manifest ties them
// together. Opening maps each segment zero-copy (OpenSnapshotFile) and
// reassembles the global phrase table by merging the segment dictionaries
// — the same (word count, phrase) order the build uses, so reopened
// engines answer bit-identically.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"phrasemine/internal/diskio"
	"phrasemine/internal/diskio/faultfs"
	"phrasemine/internal/parallel"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// segmentFileName names segment i's generation-g snapshot inside a
// manifest directory. Generation 0 keeps the historical plain name, so
// fresh builds into an empty directory produce the familiar layout.
func segmentFileName(i, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("segment-%03d.snap", i)
	}
	return fmt.Sprintf("segment-%03d.g%d.snap", i, gen)
}

// segmentFilePattern matches any generation's segment file names.
var segmentFilePattern = regexp.MustCompile(`^segment-\d{3}(\.g\d+)?\.snap$`)

// SaveSegmentsFS writes one v2 snapshot per segment into dir on fsys
// (creating it) and returns the manifest describing them. The caller (the
// public Miner) attaches its configuration and writes the manifest file.
// SaveSegmentsFS refuses while document updates are pending, so persisted
// segments always capture a consistent, fully indexed state.
//
// Segment files are written under names no existing file uses (a
// generation suffix), so even a failure halfway through the final rename
// pass cannot damage the previous generation: the old manifest keeps
// referencing the old, untouched files. Call CleanupSegments after the new
// manifest is durably written to drop the superseded generation.
func (sx *ShardedIndex) SaveSegmentsFS(fsys faultfs.FS, dir string) (diskio.Manifest, error) {
	if sx.broken != nil {
		return diskio.Manifest{}, fmt.Errorf("core: engine is inconsistent after a failed flush (%w); refusing to persist it", sx.broken)
	}
	if n := sx.PendingUpdates(); n > 0 {
		return diskio.Manifest{}, fmt.Errorf("core: %d document updates pending; call Flush before saving", n)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return diskio.Manifest{}, err
	}
	// Pick the first generation whose names collide with nothing on disk.
	existing := map[string]bool{}
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, n := range names {
			existing[n] = true
		}
	}
	gen := 0
	for ; ; gen++ {
		collision := false
		for i := range sx.segs {
			if existing[segmentFileName(i, gen)] {
				collision = true
				break
			}
		}
		if !collision {
			break
		}
	}
	man := diskio.Manifest{
		Magic:           diskio.ManifestMagic,
		Version:         diskio.ManifestVersion,
		SnapshotVersion: SnapshotVersion,
		Segments:        make([]diskio.SegmentRef, len(sx.segs)),
	}
	// Write every segment to a temporary name first and rename only after
	// all writes succeed, so a crash or write error mid-save never
	// truncates a previously persisted good segment in place.
	errs := make([]error, len(sx.segs))
	sx.fanOut(len(sx.segs), func(i int) {
		name := segmentFileName(i, gen)
		f, err := fsys.OpenFile(filepath.Join(dir, name+".tmp"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			errs[i] = err
			return
		}
		if _, err := sx.segs[i].ix.WriteSnapshot(f); err != nil {
			f.Close()
			errs[i] = err
			return
		}
		// Flush the segment to stable storage before the rename below makes
		// it visible: a power cut after rename must not leave a manifest
		// pointing at a segment whose bytes never hit the disk.
		if err := f.Sync(); err != nil {
			f.Close()
			errs[i] = err
			return
		}
		if err := f.Close(); err != nil {
			errs[i] = err
			return
		}
		man.Segments[i] = diskio.SegmentRef{File: name, Docs: sx.segs[i].c.Len()}
	})
	if err := firstError(errs); err != nil {
		for i := range sx.segs {
			fsys.Remove(filepath.Join(dir, segmentFileName(i, gen)+".tmp"))
		}
		return diskio.Manifest{}, err
	}
	for i := range sx.segs {
		name := segmentFileName(i, gen)
		if err := fsys.Rename(filepath.Join(dir, name+".tmp"), filepath.Join(dir, name)); err != nil {
			return diskio.Manifest{}, err
		}
	}
	// Persist the renames themselves (the directory entries) so the segment
	// files survive a crash immediately after SaveSegmentsFS returns.
	if err := fsys.SyncDir(dir); err != nil {
		return diskio.Manifest{}, err
	}
	return man, nil
}

// CleanupSegments removes segment files (and stray temp files) in dir
// that the durably-written manifest does not reference: the superseded
// generation. Failures are ignored — stale files cost disk space, not
// correctness, and the next save skips their names.
func CleanupSegments(fsys faultfs.FS, dir string, man diskio.Manifest) {
	live := map[string]bool{diskio.ManifestFileName: true}
	for _, s := range man.Segments {
		live[s.File] = true
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if live[n] {
			continue
		}
		if segmentFilePattern.MatchString(n) || strings.HasSuffix(n, ".tmp") {
			fsys.Remove(filepath.Join(dir, n))
		}
	}
}

// OpenSharded assembles a sharded engine from a manifest whose segment
// snapshots live under dir. Each segment opens zero-copy via mmap; the
// phrase-doc sections materialize eagerly (the gather needs per-segment
// document frequencies), while corpus documents and forward lists stay
// lazy until a GM query or document endpoint touches them. Per-segment
// tallies are not persisted: the first Flush on a reopened engine
// re-derives them by re-extracting each segment once.
func OpenSharded(dir string, man diskio.Manifest, workers int) (*ShardedIndex, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if man.SnapshotVersion != SnapshotVersion {
		return nil, fmt.Errorf("core: manifest references snapshot version %d, this build reads %d", man.SnapshotVersion, SnapshotVersion)
	}
	resolved := parallel.Workers(workers)
	sx := &ShardedIndex{
		workers: resolved,
		pool:    topk.NewPool(resolved),
	}
	sx.segs = make([]*segment, len(man.Segments))
	errs := make([]error, len(man.Segments))
	inner := innerWorkers(resolved, len(man.Segments))
	parallel.ForEach(len(man.Segments), resolved, func(i int) {
		ix, err := OpenSnapshotFile(filepath.Join(dir, man.Segments[i].File), inner)
		if err != nil {
			errs[i] = fmt.Errorf("core: segment %d: %w", i, err)
			return
		}
		if ix.Corpus.Len() != man.Segments[i].Docs {
			ix.Close()
			errs[i] = fmt.Errorf("core: segment %d holds %d docs, manifest says %d", i, ix.Corpus.Len(), man.Segments[i].Docs)
			return
		}
		// The gather divides by per-segment phrase document frequencies on
		// every query, so materialize the phrase-doc section now.
		if err := ix.materializeDocs(); err != nil {
			ix.Close()
			errs[i] = fmt.Errorf("core: segment %d: %w", i, err)
			return
		}
		sx.segs[i] = &segment{ix: ix, c: ix.Corpus}
	})
	if err := firstError(errs); err != nil {
		for _, seg := range sx.segs {
			if seg != nil {
				seg.ix.Close()
			}
		}
		return nil, err
	}
	sx.opts = sx.segs[0].ix.BuildOptions()
	sx.opts.Workers = workers
	if err := sx.mergeSegmentDicts(); err != nil {
		sx.Close()
		return nil, err
	}
	sx.assemble()
	return sx, nil
}

// firstError returns the first non-nil error of a slice.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeSegmentDicts rebuilds the global dictionary, document frequencies
// and per-segment ID maps from the segment dictionaries alone. Every
// universe phrase appears in the dictionary of each segment containing it
// (segments index exactly the universe phrases present in them), so the
// union of segment dictionaries is the universe and summed per-segment
// frequencies are the exact global frequencies. Each segment dictionary is
// already in (word count, phrase) order, so a k-way merge reproduces the
// build-time global order — and therefore the monolithic PhraseIDs.
func (sx *ShardedIndex) mergeSegmentDicts() error {
	type entry struct {
		words  int
		phrase string
		df     uint32
	}
	total := map[string]*entry{}
	for _, seg := range sx.segs {
		d := seg.ix.Dict
		for i := 0; i < d.Len(); i++ {
			p := d.MustPhrase(phrasedict.PhraseID(i))
			e := total[p]
			if e == nil {
				e = &entry{words: textproc.PhraseLen(p), phrase: p}
				total[p] = e
			}
			e.df += seg.ix.PhraseDF[i]
		}
	}
	merged := make([]*entry, 0, len(total))
	for _, e := range total {
		merged = append(merged, e)
	}
	// Sort by the canonical dictionary order.
	slices.SortFunc(merged, func(a, b *entry) int {
		if a.words != b.words {
			return a.words - b.words
		}
		return strings.Compare(a.phrase, b.phrase)
	})
	phrases := make([]string, len(merged))
	df := make([]uint32, len(merged))
	for i, e := range merged {
		phrases[i] = e.phrase
		df[i] = e.df
	}
	dict, err := phrasedict.Build(phrases, sx.opts.PhraseWidth)
	if err != nil {
		return fmt.Errorf("core: merging segment dictionaries: %w", err)
	}
	sx.dict = dict
	sx.globalDF = df
	for si, seg := range sx.segs {
		l2g := make([]phrasedict.PhraseID, seg.ix.Dict.Len())
		for i := 0; i < seg.ix.Dict.Len(); i++ {
			g, ok, err := dict.ID(seg.ix.Dict.MustPhrase(phrasedict.PhraseID(i)))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("core: segment %d phrase missing from merged dictionary", si)
			}
			l2g[i] = g
		}
		seg.localToGlobal = l2g
	}
	return nil
}
