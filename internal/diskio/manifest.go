package diskio

// Multi-segment manifest: the persistence root of a sharded engine. One
// small JSON file references the per-segment v2 snapshot containers (each
// written and verified by the existing snapshot machinery), so a sharded
// index persists as manifest.json plus one snapshot file per segment and
// each segment opens through the regular snapshot paths — including the
// zero-copy mmap open.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"phrasemine/internal/diskio/faultfs"
)

// ManifestMagic identifies sharded-engine manifests.
const ManifestMagic = "phrasemine-manifest"

// ManifestVersion is the current manifest format version; readers reject
// any other.
const ManifestVersion = 1

// ManifestFileName is the conventional manifest file name inside a
// sharded-snapshot directory.
const ManifestFileName = "manifest.json"

// SegmentRef points at one segment's snapshot file, relative to the
// manifest's directory.
type SegmentRef struct {
	// File is the segment snapshot path relative to the manifest.
	File string `json:"file"`
	// Docs is the segment's document count, cross-checked at open.
	Docs int `json:"docs"`
}

// Manifest describes a persisted sharded engine: an ordered list of
// per-segment snapshot files plus an opaque engine configuration blob the
// writing layer (the public Miner) round-trips.
type Manifest struct {
	// Magic must equal ManifestMagic.
	Magic string `json:"magic"`
	// Version must equal ManifestVersion.
	Version int `json:"version"`
	// SnapshotVersion records the snapshot container version the segment
	// files were written with.
	SnapshotVersion int `json:"snapshot_version"`
	// Segments lists the per-segment snapshots in segment order.
	Segments []SegmentRef `json:"segments"`
	// Config is the writing layer's configuration, passed through opaque.
	Config json.RawMessage `json:"config,omitempty"`
	// WAL records how much of which mutation-log generation this manifest
	// has absorbed; open-time replay skips that prefix. Absent on
	// manifests written before WAL support or without a WAL enabled.
	WAL *WALMarker `json:"wal,omitempty"`
}

// Validate reports structural problems with a manifest.
func (m Manifest) Validate() error {
	if m.Magic != ManifestMagic {
		return fmt.Errorf("diskio: not a sharded manifest (magic %q)", m.Magic)
	}
	if m.Version != ManifestVersion {
		return fmt.Errorf("diskio: manifest version %d, this build reads %d", m.Version, ManifestVersion)
	}
	if len(m.Segments) == 0 {
		return fmt.Errorf("diskio: manifest lists no segments")
	}
	for i, s := range m.Segments {
		if s.File == "" {
			return fmt.Errorf("diskio: manifest segment %d has no file", i)
		}
		if filepath.IsAbs(s.File) {
			return fmt.Errorf("diskio: manifest segment %d path %q must be relative", i, s.File)
		}
	}
	return nil
}

// WriteManifestFS writes the manifest as indented JSON at path on fsys,
// via a temporary file, fsync and rename so a crash mid-write (even kill
// -9) never leaves a truncated manifest over a previously good one.
func WriteManifestFS(fsys faultfs.FS, path string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("diskio: encoding manifest: %w", err)
	}
	return WriteFileAtomicFS(fsys, path, append(data, '\n'), 0o644)
}

// ReadManifest reads and validates a manifest. path may be the manifest
// file itself or a directory containing ManifestFileName.
func ReadManifest(path string) (Manifest, string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return Manifest{}, "", err
	}
	if info.IsDir() {
		path = filepath.Join(path, ManifestFileName)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, "", err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, "", fmt.Errorf("diskio: decoding manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, "", err
	}
	return m, filepath.Dir(path), nil
}
