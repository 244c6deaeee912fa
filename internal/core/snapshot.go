package core

// This file persists a fully built Index as a diskio snapshot and loads it
// back without re-running any build stage. The snapshot holds every
// structure the query paths need — the tokenized corpus, the feature
// inverted index, the phrase dictionary, the phrase-doc lists (with their
// document frequencies), the GM-style forward index, and the full
// score-ordered word lists — each in its own checksummed section, plus a
// JSON meta section recording the build options so a loaded index can keep
// accepting deltas and Flush-rebuilds exactly like the original.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/parallel"
	"phrasemine/internal/phrasedict"
	"phrasemine/internal/plist"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// SnapshotVersion is the current snapshot format version. Readers reject
// any other version, so incompatible format changes must bump it.
//
// Version 2 switched the inverted-index and word-list sections to the
// block-compressed physical layout (corpus.AppendBlockIndex and
// plist.BlockSet) inside the page-aligned diskio container, enabling the
// zero-copy mmap open (OpenSnapshotFile) alongside the fully verified
// heap load (LoadSnapshot).
const SnapshotVersion = 2

// Snapshot section names.
const (
	sectionMeta       = "core/meta"
	sectionCorpus     = "core/corpus"
	sectionInverted   = "core/inverted"
	sectionDict       = "core/dict"
	sectionPhraseDocs = "core/phrasedocs"
	sectionForward    = "core/forward"
	sectionLists      = "core/lists"
)

// snapshotMeta is the JSON-encoded build provenance of a snapshot.
type snapshotMeta struct {
	Extractor    textproc.ExtractorOptions `json:"extractor"`
	PhraseWidth  int                       `json:"phrase_width,omitempty"`
	Restricted   bool                      `json:"restricted,omitempty"`
	ListFeatures []string                  `json:"list_features,omitempty"`
	Compression  bool                      `json:"compression,omitempty"`
	// Codec records the block-codec policy the index was built with, so a
	// reloaded index rebuilds SMJ caches and delta flushes with the same
	// policy. Old snapshots lack the field and unmarshal to CodecAuto (0).
	Codec uint8 `json:"codec,omitempty"`
}

// AddSnapshotSections appends the index's sections to a snapshot under
// construction, so callers (the public Miner) can prepend sections of
// their own in the same container.
func (ix *Index) AddSnapshotSections(w *diskio.SnapshotWriter) error {
	if err := ix.materializeDocs(); err != nil {
		return err
	}
	extractor := ix.opts.Extractor
	// Concurrency knobs are runtime properties of the loading process,
	// not of the persisted index.
	extractor.Workers, extractor.Shards = 0, 0
	meta, err := json.Marshal(snapshotMeta{
		Extractor:    extractor,
		PhraseWidth:  ix.opts.PhraseWidth,
		Restricted:   ix.restricted,
		ListFeatures: ix.opts.ListFeatures,
		Compression:  ix.opts.Compression,
		Codec:        uint8(ix.opts.Codec),
	})
	if err != nil {
		return fmt.Errorf("core: encoding snapshot meta: %w", err)
	}
	if err := w.Add(sectionMeta, meta); err != nil {
		return err
	}
	corpusBytes, err := ix.Corpus.AppendBinary(nil)
	if err != nil {
		return err
	}
	if err := w.Add(sectionCorpus, corpusBytes); err != nil {
		return err
	}
	inv, err := ix.Inverted.AppendBlockIndexCodec(nil, ix.opts.Codec)
	if err != nil {
		return err
	}
	if err := w.Add(sectionInverted, inv); err != nil {
		return err
	}
	var dict bytes.Buffer
	if _, err := ix.Dict.WriteTo(&dict); err != nil {
		return err
	}
	if err := w.Add(sectionDict, dict.Bytes()); err != nil {
		return err
	}
	if err := w.Add(sectionPhraseDocs, appendIDLists(nil, ix.PhraseDocs)); err != nil {
		return err
	}
	fwd := make([][]corpus.DocID, len(ix.Forward))
	for d, phrases := range ix.Forward {
		// Reuse the DocID-list codec; PhraseID and DocID are both uint32
		// and both lists are strictly increasing.
		fwd[d] = phraseIDsAsDocIDs(phrases)
	}
	if err := w.Add(sectionForward, appendIDLists(nil, fwd)); err != nil {
		return err
	}
	// The word lists persist in their block-compressed form regardless of
	// the in-memory Compression knob: a compressed index hands over its
	// BlockSet bytes directly; an uncompressed one compresses on the way
	// out. Both produce identical bytes for identical lists, so snapshot
	// determinism is preserved across the knob.
	blocks := ix.Blocks
	if blocks == nil {
		blocks, err = plist.BuildBlockSetCodec(ix.Lists, ix.opts.Codec)
		if err != nil {
			return fmt.Errorf("core: compressing word lists: %w", err)
		}
	}
	return w.Add(sectionLists, blocks.AppendTo(nil))
}

// WriteSnapshot serializes the index as a standalone snapshot.
func (ix *Index) WriteSnapshot(w io.Writer) (int64, error) {
	sw := diskio.NewSnapshotWriter(SnapshotVersion)
	if err := ix.AddSnapshotSections(sw); err != nil {
		return 0, err
	}
	return sw.WriteTo(w)
}

// LoadSnapshot reads a snapshot written by WriteSnapshot. workers bounds
// the loaded index's query concurrency (0 selects GOMAXPROCS); it is a
// runtime knob of the loading process, not part of the persisted state.
func LoadSnapshot(r io.Reader, workers int) (*Index, error) {
	snap, err := diskio.ReadSnapshot(r, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	return LoadSnapshotSections(snap, workers)
}

// LoadSnapshotSections reconstructs an Index from an already parsed
// snapshot container (whose checksums ReadSnapshot has verified). Every
// section is decoded eagerly; the snapshot's Compression flag decides
// whether the word lists stay block-compressed or decode to raw slices.
func LoadSnapshotSections(snap *diskio.Snapshot, workers int) (*Index, error) {
	metaBytes, err := snap.MustSection(sectionMeta)
	if err != nil {
		return nil, err
	}
	var meta snapshotMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot meta: %w", err)
	}

	corpusBytes, err := snap.MustSection(sectionCorpus)
	if err != nil {
		return nil, err
	}
	c, err := corpus.DecodeCorpus(corpusBytes)
	if err != nil {
		return nil, err
	}
	invBytes, err := snap.MustSection(sectionInverted)
	if err != nil {
		return nil, err
	}
	inv, err := corpus.OpenBlockInverted(invBytes)
	if err != nil {
		return nil, diskio.Corruptf("core: inverted section: %v", err)
	}
	if !meta.Compression {
		// Uncompressed operation decodes postings eagerly, restoring the
		// exact pre-compression memory layout and access costs.
		if err := inv.MaterializeAll(); err != nil {
			return nil, err
		}
	}
	dictBytes, err := snap.MustSection(sectionDict)
	if err != nil {
		return nil, err
	}
	dict, err := phrasedict.ReadFrom(bytes.NewReader(dictBytes))
	if err != nil {
		return nil, err
	}
	pdBytes, err := snap.MustSection(sectionPhraseDocs)
	if err != nil {
		return nil, err
	}
	phraseDocs, err := decodeIDLists(pdBytes, uint64(c.Len()))
	if err != nil {
		return nil, fmt.Errorf("core: phrase-doc section: %w", err)
	}
	fwdBytes, err := snap.MustSection(sectionForward)
	if err != nil {
		return nil, err
	}
	fwdAsDocs, err := decodeIDLists(fwdBytes, uint64(dict.Len()))
	if err != nil {
		return nil, fmt.Errorf("core: forward section: %w", err)
	}
	listBytes, err := snap.MustSection(sectionLists)
	if err != nil {
		return nil, err
	}
	blocks, err := plist.OpenBlockSet(listBytes)
	if err != nil {
		return nil, diskio.Corruptf("core: lists section: %v", err)
	}

	// Cross-section consistency: a snapshot assembled from mismatched
	// builds must not load.
	if inv.NumDocs() != c.Len() {
		return nil, fmt.Errorf("core: snapshot inconsistent: inverted index covers %d docs, corpus has %d", inv.NumDocs(), c.Len())
	}
	if len(phraseDocs) != dict.Len() {
		return nil, fmt.Errorf("core: snapshot inconsistent: %d phrase-doc lists, dictionary has %d phrases", len(phraseDocs), dict.Len())
	}
	if len(fwdAsDocs) != c.Len() {
		return nil, fmt.Errorf("core: snapshot inconsistent: forward index covers %d docs, corpus has %d", len(fwdAsDocs), c.Len())
	}

	resolved := parallel.Workers(workers)
	ix := &Index{
		Corpus:     c,
		Inverted:   inv,
		Dict:       dict,
		PhraseDocs: phraseDocs,
		PhraseDF:   make([]uint32, len(phraseDocs)),
		Forward:    make([][]phrasedict.PhraseID, len(fwdAsDocs)),
		opts: BuildOptions{
			Extractor:    meta.Extractor,
			ListFeatures: meta.ListFeatures,
			PhraseWidth:  meta.PhraseWidth,
			Workers:      workers,
			Compression:  meta.Compression,
			Codec:        plist.BlockCodec(meta.Codec),
		},
		restricted: meta.Restricted,
		workers:    resolved,
		pool:       topk.NewPool(resolved),
	}
	if meta.Compression {
		ix.Blocks = blocks
	} else {
		lists, err := blocks.DecodeAllScoreLists()
		if err != nil {
			return nil, err
		}
		ix.Lists = lists
	}
	for p, docs := range phraseDocs {
		ix.PhraseDF[p] = uint32(len(docs))
	}
	for d, ids := range fwdAsDocs {
		ix.Forward[d] = docIDsAsPhraseIDs(ids)
	}
	return ix, nil
}

// OpenSnapshotFile memory-maps a snapshot written by WriteSnapshot and
// builds a query-ready Index over the mapping without decoding any list:
// the word lists and inverted postings stay in their block-compressed
// mapped form (cursors decode blocks on demand into pooled scratch), the
// phrase dictionary resolves IDs by offset arithmetic in place, and the
// corpus documents plus phrase-doc/forward sections decode lazily on first
// use (GM/Exact baselines, delta updates, document endpoints). Open cost is
// O(section directories); resident memory is demand-paged and shared
// across processes mapping the same file.
//
// Unlike LoadSnapshot, section checksums are not verified (that would read
// the whole file); the block codecs validate structure as they decode, so
// corruption surfaces as query errors. Call Close when done — after it, no
// query may run on the index.
func OpenSnapshotFile(path string, workers int) (*Index, error) {
	snap, err := diskio.MapSnapshotFile(path, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	ix, err := OpenSnapshotSections(snap, workers)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return ix, nil
}

// OpenSnapshotSections assembles the lazy Index over an already mapped
// snapshot (whose additional sections the caller — e.g. the public Miner —
// may have consumed). The index takes ownership of the mapping: its Close
// unmaps it.
func OpenSnapshotSections(snap *diskio.MappedSnapshot, workers int) (*Index, error) {
	metaBytes, err := snap.MustSection(sectionMeta)
	if err != nil {
		return nil, err
	}
	var meta snapshotMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot meta: %w", err)
	}
	corpusBytes, err := snap.MustSection(sectionCorpus)
	if err != nil {
		return nil, err
	}
	c, err := corpus.DecodeCorpusLazy(corpusBytes)
	if err != nil {
		return nil, err
	}
	invBytes, err := snap.MustSection(sectionInverted)
	if err != nil {
		return nil, err
	}
	inv, err := corpus.OpenBlockInverted(invBytes)
	if err != nil {
		return nil, diskio.Corruptf("core: inverted section: %v", err)
	}
	dictBytes, err := snap.MustSection(sectionDict)
	if err != nil {
		return nil, err
	}
	dict, err := phrasedict.FromBytes(dictBytes)
	if err != nil {
		return nil, err
	}
	pdBytes, err := snap.MustSection(sectionPhraseDocs)
	if err != nil {
		return nil, err
	}
	fwdBytes, err := snap.MustSection(sectionForward)
	if err != nil {
		return nil, err
	}
	listBytes, err := snap.MustSection(sectionLists)
	if err != nil {
		return nil, err
	}
	blocks, err := plist.OpenBlockSet(listBytes)
	if err != nil {
		return nil, diskio.Corruptf("core: lists section: %v", err)
	}
	// Header-level consistency (deep counts are checked lazily when the
	// corresponding sections materialize).
	if inv.NumDocs() != c.Len() {
		return nil, fmt.Errorf("core: snapshot inconsistent: inverted index covers %d docs, corpus has %d", inv.NumDocs(), c.Len())
	}

	resolved := parallel.Workers(workers)
	return &Index{
		Corpus:   c,
		Inverted: inv,
		Dict:     dict,
		Blocks:   blocks,
		opts: BuildOptions{
			Extractor:    meta.Extractor,
			ListFeatures: meta.ListFeatures,
			PhraseWidth:  meta.PhraseWidth,
			Workers:      workers,
			Compression:  true,
			Codec:        plist.BlockCodec(meta.Codec),
		},
		restricted:  meta.Restricted,
		workers:     resolved,
		pool:        topk.NewPool(resolved),
		lazyPD:      pdBytes,
		lazyFwd:     fwdBytes,
		closer:      snap,
		mappedBytes: snap.SizeBytes(),
	}, nil
}

// appendIDLists encodes a slice of strictly increasing uint32 ID lists:
// numLists, then per list its length and gap-encoded IDs (first absolute).
func appendIDLists(buf []byte, lists [][]corpus.DocID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(lists)))
	for _, list := range lists {
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		prev := corpus.DocID(0)
		for i, id := range list {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(id))
			} else {
				buf = binary.AppendUvarint(buf, uint64(id-prev))
			}
			prev = id
		}
	}
	return buf
}

// decodeIDLists parses appendIDLists output, rejecting IDs >= limit.
func decodeIDLists(data []byte, limit uint64) ([][]corpus.DocID, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("core: truncated ID list at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	numLists, err := next()
	if err != nil {
		return nil, err
	}
	if numLists > uint64(len(data)) {
		return nil, fmt.Errorf("core: implausible list count %d", numLists)
	}
	out := make([][]corpus.DocID, numLists)
	for i := range out {
		count, err := next()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(data)) {
			return nil, fmt.Errorf("core: implausible list length %d", count)
		}
		if count == 0 {
			continue
		}
		list := make([]corpus.DocID, count)
		prev := uint64(0)
		for j := range list {
			gap, err := next()
			if err != nil {
				return nil, err
			}
			if j == 0 {
				prev = gap
			} else {
				prev += gap
			}
			if prev >= limit {
				return nil, fmt.Errorf("core: list %d entry %d: ID %d out of range %d", i, j, prev, limit)
			}
			list[j] = corpus.DocID(prev)
		}
		out[i] = list
	}
	if pos != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after ID lists", len(data)-pos)
	}
	return out, nil
}

// phraseIDsAsDocIDs reinterprets a sorted PhraseID list for the shared
// uint32 ID-list codec.
func phraseIDsAsDocIDs(ids []phrasedict.PhraseID) []corpus.DocID {
	if ids == nil {
		return nil
	}
	out := make([]corpus.DocID, len(ids))
	for i, id := range ids {
		out[i] = corpus.DocID(id)
	}
	return out
}

// docIDsAsPhraseIDs is the inverse reinterpretation.
func docIDsAsPhraseIDs(ids []corpus.DocID) []phrasedict.PhraseID {
	if ids == nil {
		return nil
	}
	out := make([]phrasedict.PhraseID, len(ids))
	for i, id := range ids {
		out[i] = phrasedict.PhraseID(id)
	}
	return out
}
