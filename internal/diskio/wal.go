package diskio

// Write-ahead log for pending mutations. Every Add/Remove the miner
// acknowledges is first appended here and fsynced, so a kill -9 between
// the ack and the next Flush loses nothing: open-time replay rebuilds the
// delta from the surviving records.
//
// On-disk layout (all integers little-endian):
//
//	header:  8-byte magic "PMWAL001" | uint64 generation
//	record:  uint32 payload length | uint32 CRC32-IEEE(payload) | payload
//	payload: op byte | op-specific body (uvarint-framed strings)
//
// The generation ties the log to the snapshot it extends: each durable
// checkpoint (Flush persisting a snapshot/manifest) records the pair
// (generation, records) it has absorbed, then replaces the log with the
// next generation holding only the records appended after that point.
// Replay uses the marker to decide which prefix is already inside the
// snapshot, which makes the checkpoint sequence crash-safe at every step —
// including a crash between the snapshot rename and the log replacement,
// where the absorbed prefix is simply skipped instead of double-applied.
//
// Corruption policy, proven by TestWAL*/FuzzWALReplay: a torn or
// bit-flipped final record (the only kind a crash of our own writer can
// produce) is truncated away and everything before it replays; damage
// anywhere earlier refuses with ErrCorruptSnapshot; replay never panics
// and never invents records.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"phrasemine/internal/diskio/faultfs"
)

// WALFileName is the log's file name inside the WAL directory.
const WALFileName = "wal.log"

// walMagic ties a file to this format; the trailing digits version it.
const walMagic = "PMWAL001"

// walHeaderSize is the fixed prefix before the first record.
const walHeaderSize = 16

// maxWALRecord bounds a single record's payload; anything larger in a
// length field is corruption, not data.
const maxWALRecord = 64 << 20

// WALOp identifies the mutation kind a record carries.
type WALOp byte

// Record kinds. Values are stable on-disk format; never renumber.
const (
	// WALAddDocument appends one document (text + facets).
	WALAddDocument WALOp = 1
	// WALRemoveDocument deletes one base-corpus document by index.
	WALRemoveDocument WALOp = 2
)

// WALRecord is one logged mutation.
type WALRecord struct {
	// Op selects which fields are meaningful.
	Op WALOp
	// Text is the raw document text (WALAddDocument).
	Text string
	// Facets are the document's facet key/values (WALAddDocument).
	Facets map[string]string
	// Doc is the base-corpus document index (WALRemoveDocument).
	Doc uint64
}

// WALSyncMode selects when appends are fsynced.
type WALSyncMode int

const (
	// WALSyncAlways fsyncs inside every Append: maximum durability, one
	// fsync per mutation.
	WALSyncAlways WALSyncMode = iota
	// WALSyncBatch lets concurrent appenders share fsyncs (group commit):
	// Append buffers, and the follow-up Sync call coalesces — one fsync
	// can cover every record appended before it.
	WALSyncBatch
)

// ParseWALSyncMode maps the -wal-sync flag values ("", "always",
// "batch") to a mode.
func ParseWALSyncMode(s string) (WALSyncMode, error) {
	switch s {
	case "", "always":
		return WALSyncAlways, nil
	case "batch":
		return WALSyncBatch, nil
	default:
		return 0, fmt.Errorf("diskio: unknown wal sync mode %q (want always or batch)", s)
	}
}

// String returns the flag spelling of the mode.
func (m WALSyncMode) String() string {
	if m == WALSyncBatch {
		return "batch"
	}
	return "always"
}

// WALMarker records, inside a snapshot or manifest, how much of which WAL
// generation that artifact has already absorbed. Replay skips that prefix.
type WALMarker struct {
	// Generation is the WAL generation the snapshot was checkpointed
	// against.
	Generation uint64 `json:"generation"`
	// Records is how many records of that generation the snapshot
	// includes.
	Records int64 `json:"records"`
}

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Sync is the append durability mode.
	Sync WALSyncMode
	// Marker is the (generation, records) pair the opener's snapshot has
	// already absorbed; nil (or zero) means "replay everything", the
	// right choice for indexes built fresh from raw input.
	Marker *WALMarker
	// FS overrides the filesystem (fault-injection tests); nil means the
	// real one.
	FS faultfs.FS
}

// WALStats is a point-in-time snapshot of log counters, served on /stats
// and /debug/vars.
type WALStats struct {
	// Path is the log file location.
	Path string `json:"path"`
	// Mode is the sync mode ("always" or "batch").
	Mode string `json:"mode"`
	// Generation is the current log generation.
	Generation uint64 `json:"generation"`
	// Records is how many records the log currently holds.
	Records int64 `json:"records"`
	// Bytes is the log file size.
	Bytes int64 `json:"bytes"`
	// AppendedTotal counts records appended since open (cumulative, not
	// reduced by checkpoints).
	AppendedTotal int64 `json:"appended_total"`
	// Replayed counts records replayed into the delta at open.
	Replayed int64 `json:"replayed"`
	// ReplaySkipped counts surviving records that failed to re-apply at
	// open (mutations that were rolled back as failed before the crash).
	ReplaySkipped int64 `json:"replay_skipped,omitempty"`
	// AppendErrors counts failed appends since open.
	AppendErrors int64 `json:"append_errors"`
}

// WAL is an open write-ahead log. Appends are serialized by the caller or
// by the internal mutex; Sync may be called concurrently (group commit).
type WAL struct {
	mu     sync.Mutex
	syncMu sync.Mutex

	fs   faultfs.FS
	dir  string
	path string
	f    faultfs.File
	mode WALSyncMode

	gen            uint64
	records        int64 // records currently in the file
	size           int64 // file size in bytes
	appliedRecords int64 // prefix already inside the snapshot / applied index
	appliedOffset  int64
	durableSeq     int64 // highest record count known fsynced
	prevSize       int64 // size before the most recent append (rollback)

	appendedTotal int64
	replayed      int64
	replaySkipped int64
	appendErrors  int64
	broken        error
}

// OpenWAL opens (creating if needed) the log in dir, applies the
// tail-truncation and corruption rules, and returns the records that are
// NOT yet covered by opts.Marker — the caller replays them. A torn tail
// is physically truncated so subsequent appends extend a clean log.
func OpenWAL(dir string, opts WALOptions) (*WAL, []WALRecord, error) {
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("diskio: creating wal dir: %w", err)
	}
	w := &WAL{fs: fs, dir: dir, path: filepath.Join(dir, WALFileName), mode: opts.Sync}

	markerGen, markerRecords := uint64(0), int64(0)
	if opts.Marker != nil {
		markerGen, markerRecords = opts.Marker.Generation, opts.Marker.Records
	}

	data, err := fs.ReadFile(w.path)
	fresh := false
	switch {
	case errors.Is(err, os.ErrNotExist):
		fresh = true
		data = nil
	case err != nil:
		return nil, nil, fmt.Errorf("diskio: reading wal: %w", err)
	}

	// A file shorter than the header can only be a crash while a log was
	// created in place (the header is synced before any record): start
	// over.
	if !fresh && len(data) < walHeaderSize {
		data = nil
	}
	if fresh || len(data) == 0 {
		if err := w.install(markerGen+1, nil, 0); err != nil {
			return nil, nil, err
		}
		return w, nil, nil
	}

	if string(data[:8]) != walMagic {
		return nil, nil, Corruptf("diskio: %s is not a wal file", w.path)
	}
	w.gen = binary.LittleEndian.Uint64(data[8:16])

	records, goodEnd, offsets, err := parseWALRecords(data)
	if err != nil {
		return nil, nil, err
	}

	skip := int64(0)
	switch {
	case opts.Marker == nil || (markerGen == 0 && markerRecords == 0):
		// No marker: fresh build or pre-WAL snapshot; everything replays.
	case w.gen == markerGen:
		skip = markerRecords
	case w.gen == markerGen+1:
		// The checkpoint replaced the log after the snapshot: it holds
		// only the records appended after the marker.
	default:
		return nil, nil, Corruptf(
			"diskio: wal generation %d does not extend snapshot marker (generation %d, %d records)",
			w.gen, markerGen, markerRecords)
	}
	if skip > int64(len(records)) {
		return nil, nil, Corruptf(
			"diskio: snapshot marker claims %d applied records but wal generation %d holds %d",
			skip, w.gen, len(records))
	}

	flags := os.O_RDWR | os.O_APPEND
	w.f, err = fs.OpenFile(w.path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("diskio: opening wal: %w", err)
	}
	if goodEnd < int64(len(data)) {
		if err := w.f.Truncate(goodEnd); err != nil {
			w.f.Close()
			return nil, nil, fmt.Errorf("diskio: truncating torn wal tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return nil, nil, fmt.Errorf("diskio: syncing truncated wal: %w", err)
		}
	}
	w.size = goodEnd
	w.records = int64(len(records))
	w.durableSeq = w.records
	w.appliedRecords = skip
	w.appliedOffset = walHeaderSize
	if skip > 0 {
		w.appliedOffset = offsets[skip-1]
	}
	w.replayed = int64(len(records)) - skip
	return w, records[skip:], nil
}

// install makes the log generation gen holding body — n whole record
// frames — through WriteFileAtomicFS, so a crash leaves either the
// previous file or the complete new one, and reopens it for appending.
// Every installed record is durable. The previous handle, if any, is
// closed only once the new one is open; an error after the rename leaves
// the path naming a file w.f does not, so Checkpoint marks the log broken
// on any error.
func (w *WAL) install(gen uint64, body []byte, n int64) error {
	data := make([]byte, walHeaderSize, walHeaderSize+len(body))
	copy(data, walMagic)
	binary.LittleEndian.PutUint64(data[8:], gen)
	data = append(data, body...)
	if err := WriteFileAtomicFS(w.fs, w.path, data, 0o644); err != nil {
		return fmt.Errorf("diskio: installing wal generation %d: %w", gen, err)
	}
	f, err := w.fs.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskio: opening wal generation %d: %w", gen, err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.gen = gen
	w.size = int64(len(data))
	w.records = n
	w.durableSeq = n
	w.appliedRecords = 0
	w.appliedOffset = walHeaderSize
	return nil
}

// parseWALRecords walks the framed records after the header, applying the
// corruption policy. It returns the decoded records, the byte offset where
// the clean log ends (everything after is torn tail to truncate), and the
// end offset of each record (for partial truncation).
func parseWALRecords(data []byte) ([]WALRecord, int64, []int64, error) {
	var (
		records []WALRecord
		offsets []int64
	)
	off := int64(walHeaderSize)
	n := int64(len(data))
	for off < n {
		rest := n - off
		if rest < 8 {
			return records, off, offsets, nil // torn frame header
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 && crc == 0 {
			// Zero-filled tail (a crash can leave allocated-but-unwritten
			// pages): everything from here is garbage, not history.
			return records, off, offsets, nil
		}
		if length == 0 || length > maxWALRecord {
			return nil, 0, nil, Corruptf("diskio: wal record at offset %d has invalid length %d", off, length)
		}
		if rest-8 < length {
			return records, off, offsets, nil // torn payload
		}
		payload := data[off+8 : off+8+length]
		end := off + 8 + length
		if crc32.ChecksumIEEE(payload) != crc {
			if end == n {
				// Bit-flipped or half-synced final record: truncate.
				return records, off, offsets, nil
			}
			return nil, 0, nil, Corruptf("diskio: wal record at offset %d fails CRC with records after it", off)
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return nil, 0, nil, Corruptf("diskio: wal record at offset %d: %v", off, err)
		}
		records = append(records, rec)
		offsets = append(offsets, end)
		off = end
	}
	return records, off, offsets, nil
}

// encodeWALRecord frames one record (length + CRC + payload).
func encodeWALRecord(rec WALRecord) ([]byte, error) {
	payload := []byte{byte(rec.Op)}
	switch rec.Op {
	case WALAddDocument:
		payload = appendUvarintString(payload, rec.Text)
		payload = binary.AppendUvarint(payload, uint64(len(rec.Facets)))
		keys := make([]string, 0, len(rec.Facets))
		for k := range rec.Facets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			payload = appendUvarintString(payload, k)
			payload = appendUvarintString(payload, rec.Facets[k])
		}
	case WALRemoveDocument:
		payload = binary.AppendUvarint(payload, rec.Doc)
	default:
		return nil, fmt.Errorf("diskio: unknown wal op %d", rec.Op)
	}
	if len(payload) > maxWALRecord {
		return nil, fmt.Errorf("diskio: wal record of %d bytes exceeds the %d limit", len(payload), maxWALRecord)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

func appendUvarintString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeWALRecord parses a CRC-validated payload. Malformed bodies are
// corruption: the CRC guarantees the bytes are what the writer produced,
// so a bad body means a broken writer, not a torn write.
func decodeWALRecord(payload []byte) (WALRecord, error) {
	if len(payload) == 0 {
		return WALRecord{}, errors.New("empty payload")
	}
	rec := WALRecord{Op: WALOp(payload[0])}
	body := payload[1:]
	switch rec.Op {
	case WALAddDocument:
		var err error
		rec.Text, body, err = readUvarintString(body)
		if err != nil {
			return WALRecord{}, fmt.Errorf("text: %v", err)
		}
		nf, m := binary.Uvarint(body)
		if m <= 0 || nf > uint64(len(body)) {
			return WALRecord{}, errors.New("bad facet count")
		}
		body = body[m:]
		if nf > 0 {
			rec.Facets = make(map[string]string, nf)
		}
		for i := uint64(0); i < nf; i++ {
			var k, v string
			var err error
			k, body, err = readUvarintString(body)
			if err != nil {
				return WALRecord{}, fmt.Errorf("facet key: %v", err)
			}
			v, body, err = readUvarintString(body)
			if err != nil {
				return WALRecord{}, fmt.Errorf("facet value: %v", err)
			}
			rec.Facets[k] = v
		}
	case WALRemoveDocument:
		var m int
		rec.Doc, m = binary.Uvarint(body)
		if m <= 0 {
			return WALRecord{}, errors.New("bad document index")
		}
		body = body[m:]
	default:
		return WALRecord{}, fmt.Errorf("unknown op %d", rec.Op)
	}
	if len(body) != 0 {
		return WALRecord{}, fmt.Errorf("%d trailing bytes", len(body))
	}
	return rec, nil
}

func readUvarintString(b []byte) (string, []byte, error) {
	l, m := binary.Uvarint(b)
	if m <= 0 || l > uint64(len(b)-m) {
		return "", nil, errors.New("bad string length")
	}
	return string(b[m : m+int(l)]), b[m+int(l):], nil
}

// Append logs one record. In WALSyncAlways mode it returns only after the
// record is fsynced; in WALSyncBatch mode the caller must invoke Sync
// with the returned sequence before acknowledging the mutation. Appends
// must be serialized by the caller (the miner's write lock does this).
func (w *WAL) Append(rec WALRecord) (int64, error) {
	frame, err := encodeWALRecord(rec)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		w.appendErrors++
		return 0, fmt.Errorf("diskio: wal is broken by an earlier failure: %w", w.broken)
	}
	w.prevSize = w.size
	if _, err := w.f.Write(frame); err != nil {
		w.appendErrors++
		// A partial frame at the tail would be truncated at replay anyway,
		// but try to keep the live file clean for the next append.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = fmt.Errorf("append failed (%v) and truncate-back failed: %w", err, terr)
		}
		return 0, fmt.Errorf("diskio: appending wal record: %w", err)
	}
	w.size += int64(len(frame))
	w.records++
	w.appendedTotal++
	if w.mode == WALSyncAlways {
		if err := w.f.Sync(); err != nil {
			w.appendErrors++
			w.broken = fmt.Errorf("fsync failed: %w", err)
			return 0, fmt.Errorf("diskio: syncing wal append: %w", err)
		}
		w.durableSeq = w.records
	}
	return w.records, nil
}

// Sync makes every record up to seq durable. In batch mode concurrent
// callers coalesce: one fsync covers all records appended before it. In
// always mode it is a no-op.
func (w *WAL) Sync(seq int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return fmt.Errorf("diskio: wal is broken by an earlier failure: %w", err)
	}
	if w.durableSeq >= seq {
		w.mu.Unlock()
		return nil
	}
	if w.f == nil {
		w.mu.Unlock()
		return fmt.Errorf("diskio: syncing wal: log is closed")
	}
	top := w.records
	f := w.f
	w.mu.Unlock()

	err := f.Sync()

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.appendErrors++
		w.broken = fmt.Errorf("fsync failed: %w", err)
		return fmt.Errorf("diskio: syncing wal: %w", err)
	}
	if top > w.durableSeq {
		w.durableSeq = top
	}
	return nil
}

// RollbackLast undoes the most recent Append: the miner calls it when the
// in-memory application of an already-logged mutation fails, so a replay
// will not re-attempt a mutation the client saw refused. Must be called
// under the same serialization as Append, with no Append in between.
func (w *WAL) RollbackLast() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(w.prevSize); err != nil {
		w.broken = fmt.Errorf("rollback truncate failed: %w", err)
		return fmt.Errorf("diskio: rolling back wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("rollback sync failed: %w", err)
		return fmt.Errorf("diskio: syncing wal rollback: %w", err)
	}
	w.size = w.prevSize
	w.records--
	if w.durableSeq > w.records {
		w.durableSeq = w.records
	}
	return nil
}

// WALPosition is a point in the log captured under the writer's
// serialization: the marker a snapshot holding every record up to it
// carries, plus where those records end in the file.
type WALPosition struct {
	// Marker is the (generation, records) prefix up to this position.
	Marker WALMarker
	offset int64
}

// Position returns the log's current end: a snapshot persisted with
// Position().Marker makes replaying the log up to here a no-op.
func (w *WAL) Position() WALPosition {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALPosition{Marker: WALMarker{Generation: w.gen, Records: w.records}, offset: w.size}
}

// Checkpoint records that every record up to at is applied to the index in
// memory, so DiscardPendingUpdates truncates back to at and no further.
// With absorbed set — a durable snapshot carrying at.Marker holds those
// records — the log is also replaced by the next generation holding only
// the records after at, so it never outgrows what arrived since the last
// checkpoint. A crash anywhere in the replacement leaves either the old
// log, which a reopen against at.Marker skips up to at, or the new one,
// which it replays in full; both yield exactly the records after at.
//
// Checkpoint may run beside Append, RollbackLast and Sync. A record
// appended after at, even one about to be rolled back, moves to the new
// generation (RollbackLast's offset moves with it); syncMu keeps a
// group-commit fsync off the file the replacement closes; and a sequence
// number Append returned before the replacement names a record that is
// durable afterwards, so Sync with it returns at once or after a spare
// fsync.
func (w *WAL) Checkpoint(at WALPosition, absorbed bool) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if at.Marker.Generation != w.gen || at.Marker.Records > w.records || at.Marker.Records < w.appliedRecords {
		return fmt.Errorf("diskio: wal checkpoint at %+v does not lie in generation %d (records %d..%d)",
			at.Marker, w.gen, w.appliedRecords, w.records)
	}
	w.appliedRecords = at.Marker.Records
	w.appliedOffset = at.offset
	if !absorbed {
		return nil
	}
	if w.broken != nil {
		return w.broken
	}
	var suffix []byte
	if w.size > at.offset {
		data, err := w.fs.ReadFile(w.path)
		if err != nil {
			return fmt.Errorf("diskio: reading wal records after the checkpoint: %w", err)
		}
		if int64(len(data)) < w.size {
			return fmt.Errorf("diskio: wal holds %d bytes, want %d", len(data), w.size)
		}
		suffix = data[at.offset:w.size]
	}
	shift := at.offset - walHeaderSize
	if err := w.install(w.gen+1, suffix, w.records-at.Marker.Records); err != nil {
		w.broken = err
		return err
	}
	w.prevSize = max(w.prevSize-shift, walHeaderSize)
	return nil
}

// TruncateToApplied drops every record after the last applied point; the
// miner pairs it with DiscardPendingUpdates so a discarded delta cannot
// resurrect on the next restart.
func (w *WAL) TruncateToApplied() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.size == w.appliedOffset {
		return nil
	}
	if err := w.f.Truncate(w.appliedOffset); err != nil {
		w.broken = fmt.Errorf("discard truncate failed: %w", err)
		return fmt.Errorf("diskio: truncating wal to applied offset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("discard sync failed: %w", err)
		return fmt.Errorf("diskio: syncing wal discard: %w", err)
	}
	w.size = w.appliedOffset
	w.records = w.appliedRecords
	if w.durableSeq > w.records {
		w.durableSeq = w.records
	}
	return nil
}

// CountReplaySkip adds n to the replay-skipped counter (records that
// survived the crash but failed to re-apply, i.e. mutations that were
// refused before the crash).
func (w *WAL) CountReplaySkip(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.replaySkipped += n
	w.replayed -= n
}

// Stats returns current counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Path:          w.path,
		Mode:          w.mode.String(),
		Generation:    w.gen,
		Records:       w.records,
		Bytes:         w.size,
		AppendedTotal: w.appendedTotal,
		Replayed:      w.replayed,
		ReplaySkipped: w.replaySkipped,
		AppendErrors:  w.appendErrors,
	}
}

// Close fsyncs any batch-buffered records and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.broken == nil && w.durableSeq < w.records {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
