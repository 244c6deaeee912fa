package diskio

// Crash-safety primitives shared by every persistence path: the corruption
// sentinel that decode layers wrap so servers can classify bad bytes, and
// the fsync-then-rename file writer that makes snapshot and manifest
// installation atomic against kill -9.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"phrasemine/internal/diskio/faultfs"
)

// ErrCorruptSnapshot is the sentinel wrapped by every decode path that
// discovers bad bytes in persisted index data after open-time validation
// has passed — truncated or bit-flipped mapped sections, malformed posting
// blocks, invalid dictionary records. Callers classify with
// errors.Is(err, ErrCorruptSnapshot); the serving layer maps it to HTTP
// 500 with the wrapped section detail. It deliberately lives in diskio,
// the one package every index layer already depends on, so corpus,
// phrasedict, plist and core can all wrap it without an import cycle.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// Corruptf wraps ErrCorruptSnapshot with formatted section detail, keeping
// any %w-wrapped cause visible to errors.Is/As as well.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorruptSnapshot)...)
}

// WriteFileAtomicFS writes data to path on fsys so that a crash (including
// kill -9) at any point leaves either the previous file or the complete
// new one, never a partial write: the data goes to a temporary file in the
// same directory, is fsynced, renamed over path, and the directory is
// fsynced so the rename itself is durable. Production passes faultfs.OS;
// fault-injection tests pass a faulty filesystem to prove the previous
// file survives any failed or crashed write.
func WriteFileAtomicFS(fsys faultfs.FS, path string, data []byte, perm os.FileMode) error {
	return writeAtomic(fsys, path, perm, func(f io.Writer) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteToFileAtomic is WriteFileAtomicFS on the OS filesystem for
// producers that stream through an io.Writer (snapshot writers, encoders)
// instead of materializing one []byte.
func WriteToFileAtomic(path string, perm os.FileMode, write func(w io.Writer) error) error {
	return writeAtomic(faultfs.OS{}, path, perm, write)
}

// WriteToFileAtomicFS is WriteToFileAtomic over an explicit filesystem.
func WriteToFileAtomicFS(fsys faultfs.FS, path string, perm os.FileMode, write func(w io.Writer) error) error {
	return writeAtomic(fsys, path, perm, write)
}

func writeAtomic(fsys faultfs.FS, path string, perm os.FileMode, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("diskio: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if err := tmp.Chmod(perm); err != nil {
		return fmt.Errorf("diskio: setting mode on %s: %w", tmp.Name(), err)
	}
	if err := write(tmp); err != nil {
		return fmt.Errorf("diskio: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("diskio: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskio: closing %s: %w", tmp.Name(), err)
	}
	name := tmp.Name()
	tmp = nil // disarm cleanup; rename owns the file now
	if err := fsys.Rename(name, path); err != nil {
		fsys.Remove(name)
		return err
	}
	return fsys.SyncDir(dir)
}
