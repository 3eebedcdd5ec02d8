package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// ErrUnsynced marks a WriteFileAtomic failure after the rename: the new
// file is what a reopen now reads, but the directory fsync that makes the
// rename survive a power cut failed, so the old file is no longer current.
var ErrUnsynced = errors.New("file renamed into place, but the directory fsync failed")

// SyncDirHook, when non-nil, runs before every directory fsync; a
// non-nil result is reported as that fsync's error. It lets fault tests
// fail the sync that follows a rename. Nil outside tests.
var SyncDirHook func(dir string) error

// WriteFileAtomic replaces path with the bytes write produces, using the
// classic crash-atomic protocol: write a temporary file in the same
// directory, fsync it, rename it over path, fsync the directory. A crash
// at any point leaves either the previous file or the new one, never a
// half-written hybrid. wrap, when non-nil, interposes on the byte stream
// so fault tests can fail or crash the write at exact offsets. On an
// error before the rename, path is untouched and the temporary file is
// removed; a failed directory fsync after the rename wraps ErrUnsynced.
func WriteFileAtomic(path string, wrap func(io.Writer) io.Writer, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	w := io.Writer(tmp)
	if wrap != nil {
		w = wrap(tmp)
	}
	// The data must be on disk before the rename publishes it: a rename
	// that survives a crash while the content didn't would leave a torn
	// file under the final name.
	if err = write(w); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return err
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return nil
}

// SyncDir fsyncs a directory so an entry created or renamed in it
// survives a power cut. A filesystem that does not support fsync on
// directories is not an error; any other failure is.
func SyncDir(dir string) error {
	if SyncDirHook != nil {
		if err := SyncDirHook(dir); err != nil {
			return err
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err = d.Sync(); errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
