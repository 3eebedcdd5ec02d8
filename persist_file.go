package byteslice

import (
	"fmt"
	"io"
	"os"

	"byteslice/internal/ingest"
)

// saveWriterHook lets the fault-injection tests interpose on the byte
// stream between WriteTo and the temporary file, simulating ENOSPC, short
// writes and crashes at exact offsets. It is nil outside tests.
var saveWriterHook func(io.Writer) io.Writer

// SaveFile durably writes the table's snapshot to path through
// ingest.WriteFileAtomic: a crash at any point leaves either the previous
// snapshot or the new one, and an error before the rename leaves path
// untouched. LoadFile's checksums catch a snapshot torn by hardware.
func (t *Table) SaveFile(path string) error {
	err := ingest.WriteFileAtomic(path, saveWriterHook, func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a snapshot written by SaveFile (or any WriteTo stream on
// disk), rebuilding every column like ReadTable. Corruption and version
// errors wrap ErrCorrupt / ErrVersion.
func LoadFile(path string, opts ...ColumnOption) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("byteslice: load %s: %w", path, err)
	}
	defer f.Close() //nolint:errcheck // read-only
	t, err := ReadTable(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("byteslice: load %s: %w", path, err)
	}
	return t, nil
}
