package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The manifest is the one mutable cell of an ingest directory: a tiny
// CRC-framed file naming the current epoch and its two artifacts (base
// snapshot, WAL). It is replaced with WriteFileAtomic's temp-file +
// fsync + rename + directory-fsync protocol, so a crash at any point
// during an epoch switch leaves either the old complete epoch or the new
// complete epoch — never a mix. Everything else in the directory is
// immutable or append-only; recovery starts here.
//
//	magic "BSMF" | version u16 = 1
//	frame 'M': epoch u64 | base string | wal string   (strings u32-length-prefixed)
//	framed exactly like the WAL: tag u8 | len u32 | payload | crc32c u32

const (
	manifestMagic   = "BSMF"
	manifestVersion = 1
	frameManifest   = 'M'

	// ManifestName is the manifest's filename within an ingest directory.
	ManifestName = "MANIFEST"
)

// ManifestWriterHook interposes on the manifest's byte stream, letting
// fault tests crash an epoch switch at exact offsets. Nil outside tests.
var ManifestWriterHook func(io.Writer) io.Writer

// Manifest names the current epoch's artifacts, as paths relative to the
// ingest directory.
type Manifest struct {
	Epoch uint64
	Base  string
	WAL   string
}

// WriteManifest atomically publishes m as dir's manifest.
func WriteManifest(dir string, m Manifest) error {
	var payload bytes.Buffer
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], m.Epoch)
	payload.Write(b8[:])
	putStr := func(s string) {
		var b4 [4]byte
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s)))
		payload.Write(b4[:])
		payload.WriteString(s)
	}
	putStr(m.Base)
	putStr(m.WAL)

	var stream bytes.Buffer
	stream.WriteString(manifestMagic)
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], manifestVersion)
	stream.Write(b2[:])
	stream.WriteByte(frameManifest)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(payload.Len()))
	stream.Write(b4[:])
	stream.Write(payload.Bytes())
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(payload.Bytes(), walCRC))
	stream.Write(b4[:])

	err := WriteFileAtomic(filepath.Join(dir, ManifestName), ManifestWriterHook, func(w io.Writer) error {
		_, err := w.Write(stream.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("ingest: write manifest: %w", err)
	}
	return nil
}

// ReadManifest loads dir's manifest. Structural defects wrap ErrCorrupt;
// an unknown version wraps ErrVersion; a missing manifest surfaces the
// underlying os error (so callers can distinguish "not an ingest dir").
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	if len(data) < 6 {
		return Manifest{}, fmt.Errorf("%w: manifest truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != manifestMagic {
		return Manifest{}, fmt.Errorf("%w: bad manifest magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != manifestVersion {
		return Manifest{}, fmt.Errorf("%w: manifest version %d", ErrVersion, v)
	}
	payload, n, ferr := parseFrame(data[6:], frameManifest)
	if ferr != nil {
		return Manifest{}, fmt.Errorf("manifest frame: %w", ferr.or(ErrCorrupt))
	}
	if int64(len(data)) != 6+n {
		return Manifest{}, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, int64(len(data))-6-n)
	}
	var m Manifest
	if len(payload) < 8 {
		return Manifest{}, fmt.Errorf("%w: manifest payload truncated", ErrCorrupt)
	}
	m.Epoch = binary.LittleEndian.Uint64(payload[:8])
	rest := payload[8:]
	getStr := func() (string, error) {
		if len(rest) < 4 {
			return "", fmt.Errorf("%w: manifest payload truncated", ErrCorrupt)
		}
		ln := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(ln) > uint64(len(rest)) {
			return "", fmt.Errorf("%w: manifest string overruns payload", ErrCorrupt)
		}
		s := string(rest[:ln])
		rest = rest[ln:]
		return s, nil
	}
	if m.Base, err = getStr(); err != nil {
		return Manifest{}, err
	}
	if m.WAL, err = getStr(); err != nil {
		return Manifest{}, err
	}
	if len(rest) != 0 {
		return Manifest{}, fmt.Errorf("%w: %d trailing bytes in manifest payload", ErrCorrupt, len(rest))
	}
	// Artifact names are bare filenames inside the ingest directory; a
	// path separator smuggled into the manifest must not escape it.
	for _, name := range []string{m.Base, m.WAL} {
		if name == "" || name != filepath.Base(name) {
			return Manifest{}, fmt.Errorf("%w: implausible artifact name %q", ErrCorrupt, name)
		}
	}
	return m, nil
}
