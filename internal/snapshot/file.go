package snapshot

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Checkpoint file container.
//
// Layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       8     magic "CRSNAP01"
//	8       4     format version (FormatVersion)
//	12      8     cycle the snapshot was taken at
//	20      8     payload length N
//	28      N     payload (opaque to the container; the simulator's
//	              Encoder stream)
//	28+N    4     CRC-32 (IEEE) over bytes [0, 28+N)
//
// The reader validates magic, version, length and CRC over the whole
// file before returning a single byte of payload, so a truncated or
// corrupted checkpoint yields a *FormatError and no state is ever
// partially applied from it. Writes go through a synced temp file and a
// rename, so a crash mid-checkpoint leaves the previous checkpoint intact
// and a power loss never leaves a torn file under a canonical name.

// Magic identifies a checkpoint file; the trailing digits version the
// container framing itself (the payload schema is versioned separately
// by FormatVersion).
const Magic = "CRSNAP01"

// FormatVersion is the payload schema version written into the header.
// Bump it whenever any SaveState encoding changes so old readers refuse
// new checkpoints instead of misreading them. It is the only version
// Decode accepts: a payload has one reader, the one that matches its
// writer. DESIGN.md §8 describes the version-8 network payload.
const FormatVersion = 8

const headerSize = len(Magic) + 4 + 8 + 8 // magic + version + cycle + length

// FormatError describes a checkpoint file that failed validation:
// truncation, bad magic, unsupported version or checksum mismatch. The
// reader returns it before any payload is exposed, so a corrupt file
// can never partially restore.
type FormatError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("snapshot: %s: %s", e.Path, e.Reason)
}

// Encode frames a payload into the container byte layout.
func Encode(cycle int64, payload []byte) []byte {
	var e Encoder
	e.buf = make([]byte, 0, headerSize+len(payload)+4)
	e.buf = append(e.buf, Magic...)
	e.U32(FormatVersion)
	e.U64(uint64(cycle))
	e.U64(uint64(len(payload)))
	e.buf = append(e.buf, payload...)
	e.U32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// Decode validates a container and returns its cycle and payload. The
// payload slice aliases data. name labels errors (a path, or "<mem>").
func Decode(name string, data []byte) (int64, []byte, error) {
	fail := func(reason string, args ...any) (int64, []byte, error) {
		return 0, nil, &FormatError{Path: name, Reason: fmt.Sprintf(reason, args...)}
	}
	if len(data) < headerSize+4 {
		return fail("truncated: %d bytes, header needs %d", len(data), headerSize+4)
	}
	if string(data[:len(Magic)]) != Magic {
		return fail("bad magic %q", data[:len(Magic)])
	}
	d := NewDecoder(data[len(Magic):])
	version := d.U32()
	if version != FormatVersion {
		return fail("format version %d, this build reads %d", version, FormatVersion)
	}
	cycle := int64(d.U64())
	n := d.U64()
	if n != uint64(len(data)-headerSize-4) {
		return fail("payload length %d disagrees with file size %d", n, len(data))
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	stored := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if sum != stored {
		return fail("checksum mismatch: computed %08x, stored %08x", sum, stored)
	}
	return cycle, data[headerSize : len(data)-4], nil
}

// WriteFile atomically and durably writes a checkpoint: the container is
// written to a temp file in the same directory, synced, and renamed into
// place, and then the directory is synced. Readers never observe a
// half-written checkpoint, a crash preserves the previous one, and once
// WriteFile returns the file under its final name survives a power loss
// whole — without the first sync the rename could reach the disk before
// the data, leaving a torn file that Latest would pick.
func WriteFile(path string, cycle int64, payload []byte) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, Encode(cycle, payload)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSynced writes data to a new file at path and syncs it to stable
// storage before closing it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads and fully validates the checkpoint at path, returning
// its cycle and payload. Validation errors are *FormatError.
func ReadFile(path string) (int64, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return Decode(path, data)
}

// FileName returns the canonical checkpoint file name for a cycle: the
// cycle zero-padded to a fixed width of 16 digits.
func FileName(cycle int64) string {
	return fmt.Sprintf("ckpt-%016d.crsnap", cycle)
}

// parseFileName returns the cycle a canonical FileName names, and false
// for any other name: one that is not FileName of the number it carries
// (a foreign word after the prefix, an unpadded or signed number, a temp
// file).
func parseFileName(name string) (int64, bool) {
	c, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".crsnap"), 10, 64)
	return c, err == nil && FileName(c) == name
}

// Latest returns the path of the highest-cycle checkpoint in dir, or
// ok=false when the directory holds none. Only names of FileName's exact
// shape are considered; temp files and foreign names are skipped.
func Latest(dir string) (path string, cycle int64, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, false
	}
	for _, ent := range entries {
		c, canonical := parseFileName(ent.Name())
		if ent.IsDir() || !canonical || ok && c <= cycle {
			continue
		}
		path, cycle, ok = filepath.Join(dir, ent.Name()), c, true
	}
	return path, cycle, ok
}
