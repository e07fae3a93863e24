package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.Uvarint(0)
	e.Uvarint(1 << 60)
	e.Varint(-1)
	e.Varint(math.MaxInt64)
	e.Varint(math.MinInt64)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(-0.0)
	e.F64(math.Pi)
	e.String("")
	e.String("worm")

	d := NewDecoder(e.Bytes())
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"u8", d.U8(), uint8(0xab)},
		{"u16", d.U16(), uint16(0xbeef)},
		{"u32", d.U32(), uint32(0xdeadbeef)},
		{"u64", d.U64(), uint64(0x0123456789abcdef)},
		{"uvarint0", d.Uvarint(), uint64(0)},
		{"uvarintBig", d.Uvarint(), uint64(1) << 60},
		{"varint-1", d.Varint(), int64(-1)},
		{"varintMax", d.Varint(), int64(math.MaxInt64)},
		{"varintMin", d.Varint(), int64(math.MinInt64)},
		{"int", d.Int(), -42},
		{"boolT", d.Bool(), true},
		{"boolF", d.Bool(), false},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Errorf("negative zero not bit-exact: got %x", math.Float64bits(v))
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("pi: got %v", v)
	}
	if s := d.String(); s != "" {
		t.Errorf("empty string: got %q", s)
	}
	if s := d.String(); s != "worm" {
		t.Errorf("string: got %q", s)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestEncoderZeroAlloc is the codec half of the allocation gate: on a
// buffer already grown to the payload's size, every Encoder primitive
// appends in place, so re-encoding a warmed checkpoint costs its bytes
// and no allocation.
func TestEncoderZeroAlloc(t *testing.T) {
	raw := []byte("crsnap")
	var e Encoder
	encode := func() {
		e.buf = e.buf[:0]
		e.Raw(raw)
		e.U8(0xab)
		e.U16(0xbeef)
		e.U32(0xdeadbeef)
		e.U64(0x0123456789abcdef)
		e.Uvarint(1 << 60)
		e.Varint(math.MinInt64)
		e.Int(-42)
		e.Bool(true)
		e.Bool(false)
		e.F64(math.Pi)
		e.String("worm")
	}
	encode() // warmup: grow the buffer once
	if avg := testing.AllocsPerRun(100, encode); avg != 0 {
		t.Fatalf("encoding on a warmed buffer allocates: %.2f allocs/run, want 0", avg)
	}
}

func TestDecoderStickyError(t *testing.T) {
	var e Encoder
	e.U64(7)
	d := NewDecoder(e.Bytes())
	d.U64()
	d.U64() // past the end: latches the error
	if d.Err() == nil {
		t.Fatal("reading past the end did not latch an error")
	}
	// All subsequent reads return zero values without panicking.
	if d.U8() != 0 || d.Uvarint() != 0 || d.String() != "" || d.Bool() {
		t.Error("post-error reads returned non-zero values")
	}
	if d.Finish() == nil {
		t.Error("Finish ignored the sticky error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestCountGuard(t *testing.T) {
	var e Encoder
	e.Uvarint(1 << 40) // absurd count with no elements behind it
	d := NewDecoder(e.Bytes())
	if n := d.Count(1 << 20); n != 0 {
		t.Fatalf("Count returned %d for an oversized length", n)
	}
	if d.Err() == nil {
		t.Fatal("oversized count did not latch an error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("state bytes of cycle 12345")
	path := filepath.Join(dir, FileName(12345))
	if err := WriteFile(path, 12345, payload); err != nil {
		t.Fatal(err)
	}
	cycle, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cycle != 12345 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: cycle=%d payload=%q", cycle, got)
	}
}

func TestFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(7))
	if err := WriteFile(path, 7, bytes.Repeat([]byte{0x5a}, 256)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit anywhere: the CRC must catch it.
	mut := append([]byte(nil), data...)
	mut[headerSize+100] ^= 0x01
	if _, _, err := Decode(path, mut); err == nil {
		t.Fatal("bit flip not detected")
	} else {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("corruption error is %T, want *FormatError", err)
		}
	}
	// Truncate: also a FormatError.
	if _, _, err := Decode(path, data[:len(data)/2]); err == nil {
		t.Fatal("truncation not detected")
	} else {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation error is %T, want *FormatError", err)
		}
	}
	// Bad magic.
	mut = append([]byte(nil), data...)
	mut[0] = 'X'
	if _, _, err := Decode(path, mut); err == nil {
		t.Fatal("bad magic not detected")
	}
	// Future format version.
	mut = append([]byte(nil), data...)
	mut[len(Magic)] = FormatVersion + 1
	if _, _, err := Decode(path, mut); err == nil {
		t.Fatal("future version not refused")
	}
	// Every earlier version is refused too, with the checksum otherwise
	// intact and a structured error: a payload has one reader, the one
	// that matches its writer.
	for v := uint32(0); v < FormatVersion; v++ {
		var fe *FormatError
		if _, _, err := Decode(path, stampVersion(data, v)); !errors.As(err, &fe) {
			t.Fatalf("version %d: Decode error %v, want a *FormatError", v, err)
		}
	}
}

func TestLatest(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok := Latest(dir); ok {
		t.Fatal("Latest found a checkpoint in an empty dir")
	}
	for _, c := range []int64{100, 2500, 900} {
		if err := WriteFile(filepath.Join(dir, FileName(c)), c, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign files and temp residue are ignored.
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("y"), 0o644)
	os.WriteFile(filepath.Join(dir, FileName(99999)+".tmp"), []byte("z"), 0o644)
	path, cycle, ok := Latest(dir)
	if !ok || cycle != 2500 {
		t.Fatalf("Latest = %q cycle=%d ok=%v, want cycle 2500", path, cycle, ok)
	}
	if filepath.Base(path) != FileName(2500) {
		t.Fatalf("Latest path = %q", path)
	}
}

// TestLatestIgnoresNonCanonicalNames: Latest picks by parsed cycle among
// names of FileName's exact shape only. A name that shares the prefix
// and suffix but not the shape ("ckpt-backup.crsnap") must neither hide
// the valid checkpoints beside it nor be picked, and an unpadded name
// ("ckpt-1.crsnap", which sorts after every padded one) must not be
// returned ahead of a higher cycle.
func TestLatestIgnoresNonCanonicalNames(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []int64{100, 40} {
		if err := WriteFile(filepath.Join(dir, FileName(c)), c, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"ckpt-backup.crsnap", "ckpt-1.crsnap", "ckpt-+000000000000999.crsnap", "ckpt-00000000000009999.crsnap"} {
		if err := WriteFile(filepath.Join(dir, name), 1, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	path, cycle, ok := Latest(dir)
	if !ok || cycle != 100 || filepath.Base(path) != FileName(100) {
		t.Fatalf("Latest = %q cycle=%d ok=%v, want %s at cycle 100", path, cycle, ok, FileName(100))
	}
}
