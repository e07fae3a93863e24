// Package snapshot is the checkpoint/restore subsystem: a deterministic
// binary codec for simulation state and a self-verifying checkpoint
// file container (see file.go).
//
// The codec is the foundation of the deterministic-resume guarantee: a
// network restored from a snapshot and stepped N cycles must be
// byte-identical to an unbroken run (pinned by the resume tests in
// internal/network and internal/sim). Every encoder is therefore a pure
// function of the logical state it serializes — fixed field order, no
// map iteration, no pointers, no wall-clock — so saving the same state
// twice yields the same bytes, and a snapshot taken on one machine
// restores on any other.
//
// Encoding primitives: unsigned varints (counts, ids), zigzag varints
// (signed cycle counters and deltas), fixed-width little-endian words
// (RNG state, float bit patterns) and length-prefixed strings. The
// Decoder carries a sticky error: the first malformed read latches it,
// every later read returns zero values, and callers check Err (or
// Finish) once at the end instead of threading an error through every
// field — misuse cannot be silent because the container's CRC has
// already vouched for the bytes, so a decode error always means a
// version or logic mismatch, which Finish surfaces.
package snapshot

import (
	"fmt"
	"math"
	"slices"
)

// Encoder serializes state into a growable byte buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; callers must not retain it across further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for n more bytes in one allocation, so that encoding
// that many does not regrow the buffer: appending a large payload a
// value at a time would otherwise allocate, zero and copy several times
// its size on the way.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends bytes verbatim (no length prefix) — for fixed-size
// framing like magic strings, where the reader knows the length.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a fixed-width little-endian 16-bit word.
func (e *Encoder) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 appends a fixed-width little-endian 32-bit word.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a fixed-width little-endian 64-bit word. RNG state words
// use this (varints would waste bytes on well-mixed values).
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Uvarint appends an unsigned varint (LEB128, as encoding/binary).
func (e *Encoder) Uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) {
	e.Uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern (so restored values
// are bit-exact, including signed zeros and NaN payloads).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads state encoded by Encoder. The first malformed read
// latches a sticky error; subsequent reads return zero values. Check
// Err after a decode group, or Finish once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over the payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or an error if unread bytes remain —
// a snapshot must be consumed exactly, so trailing bytes mean a
// version/logic mismatch between writer and reader.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("snapshot: %d trailing bytes after decode", n)
	}
	return nil
}

// fail latches the sticky error (keeping the first one).
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format+" at offset %d", append(args, d.off)...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("truncated payload: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a fixed-width little-endian 16-bit word.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a fixed-width little-endian 32-bit word.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a fixed-width little-endian 64-bit word.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if d.off >= len(d.buf) {
			d.fail("truncated varint")
			return 0
		}
		b := d.buf[d.off]
		d.off++
		if shift == 63 && b > 1 {
			d.fail("varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			d.fail("varint too long")
			return 0
		}
	}
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int encoded with Encoder.Int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a boolean. Any byte other than 0 or 1 is a decode error —
// the strictness catches writer/reader field-order drift early.
func (d *Decoder) Bool() bool {
	b := d.U8()
	if b > 1 {
		d.fail("bool byte 0x%02x", b)
		return false
	}
	return b == 1
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining %d bytes", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// Count reads a collection length and bounds it: a count larger than
// max (or the remaining payload) latches an error instead of driving a
// huge allocation. Collections always encode at least one byte per
// element, so Remaining is a safe universal bound.
func (d *Decoder) Count(max int) int {
	n := d.Uvarint()
	if n > uint64(max) || n > uint64(d.Remaining()) {
		d.fail("collection length %d exceeds bound %d", n, max)
		return 0
	}
	return int(n)
}
