package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

// stampVersion returns a copy of a well-formed container with its
// version word set to v and the CRC recomputed over the result.
func stampVersion(container []byte, v uint32) []byte {
	var e Encoder
	e.buf = append(e.buf, container[:len(Magic)]...)
	e.U32(v)
	e.buf = append(e.buf, container[len(Magic)+4:len(container)-4]...)
	e.U32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// FuzzDecode hammers the checkpoint-container reader with arbitrary
// bytes. The contract under test: Decode never panics, rejects every
// malformed container — an earlier or later FormatVersion included —
// with a *FormatError and no payload, and anything it accepts is a
// container it would itself have produced: the returned cycle and
// payload encode back to the input byte for byte.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid container, interesting truncations and header
	// corruptions of it, and degenerate inputs.
	valid := Encode(42, []byte("router state bytes"))
	f.Add(valid)
	f.Add(Encode(0, nil))
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)-1])                     // chopped CRC
	f.Add(valid[:headerSize])                       // header only
	f.Add(append([]byte("CRSNAP99"), valid[8:]...)) // wrong magic digits

	flip := append([]byte(nil), valid...)
	flip[len(Magic)] ^= 0xff // version byte
	f.Add(flip)
	flip2 := append([]byte(nil), valid...)
	flip2[headerSize+3] ^= 0x01 // payload bit
	f.Add(flip2)
	f.Add(stampVersion(valid, FormatVersion-1)) // the previous version, well-formed
	f.Add(stampVersion(valid, FormatVersion-2)) // the one before, which the previous build still read
	f.Add(stampVersion(valid, FormatVersion+1)) // from the future

	f.Fuzz(func(t *testing.T, data []byte) {
		cycle, payload, err := Decode("<fuzz>", data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Decode error is %T, want *FormatError: %v", err, err)
			}
			if payload != nil {
				t.Fatal("rejected container still returned payload bytes")
			}
			return
		}
		if !bytes.Equal(Encode(cycle, payload), data) {
			t.Fatalf("accepted container is not canonical: cycle %d, %d payload bytes", cycle, len(payload))
		}
	})
}
