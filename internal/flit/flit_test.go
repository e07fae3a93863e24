package flit

import (
	"testing"
	"testing/quick"

	"crnet/internal/rng"
	"crnet/internal/topology"
)

func TestWormIDRoundTrip(t *testing.T) {
	f := func(m uint32, attempt uint8) bool {
		w := MakeWormID(MessageID(m), int(attempt))
		return w.Message() == MessageID(m) && w.Attempt() == int(attempt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := func(src, dst uint16, length uint16, attempt uint8) bool {
		h := Header{
			Src:     topology.NodeID(src),
			Dst:     topology.NodeID(dst),
			DataLen: int(length%maxHeaderLen) + 1,
			Attempt: int(attempt),
		}
		w, err := EncodeHeader(h)
		if err != nil {
			return false
		}
		return DecodeHeader(w) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderEncodeRejectsBadFields(t *testing.T) {
	bad := []Header{
		{Src: -1, Dst: 1, DataLen: 1},
		{Src: 1, Dst: maxHeaderNode + 1, DataLen: 1},
		{Src: 1, Dst: 2, DataLen: 0},
		{Src: 1, Dst: 2, DataLen: maxHeaderLen + 1},
		{Src: 1, Dst: 2, DataLen: 1, Attempt: MaxAttempts},
		{Src: 1, Dst: 2, DataLen: 1, Attempt: -1},
	}
	for i, h := range bad {
		if _, err := EncodeHeader(h); err == nil {
			t.Errorf("case %d: EncodeHeader(%+v) accepted invalid header", i, h)
		}
	}
}

func TestChecksumDetectsSingleBitFlips(t *testing.T) {
	fr := Frame{Msg: Message{ID: 7, Src: 3, Dst: 9, DataLen: 4}, Attempt: 1, PadLen: 2}
	for seq := 0; seq < fr.TotalLen(); seq++ {
		f := fr.FlitAt(seq)
		if !f.Verify() {
			t.Fatalf("fresh flit %d fails verification", seq)
		}
		for bit := 0; bit < 64; bit++ {
			g := f
			g.Payload ^= 1 << uint(bit)
			if g.Verify() {
				t.Fatalf("flit %d: payload bit %d flip undetected", seq, bit)
			}
		}
		for bit := 0; bit < 8; bit++ {
			g := f
			g.Check ^= 1 << uint(bit)
			if g.Verify() {
				t.Fatalf("flit %d: checksum bit %d flip undetected", seq, bit)
			}
		}
		g := f
		g.Tail = !g.Tail
		if g.Verify() {
			t.Fatalf("flit %d: tail flip undetected", seq)
		}
		g = f
		g.Seq ^= 1
		if g.Verify() {
			t.Fatalf("flit %d: seq flip undetected", seq)
		}
	}
}

// CRC-8 with poly 0x07 detects all double-bit errors within a byte
// payload window much smaller than its 127-bit guarantee span.
func TestChecksumDetectsDoubleBitFlips(t *testing.T) {
	fr := Frame{Msg: Message{ID: 21, Src: 0, Dst: 5, DataLen: 2}}
	f := fr.FlitAt(1)
	for b1 := 0; b1 < 64; b1++ {
		for b2 := b1 + 1; b2 < 64; b2++ {
			g := f
			g.Payload ^= 1<<uint(b1) | 1<<uint(b2)
			if g.Verify() {
				t.Fatalf("double flip (%d,%d) undetected", b1, b2)
			}
		}
	}
}

func TestCRC8KnownVector(t *testing.T) {
	// CRC-8/CCITT ("CRC-8" in the catalog: poly 0x07, init 0x00) of
	// "123456789" is 0xF4.
	data := []byte("123456789")
	if got := CRC8(0, data...); got != 0xf4 {
		t.Fatalf("CRC8(\"123456789\") = %#x, want 0xf4", got)
	}
}

func TestFrameStructure(t *testing.T) {
	msg := Message{ID: 3, Src: 1, Dst: 2, DataLen: 5}
	fr := Frame{Msg: msg, Attempt: 2, PadLen: 3}
	if fr.TotalLen() != 8 {
		t.Fatalf("TotalLen = %d, want 8", fr.TotalLen())
	}
	for seq := 0; seq < fr.TotalLen(); seq++ {
		f := fr.FlitAt(seq)
		wantKind := Data
		switch {
		case seq == 0:
			wantKind = Head
		case seq >= msg.DataLen:
			wantKind = Pad
		}
		if f.Kind != wantKind {
			t.Errorf("seq %d: kind %v, want %v", seq, f.Kind, wantKind)
		}
		if f.Tail != (seq == 7) {
			t.Errorf("seq %d: tail = %v", seq, f.Tail)
		}
		if f.Worm != MakeWormID(3, 2) {
			t.Errorf("seq %d: worm id %d", seq, f.Worm)
		}
		if !f.Verify() {
			t.Errorf("seq %d: bad checksum on fresh flit", seq)
		}
	}
	head := DecodeHeader(fr.FlitAt(0).Payload)
	if head.Src != 1 || head.Dst != 2 || head.DataLen != 5 || head.Attempt != 2 {
		t.Errorf("decoded header %+v", head)
	}
}

func TestFrameSingleFlitMessage(t *testing.T) {
	fr := Frame{Msg: Message{ID: 1, Src: 0, Dst: 1, DataLen: 1}}
	f := fr.FlitAt(0)
	if f.Kind != Head || !f.Tail {
		t.Fatalf("single-flit worm should be HEAD|TAIL, got %v tail=%v", f.Kind, f.Tail)
	}
}

func TestFrameFlitAtPanicsOutOfRange(t *testing.T) {
	fr := Frame{Msg: Message{ID: 1, Src: 0, Dst: 1, DataLen: 2}}
	for _, seq := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FlitAt(%d) did not panic", seq)
				}
			}()
			fr.FlitAt(seq)
		}()
	}
}

func TestPayloadWordDeterministicAndSpread(t *testing.T) {
	if PayloadWord(5, 3) != PayloadWord(5, 3) {
		t.Fatal("PayloadWord not deterministic")
	}
	seen := map[uint64]bool{}
	for m := MessageID(0); m < 50; m++ {
		for s := 0; s < 50; s++ {
			w := PayloadWord(m, s)
			if seen[w] {
				t.Fatalf("payload collision at msg=%d seq=%d", m, s)
			}
			seen[w] = true
		}
	}
}

func TestMessageValidate(t *testing.T) {
	cases := []struct {
		m  Message
		ok bool
	}{
		{Message{ID: 1, Src: 0, Dst: 1, DataLen: 4}, true},
		{Message{ID: 2, Src: 0, Dst: 0, DataLen: 4}, false},
		{Message{ID: 3, Src: 0, Dst: 1, DataLen: 0}, false},
		{Message{ID: 4, Src: -1, Dst: 1, DataLen: 4}, false},
		{Message{ID: 5, Src: 0, Dst: 100, DataLen: 4}, false},
		{Message{ID: 6, Src: 0, Dst: 1, DataLen: MaxDataLen}, true},
		{Message{ID: 7, Src: 0, Dst: 1, DataLen: MaxDataLen + 1}, false}, // the header's 16-bit length
	}
	for _, c := range cases {
		err := c.m.Validate(16)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.m, err, c.ok)
		}
	}
}

func TestKindString(t *testing.T) {
	if Head.String() != "HEAD" || Data.String() != "DATA" || Pad.String() != "PAD" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

// Random corruption of random fields must be detected with overwhelming
// probability (CRC-8 false-accept rate is 1/256 for random garbage; we
// corrupt with structured single-field damage which is always caught for
// <=2-bit flips, so accept zero misses here for up to 2 flipped bits).
func TestQuickRandomCorruptionDetected(t *testing.T) {
	r := rng.New(1)
	fr := Frame{Msg: Message{ID: 99, Src: 2, Dst: 14, DataLen: 8}, PadLen: 4}
	for trial := 0; trial < 5000; trial++ {
		f := fr.FlitAt(r.Intn(fr.TotalLen()))
		nbits := 1 + r.Intn(2)
		for i := 0; i < nbits; i++ {
			f.Payload ^= 1 << uint(r.Intn(64))
		}
		if f.Verify() {
			// The two flips may have cancelled.
			g := fr.FlitAt(int(f.Seq))
			if g.Payload != f.Payload {
				t.Fatalf("trial %d: %d-bit corruption undetected", trial, nbits)
			}
		}
	}
}

func BenchmarkFlitAtAndSeal(b *testing.B) {
	fr := Frame{Msg: Message{ID: 42, Src: 1, Dst: 200, DataLen: 16}, PadLen: 8}
	total := fr.TotalLen()
	for i := 0; i < b.N; i++ {
		_ = fr.FlitAt(i % total)
	}
}

func BenchmarkVerify(b *testing.B) {
	f := (Frame{Msg: Message{ID: 42, Src: 1, Dst: 200, DataLen: 16}}).FlitAt(3)
	for i := 0; i < b.N; i++ {
		if !f.Verify() {
			b.Fatal("verify failed")
		}
	}
}
