// Package flit defines the flow-control units exchanged by wormhole
// routers, the message abstraction above them, and the per-flit checksum
// used by Fault-tolerant Compressionless Routing (FCR).
//
// A message is transmitted as a worm: a HEAD flit carrying routing
// information, zero or more DATA flits, and — under CR/FCR — PAD flits
// appended so the worm length reaches the protocol's minimum injection
// length. The final flit of a worm, whatever its kind, has Tail set.
// Tear-down (KILL/FKILL) is signalled out of band by the router package
// and is not a flit kind.
package flit

import (
	"fmt"

	"crnet/internal/topology"
)

// Kind classifies a flit's role within its worm.
type Kind uint8

// Flit kinds.
const (
	// Head is the first flit; it carries src, dst and framing metadata
	// and claims channels as it advances.
	Head Kind = iota
	// Data carries one payload word.
	Data
	// Pad is protocol padding appended by CR/FCR injectors; receivers
	// discard it.
	Pad
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "HEAD"
	case Data:
		return "DATA"
	case Pad:
		return "PAD"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MessageID identifies a message end to end, across retransmissions.
type MessageID uint64

// WormID identifies one transmission attempt of a message. The low byte
// is the attempt number, the rest the MessageID, so ids are unique per
// attempt and the parent message is recoverable.
type WormID uint64

// MaxAttempts is the number of attempts distinguishable inside a WormID.
const MaxAttempts = 256

// MakeWormID composes a worm id from a message id and an attempt number.
func MakeWormID(m MessageID, attempt int) WormID {
	return WormID(uint64(m)<<8 | uint64(attempt)&0xff)
}

// Message returns the message id a worm belongs to.
func (w WormID) Message() MessageID { return MessageID(uint64(w) >> 8) }

// Attempt returns the transmission attempt number (0 = first try).
func (w WormID) Attempt() int { return int(uint64(w) & 0xff) }

// Flit is one flow-control unit: what the wire carries. Every router
// ring slot and every in-flight link entry holds one by value, so the
// struct is kept small and flat deliberately: the two 8-byte words
// first, then the 4-byte sequence number and destination, and the
// narrow fields sharing the last word, 32 bytes in all. The checkpoint
// codec (PutFlit) and the checksum name fields explicitly, so
// declaration order is free.
//
// What the wire would not carry stays off the flit: the source is in
// the head's header (Payload), and the source-side phase timestamps of
// an attempt are recorded once, at head injection, with the
// destination's receiver, which joins them into the delivery (see
// core.Port.Stamp).
//
// Between those homes a flit moves by reference, so one hop costs
// exactly two copies: ring slot into the link's in-flight entry
// (transmit), and in-flight entry into the next router's ring
// (arrival). A pointer to a ring slot, as the router's transmit hands
// its move callback, is valid only until that VC's next push; a pointer
// to an in-flight entry only until the next transmit phase. Neither may
// be kept.
type Flit struct {
	Worm WormID

	// Payload is the data word. For Head flits it is the encoded header
	// (see EncodeHeader); for Data flits a payload word; for Pad flits a
	// fixed filler pattern.
	Payload uint64

	Seq int32 // position within the worm, 0 = head

	// Dst is the destination node, carried on every flit for the
	// simulator's routers and checks; real hardware keeps it only in the
	// head. It fits 32 bits because a header names at most MaxNodes
	// nodes.
	Dst int32

	// Hops counts the network channels this worm's head has claimed,
	// maintained by routers for the livelock watchdog. Like Detours it
	// is control metadata outside the checksum, and restarts at zero on
	// each retransmission attempt.
	Hops uint16

	Kind Kind
	Tail bool // set on the worm's final flit

	// Check is the CRC-8 of the flit's identity and payload, computed by
	// Seal and verified by Verify. Fault injection flips payload or
	// checksum bits; Verify then fails.
	Check uint8

	// Detours counts the non-minimal hops the worm has taken, maintained
	// by routers on head flits to bound misrouting around permanent
	// faults. It is control metadata (like the tail mark) and is not
	// covered by the checksum.
	Detours uint8
}

// Stamps are the source-side phase timestamps of one transmission
// attempt, recorded by its injector when the head enters the network
// and joined into the delivery at the destination. Together with the
// receiver-side arrival times they partition end-to-end latency into
// queueing, retransmission and network phases (see internal/obs).
type Stamps struct {
	// Create is the cycle the message was offered to the injector
	// (latency accounting starts here).
	Create int64
	// FirstInject is the cycle attempt 0's head flit entered the
	// injection channel — the end of the pure queueing phase.
	FirstInject int64
	// AttemptInject is the cycle this attempt's head flit entered the
	// injection channel; equals FirstInject for first-try deliveries.
	AttemptInject int64
	// Backoff is the cumulative cycles the source spent waiting out
	// retransmission gaps before this attempt (a sub-interval of the
	// FirstInject..AttemptInject retry phase).
	Backoff int64
}

// String implements fmt.Stringer for debugging output.
func (f Flit) String() string {
	tail := ""
	if f.Tail {
		tail = "|TAIL"
	}
	return fmt.Sprintf("{%s%s worm=%d.%d seq=%d dst=%d}",
		f.Kind, tail, f.Worm.Message(), f.Worm.Attempt(), f.Seq, f.Dst)
}

// Header is the routing information carried in a head flit's payload.
type Header struct {
	Src, Dst topology.NodeID
	DataLen  int // number of data flits including the head
	Attempt  int
}

// Field widths for header encoding. 20-bit node ids support networks of
// up to ~1M nodes; 16-bit lengths support messages of up to 64K flits.
const (
	headerNodeBits = 20
	headerLenBits  = 16
	headerAttBits  = 8
	maxHeaderNode  = 1<<headerNodeBits - 1
	maxHeaderLen   = 1<<headerLenBits - 1
)

// MaxNodes is the largest network a header can address, and MaxDataLen
// the longest message it can describe (data flits including the head).
// Message.Validate and the network configuration reject anything
// larger when it is accepted, so a head flit can always be built.
const (
	MaxNodes   = maxHeaderNode + 1
	MaxDataLen = maxHeaderLen
)

// EncodeHeader packs h into a 64-bit payload word. It returns an error if
// any field exceeds its width.
func EncodeHeader(h Header) (uint64, error) {
	if h.Src < 0 || int(h.Src) > maxHeaderNode {
		return 0, fmt.Errorf("flit: header src %d out of range", h.Src)
	}
	if h.Dst < 0 || int(h.Dst) > maxHeaderNode {
		return 0, fmt.Errorf("flit: header dst %d out of range", h.Dst)
	}
	if h.DataLen < 1 || h.DataLen > maxHeaderLen {
		return 0, fmt.Errorf("flit: header length %d out of range", h.DataLen)
	}
	if h.Attempt < 0 || h.Attempt >= MaxAttempts {
		return 0, fmt.Errorf("flit: header attempt %d out of range", h.Attempt)
	}
	w := uint64(h.Src)
	w |= uint64(h.Dst) << headerNodeBits
	w |= uint64(h.DataLen) << (2 * headerNodeBits)
	w |= uint64(h.Attempt) << (2*headerNodeBits + headerLenBits)
	return w, nil
}

// DecodeHeader unpacks a payload word produced by EncodeHeader.
func DecodeHeader(w uint64) Header {
	return Header{
		Src:     topology.NodeID(w & maxHeaderNode),
		Dst:     topology.NodeID((w >> headerNodeBits) & maxHeaderNode),
		DataLen: int((w >> (2 * headerNodeBits)) & maxHeaderLen),
		Attempt: int((w >> (2*headerNodeBits + headerLenBits)) & (MaxAttempts - 1)),
	}
}

// PadPayload is the filler pattern carried by PAD flits.
const PadPayload uint64 = 0xAAAAAAAAAAAAAAAA

// PayloadWord returns the deterministic payload of data flit seq of
// message m. Receivers regenerate it to verify end-to-end data integrity
// in tests and in the FCR delivery checker.
func PayloadWord(m MessageID, seq int) uint64 {
	x := uint64(m)*0x9e3779b97f4a7c15 + uint64(seq)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// crc8Table is the CRC-8 table for polynomial x^8+x^2+x+1 (0x07).
var crc8Table = makeCRC8Table(0x07)

func makeCRC8Table(poly uint8) [256]uint8 {
	var t [256]uint8
	for i := 0; i < 256; i++ {
		crc := uint8(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// CRC8 returns the CRC-8 (poly 0x07) of data with the given initial value.
func CRC8(init uint8, data ...byte) uint8 {
	crc := init
	for _, b := range data {
		crc = crc8Table[crc^b]
	}
	return crc
}

// checksum computes the flit's CRC over its kind, tail flag, sequence
// number and payload — everything a link fault could corrupt.
func (f *Flit) checksum() uint8 {
	var buf [11]byte
	buf[0] = byte(f.Kind)
	if f.Tail {
		buf[0] |= 0x80
	}
	buf[1] = byte(f.Seq)
	buf[2] = byte(f.Seq >> 8)
	for i := 0; i < 8; i++ {
		buf[3+i] = byte(f.Payload >> (8 * i))
	}
	return CRC8(0xff, buf[:]...)
}

// WellFormed reports whether f could be a flit of a worm on a network
// of the given node count: a known kind, a head exactly at sequence 0,
// and a destination that is a node. (Corruption flips only the payload
// and checksum, so a flit stays well formed wherever it travels.)
func (f *Flit) WellFormed(nodes int) bool {
	return f.Kind <= Pad && f.Seq >= 0 && (f.Kind == Head) == (f.Seq == 0) &&
		uint(f.Dst) < uint(nodes)
}

// Seal computes and stores the flit's checksum.
func (f *Flit) Seal() { f.Check = f.checksum() }

// Verify reports whether the flit's checksum matches its contents.
func (f *Flit) Verify() bool { return f.Check == f.checksum() }

// Message is one end-to-end communication request: DataLen flits of data
// (including the head flit) from Src to Dst.
type Message struct {
	ID      MessageID
	Src     topology.NodeID
	Dst     topology.NodeID
	DataLen int // data flits including the head; >= 1

	// CreateTime is the cycle the message was offered to the injector;
	// latency accounting starts here.
	CreateTime int64
}

// Validate reports a descriptive error for malformed messages.
func (m Message) Validate(nodes int) error {
	if m.DataLen < 1 || m.DataLen > MaxDataLen {
		return fmt.Errorf("flit: message %d has length %d outside [1,%d]", m.ID, m.DataLen, MaxDataLen)
	}
	if m.Src < 0 || int(m.Src) >= nodes || m.Dst < 0 || int(m.Dst) >= nodes {
		return fmt.Errorf("flit: message %d endpoints %d->%d outside [0,%d)", m.ID, m.Src, m.Dst, nodes)
	}
	if m.Src == m.Dst {
		return fmt.Errorf("flit: message %d is a self-send", m.ID)
	}
	return nil
}

// Frame describes one transmission attempt of a message: DataLen data
// flits followed by PadLen pad flits. TotalLen is their sum; the flit at
// index TotalLen-1 carries the tail mark.
type Frame struct {
	Msg     Message
	Attempt int
	PadLen  int
}

// TotalLen returns the worm length in flits.
func (fr Frame) TotalLen() int { return fr.Msg.DataLen + fr.PadLen }

// WormID returns the id of this attempt's worm.
func (fr Frame) WormID() WormID { return MakeWormID(fr.Msg.ID, fr.Attempt) }

// FlitAt materializes flit seq of the frame. It panics if seq is out of
// range. The flit is sealed (checksummed) and ready for injection.
func (fr Frame) FlitAt(seq int) Flit {
	total := fr.TotalLen()
	if seq < 0 || seq >= total {
		panic(fmt.Sprintf("flit: FlitAt(%d) outside worm of %d flits", seq, total))
	}
	f := Flit{
		Worm: fr.WormID(),
		Seq:  int32(seq),
		Tail: seq == total-1,
		Dst:  int32(fr.Msg.Dst),
	}
	switch {
	case seq == 0:
		f.Kind = Head
		w, err := EncodeHeader(Header{Src: fr.Msg.Src, Dst: fr.Msg.Dst, DataLen: fr.Msg.DataLen, Attempt: fr.Attempt})
		if err != nil {
			panic(err) // Message.Validate and the network configuration admit only encodable headers
		}
		f.Payload = w
	case seq < fr.Msg.DataLen:
		f.Kind = Data
		f.Payload = PayloadWord(fr.Msg.ID, seq)
	default:
		f.Kind = Pad
		f.Payload = PadPayload
	}
	f.Seal()
	return f
}
