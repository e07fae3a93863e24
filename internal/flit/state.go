package flit

import (
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Checkpoint codecs for the flit-layer value types. Every field is
// encoded explicitly, in a fixed order that is the checkpoint layout
// and not the struct's declaration order; in-flight worms keep their
// full identity (worm id, checksum, detour/hop control metadata) so a
// restored run's deliveries are byte-identical to an unbroken one's.

// PutStamps appends s to a snapshot: the attempt's injection cycle, then
// the first attempt's and the creation cycle as distances back from it
// and the cumulative backoff, each a few cycles where the absolute
// cycles would be several bytes:
//
//	varint AttemptInject
//	varint AttemptInject - FirstInject, FirstInject - Create, Backoff
func PutStamps(e *snapshot.Encoder, s Stamps) {
	e.Varint(s.AttemptInject)
	e.Varint(s.AttemptInject - s.FirstInject)
	e.Varint(s.FirstInject - s.Create)
	e.Varint(s.Backoff)
}

// GetStamps reads a Stamps written by PutStamps.
func GetStamps(d *snapshot.Decoder) Stamps {
	var s Stamps
	s.AttemptInject = d.Varint()
	s.FirstInject = s.AttemptInject - d.Varint()
	s.Create = s.FirstInject - d.Varint()
	s.Backoff = d.Varint()
	return s
}

// PutFlit appends f to a snapshot.
func PutFlit(e *snapshot.Encoder, f *Flit) {
	e.U64(uint64(f.Worm))
	e.Int(int(f.Seq))
	e.U8(uint8(f.Kind))
	e.Bool(f.Tail)
	e.U64(f.Payload)
	e.U8(f.Check)
	e.Varint(int64(f.Dst))
	e.U8(f.Detours)
	e.U16(f.Hops)
}

// GetFlit reads a Flit written by PutFlit.
func GetFlit(d *snapshot.Decoder) Flit {
	return Flit{
		Worm:    WormID(d.U64()),
		Seq:     narrow(int64(d.Int())),
		Kind:    Kind(d.U8()),
		Tail:    d.Bool(),
		Payload: d.U64(),
		Check:   d.U8(),
		Dst:     narrow(d.Varint()),
		Detours: d.U8(),
		Hops:    d.U16(),
	}
}

// narrow returns v as an int32, or -1 — which WellFormed rejects — if it
// does not fit, so a corrupt sequence number or destination cannot wrap
// into a plausible one.
func narrow(v int64) int32 {
	if v != int64(int32(v)) {
		return -1
	}
	return int32(v)
}

// PutMessage appends m to a snapshot.
func PutMessage(e *snapshot.Encoder, m Message) {
	e.U64(uint64(m.ID))
	e.Varint(int64(m.Src))
	e.Varint(int64(m.Dst))
	e.Int(m.DataLen)
	e.Varint(m.CreateTime)
}

// GetMessage reads a Message written by PutMessage.
func GetMessage(d *snapshot.Decoder) Message {
	return Message{
		ID:         MessageID(d.U64()),
		Src:        topology.NodeID(d.Varint()),
		Dst:        topology.NodeID(d.Varint()),
		DataLen:    d.Int(),
		CreateTime: d.Varint(),
	}
}
