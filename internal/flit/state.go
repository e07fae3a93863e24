package flit

import (
	"crnet/internal/snapshot"

	"crnet/internal/topology"
)

// Checkpoint codecs for the flit-layer value types. Every field is
// encoded explicitly, in a fixed order that is the checkpoint layout
// and not the struct's declaration order; in-flight worms keep their
// full identity (worm id, checksum, detour/hop control metadata and
// the source-side Stamps) so a restored run's deliveries are
// byte-identical to an unbroken one's.

// PutStamps appends s to a snapshot.
func PutStamps(e *snapshot.Encoder, s Stamps) {
	e.Varint(s.Create)
	e.Varint(s.FirstInject)
	e.Varint(s.AttemptInject)
	e.Varint(s.Backoff)
}

// GetStamps reads a Stamps written by PutStamps.
func GetStamps(d *snapshot.Decoder) Stamps {
	return Stamps{
		Create:        d.Varint(),
		FirstInject:   d.Varint(),
		AttemptInject: d.Varint(),
		Backoff:       d.Varint(),
	}
}

// PutFlit appends f to a snapshot.
func PutFlit(e *snapshot.Encoder, f *Flit) {
	e.U64(uint64(f.Worm))
	e.Int(f.Seq)
	e.U8(uint8(f.Kind))
	e.Bool(f.Tail)
	e.U64(f.Payload)
	e.U8(f.Check)
	e.Varint(int64(f.Src))
	e.Varint(int64(f.Dst))
	e.U8(f.Detours)
	e.U16(f.Hops)
	PutStamps(e, f.Stamps)
}

// GetFlit reads a Flit written by PutFlit.
func GetFlit(d *snapshot.Decoder) Flit {
	return Flit{
		Worm:    WormID(d.U64()),
		Seq:     d.Int(),
		Kind:    Kind(d.U8()),
		Tail:    d.Bool(),
		Payload: d.U64(),
		Check:   d.U8(),
		Src:     topology.NodeID(d.Varint()),
		Dst:     topology.NodeID(d.Varint()),
		Detours: d.U8(),
		Hops:    d.U16(),
		Stamps:  GetStamps(d),
	}
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
