package workload

import (
	"testing"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

func testSpec(seed uint64) TraceSpec {
	return TraceSpec{Nodes: 16, Cycles: 2000, Rate: 0.02, MsgLen: 8, Seed: seed}
}

func TestGeneratorsDeterministicAndValid(t *testing.T) {
	gens := []struct {
		name string
		gen  func(TraceSpec) *Trace
	}{
		{"uniform", GenUniform},
		{"bursty", GenBursty},
		{"diurnal", GenDiurnal},
		{"hotspot", GenHotspot},
		{"incast", GenIncast},
		{"permstorm", GenPermutationStorm},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			a, b := g.gen(testSpec(7)), g.gen(testSpec(7))
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatal("same seed produced different traces")
			}
			if len(a.Records) == 0 {
				t.Fatal("empty trace")
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			c := g.gen(testSpec(8))
			if a.Fingerprint() == c.Fingerprint() {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

// recordingSink captures submissions for replay comparison.
type recordingSink struct{ msgs []flit.Message }

func (s *recordingSink) SubmitMessage(m flit.Message) { s.msgs = append(s.msgs, m) }

func TestReplayerPositionRoundTrip(t *testing.T) {
	trace := GenHotspot(testSpec(5))

	// Unbroken replay of 3000 cycles (looping past the 2000-cycle span).
	ref := NewReplayer(trace, true)
	var refSink recordingSink
	for c := int64(0); c < 3000; c++ {
		ref.Tick(&refSink, c)
	}

	// Broken replay: checkpoint at 1500, restore into a fresh replayer.
	first := NewReplayer(trace, true)
	var sink recordingSink
	for c := int64(0); c < 1500; c++ {
		first.Tick(&sink, c)
	}
	var e snapshot.Encoder
	first.SaveState(&e)
	resumed := NewReplayer(trace, true)
	if err := resumed.LoadState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	for c := int64(1500); c < 3000; c++ {
		resumed.Tick(&sink, c)
	}

	if len(sink.msgs) != len(refSink.msgs) {
		t.Fatalf("resumed replay submitted %d messages, unbroken %d", len(sink.msgs), len(refSink.msgs))
	}
	for i := range refSink.msgs {
		if sink.msgs[i] != refSink.msgs[i] {
			t.Fatalf("submission %d diverged: %+v != %+v", i, sink.msgs[i], refSink.msgs[i])
		}
	}
}

func TestReplayerRejectsForeignTrace(t *testing.T) {
	a := NewReplayer(GenUniform(testSpec(1)), false)
	var sink recordingSink
	a.Tick(&sink, 0)
	var e snapshot.Encoder
	a.SaveState(&e)

	b := NewReplayer(GenUniform(testSpec(2)), false)
	if err := b.LoadState(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("position restored under a different trace")
	}
	c := NewReplayer(GenUniform(testSpec(1)), true)
	if err := c.LoadState(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("position restored under a different loop mode")
	}
}

// TestReplayerSaveStateAllocs: the trace is digested once, by
// NewReplayer, so a checkpoint save neither re-hashes it nor allocates
// on an encoder with room to spare (pre-grown by a thousand saves, as
// in core's TestReceiverSaveStateAllocs).
func TestReplayerSaveStateAllocs(t *testing.T) {
	r := NewReplayer(GenUniform(testSpec(1)), true)
	var sink recordingSink
	r.Tick(&sink, 100)
	var e snapshot.Encoder
	for i := 0; i < 1000; i++ {
		r.SaveState(&e)
	}
	if avg := testing.AllocsPerRun(100, func() { r.SaveState(&e) }); avg != 0 {
		t.Fatalf("Replayer.SaveState allocates %.2f times per save, want 0", avg)
	}
}

func TestReplayerDoneAndLoop(t *testing.T) {
	trace := &Trace{Name: "tiny", Nodes: 4, Records: []TraceRecord{
		{Cycle: 0, Src: 0, Dst: 1, DataLen: 2},
		{Cycle: 5, Src: 2, Dst: 3, DataLen: 2},
	}}
	r := NewReplayer(trace, false)
	var sink recordingSink
	for c := int64(0); c < 10; c++ {
		r.Tick(&sink, c)
	}
	if !r.Done() || len(sink.msgs) != 2 {
		t.Fatalf("done=%t msgs=%d, want true/2", r.Done(), len(sink.msgs))
	}

	loop := NewReplayer(trace, true)
	sink.msgs = sink.msgs[:0]
	for c := int64(0); c < 12; c++ { // duration 6: two full epochs
		loop.Tick(&sink, c)
	}
	if loop.Done() {
		t.Fatal("looping replayer reported done")
	}
	if len(sink.msgs) != 4 {
		t.Fatalf("looping replay submitted %d messages over two epochs, want 4", len(sink.msgs))
	}
	if sink.msgs[2].CreateTime != 6 {
		t.Fatalf("second epoch first submission at cycle %d, want 6", sink.msgs[2].CreateTime)
	}
}

func TestTraceForDerivesRate(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	spec := TraceFor(topo, 0.2, 16, 1000, 9, 1.0)
	if spec.Nodes != topo.Nodes() || spec.Cycles != 1000 {
		t.Fatalf("spec shape %+v", spec)
	}
	want := 0.2 * 1.0 / 16
	if spec.Rate != want {
		t.Fatalf("rate = %g, want %g", spec.Rate, want)
	}
}

// TestTraceValidateRejectsUnencodableLength: a record longer than a head
// flit's 16-bit length field is refused when the trace is validated, not
// left to panic when its message is submitted.
func TestTraceValidateRejectsUnencodableLength(t *testing.T) {
	tr := &Trace{Name: "long", Nodes: 4, Records: []TraceRecord{{Cycle: 0, Src: 0, Dst: 1, DataLen: flit.MaxDataLen}}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("a %d-flit record rejected: %v", flit.MaxDataLen, err)
	}
	tr.Records[0].DataLen = flit.MaxDataLen + 1
	if err := tr.Validate(); err == nil {
		t.Fatalf("a %d-flit record accepted", flit.MaxDataLen+1)
	}
}
