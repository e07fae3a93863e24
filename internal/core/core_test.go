package core

import (
	"slices"
	"testing"
	"testing/quick"

	"crnet/internal/flit"
	"crnet/internal/topology"
)

// fakePort is a scripted injection channel for driving the injector.
type fakePort struct {
	free      int
	notReady  bool
	injected  []flit.Flit
	kills     []flit.WormID
	stamped   []flit.Stamps // one per Stamp call
	unstamped []flit.WormID
}

func (p *fakePort) Ready() bool { return !p.notReady }
func (p *fakePort) Free() int   { return p.free }
func (p *fakePort) Inject(f flit.Flit) {
	if p.free == 0 {
		panic("inject into full port")
	}
	p.injected = append(p.injected, f)
}
func (p *fakePort) Kill(w flit.WormID) { p.kills = append(p.kills, w) }
func (p *fakePort) Stamp(_ topology.NodeID, _ flit.WormID, s flit.Stamps) {
	p.stamped = append(p.stamped, s)
}
func (p *fakePort) Unstamp(_ topology.NodeID, w flit.WormID) { p.unstamped = append(p.unstamped, w) }

func crConfig() Config {
	return Config{Protocol: CR, BufDepth: 2, VCs: 1, Backoff: Backoff{Kind: BackoffStatic, Gap: 8}}
}

func fcrConfig() Config {
	c := crConfig()
	c.Protocol = FCR
	return c
}

func newInj(t *testing.T, cfg Config, ports ...*fakePort) (*Injector, []*fakePort) {
	t.Helper()
	if len(ports) == 0 {
		ports = []*fakePort{{free: 1 << 20}}
	}
	ifaces := make([]Port, len(ports))
	for i, p := range ports {
		ifaces[i] = p
	}
	topo := topology.NewTorus(8, 2)
	return NewInjector(cfg, topo, 0, ifaces, 1), ports
}

func msgTo(dst topology.NodeID, length int) flit.Message {
	return flit.Message{ID: 1, Src: 0, Dst: dst, DataLen: length}
}

func TestConfigValidate(t *testing.T) {
	good := crConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Protocol: Protocol(9), BufDepth: 2, VCs: 1},
		{Protocol: CR, BufDepth: 0, VCs: 1},
		{Protocol: CR, BufDepth: 2, VCs: 0},
		{Protocol: CR, BufDepth: 2, VCs: 1, Timeout: -1},
		{Protocol: CR, BufDepth: 2, VCs: 1, MaxAttempts: 300},
		{Protocol: CR, BufDepth: 2, VCs: 1, MisrouteAfter: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestBackoffPolicies(t *testing.T) {
	s := Backoff{Kind: BackoffStatic, Gap: 16}
	for a := 0; a < 5; a++ {
		if s.GapFor(a) != 16 {
			t.Fatalf("static gap(%d) = %d", a, s.GapFor(a))
		}
	}
	e := Backoff{Kind: BackoffExponential, Gap: 4, Cap: 64}
	want := []int{4, 8, 16, 32, 64, 64, 64}
	for a, w := range want {
		if got := e.GapFor(a); got != w {
			t.Fatalf("exp gap(%d) = %d, want %d", a, got, w)
		}
	}
	// Default cap and overflow safety.
	d := Backoff{Kind: BackoffExponential, Gap: 2}
	if d.GapFor(100) != 128 {
		t.Fatalf("default cap = %d, want 64*2", d.GapFor(100))
	}
	z := Backoff{Kind: BackoffStatic}
	if z.GapFor(0) != 1 {
		t.Fatal("zero gap not clamped to 1")
	}
}

func TestSlackAndIminMonotone(t *testing.T) {
	f := func(distRaw, bufRaw uint8) bool {
		dist := int(distRaw%32) + 1
		buf := int(bufRaw%8) + 1
		s := SlackBound(dist, buf)
		if s != buf*(dist+1) {
			return false
		}
		if IminCR(dist, buf) != s+1 {
			return false
		}
		// FCR length dominates CR's commit bound and grows with data.
		if IminFCR(10, dist, buf) <= IminCR(dist, buf) {
			return false
		}
		return IminFCR(11, dist, buf) == IminFCR(10, dist, buf)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRPaddingShortMessage(t *testing.T) {
	inj, ports := newInj(t, crConfig())
	dst := topology.NodeID(3) // distance 3 on the 8x2 torus
	inj.Submit(msgTo(dst, 4))
	for c := int64(0); c < 100 && inj.Busy() || len(ports[0].injected) == 0; c++ {
		inj.Tick(c)
	}
	// dist=3, B=2: Imin = 2*4 + 1 = 9; message 4 flits -> 5 pads.
	want := IminCR(3, 2)
	if got := len(ports[0].injected); got != want {
		t.Fatalf("injected %d flits, want %d", got, want)
	}
	pads := 0
	for _, f := range ports[0].injected {
		if f.Kind == flit.Pad {
			pads++
		}
	}
	if pads != want-4 {
		t.Fatalf("pads = %d, want %d", pads, want-4)
	}
	last := ports[0].injected[len(ports[0].injected)-1]
	if !last.Tail {
		t.Fatal("final flit not tail-marked")
	}
	st := inj.Stats()
	if st.Completed != 1 || st.PadFlits != int64(want-4) || st.DataFlits != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCRLongMessageNoPadding(t *testing.T) {
	inj, ports := newInj(t, crConfig())
	dst := topology.NodeID(1)
	inj.Submit(msgTo(dst, 64)) // dist 1: Imin = 2*2+1 = 5 << 64
	for c := int64(0); c < 200; c++ {
		inj.Tick(c)
	}
	if got := len(ports[0].injected); got != 64 {
		t.Fatalf("injected %d flits, want 64 (no padding)", got)
	}
}

func TestPlainProtocolNoPaddingNoKills(t *testing.T) {
	cfg := crConfig()
	cfg.Protocol = Plain
	inj, ports := newInj(t, cfg, &fakePort{free: 0})
	inj.Submit(msgTo(3, 4))
	for c := int64(0); c < 1000; c++ {
		inj.Tick(c)
	}
	if len(ports[0].kills) != 0 {
		t.Fatal("plain protocol killed a worm")
	}
	if inj.Stats().StallCycles == 0 {
		t.Fatal("expected stalls against a full port")
	}
}

func TestTimeoutKillAndRetry(t *testing.T) {
	cfg := crConfig()
	cfg.Timeout = 10
	port := &fakePort{free: 0} // injection always blocked
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 4))
	var killCycle int64 = -1
	for c := int64(0); c < 12; c++ {
		inj.Tick(c)
		if len(port.kills) == 1 && killCycle < 0 {
			killCycle = c
		}
	}
	if killCycle != 9 {
		t.Fatalf("kill at cycle %d, want 9 (10 stalled ticks)", killCycle)
	}
	if inj.Stats().Kills != 1 {
		t.Fatalf("Kills = %d", inj.Stats().Kills)
	}
	// After the jittered static gap (8-16 cycles), the retry starts with
	// attempt 1 and needs 12 more ticks to finish the 12-flit frame.
	port.free = 1 << 20
	for c := killCycle + 1; c < killCycle+60; c++ {
		inj.Tick(c)
	}
	if inj.Stats().Retries != 1 {
		t.Fatalf("Retries = %d", inj.Stats().Retries)
	}
	if len(port.injected) == 0 || port.injected[0].Worm.Attempt() != 1 {
		t.Fatal("retry did not use attempt 1")
	}
	if inj.Stats().Completed != 1 {
		t.Fatal("retried message did not complete")
	}
}

// TestStampsOncePerAttempt: the injector records each attempt's phase
// timestamps once, when its head enters the port, and withdraws them
// when the attempt is torn down while it is still being sent — by a
// timeout kill or an FKILL.
func TestStampsOncePerAttempt(t *testing.T) {
	cfg := crConfig()
	cfg.Timeout = 5
	port := &fakePort{free: 1 << 20}
	inj, _ := newInj(t, cfg, port)
	m := msgTo(3, 4)
	m.CreateTime = -7
	inj.Submit(m)
	inj.Tick(0) // the head of attempt 0
	port.free = 0
	c := int64(1)
	for ; len(port.kills) == 0; c++ {
		inj.Tick(c)
	}
	killed := c - 1
	port.free = 1 << 20
	for ; inj.Stats().Retries == 0; c++ {
		inj.Tick(c)
	}
	retried := c - 1
	worm0, worm1 := flit.MakeWormID(m.ID, 0), flit.MakeWormID(m.ID, 1)
	want := []flit.Stamps{
		{Create: -7, FirstInject: 0, AttemptInject: 0},
		{Create: -7, FirstInject: 0, AttemptInject: retried, Backoff: retried - killed},
	}
	if !slices.Equal(port.stamped, want) || !slices.Equal(port.unstamped, []flit.WormID{worm0}) {
		t.Fatalf("stamped %+v, unstamped %v; want %+v and [%d]", port.stamped, port.unstamped, want, worm0)
	}
	inj.FKilled(worm1, c)
	if !slices.Equal(port.unstamped, []flit.WormID{worm0, worm1}) {
		t.Fatalf("after an FKILL of attempt 1, unstamped %v", port.unstamped)
	}
	inj.FKilled(worm0, c) // stale: attempt 0 is no longer sent
	if len(port.unstamped) != 2 || len(port.stamped) != 2 {
		t.Fatalf("a stale FKILL moved the records: stamped %d, unstamped %d", len(port.stamped), len(port.unstamped))
	}
}

func TestTimeoutRuleDefault(t *testing.T) {
	// timeout = framedLen * VCs when Timeout == 0.
	cfg := crConfig()
	cfg.VCs = 2
	port := &fakePort{free: 0}
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 4))
	timeout := int64(IminCR(3, 2) * 2) // framed length x 2 VCs
	for c := int64(0); c < timeout-1; c++ {
		inj.Tick(c)
	}
	if len(port.kills) != 0 {
		t.Fatal("killed before rule timeout")
	}
	inj.Tick(timeout - 1)
	if len(port.kills) != 1 {
		t.Fatal("no kill at rule timeout")
	}
}

func TestNoKillAfterCommit(t *testing.T) {
	cfg := crConfig()
	cfg.Timeout = 5
	port := &fakePort{free: 1 << 20}
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 64)) // Imin = 9 << 64
	var c int64
	for ; c < 20; c++ { // inject 20 flits > Imin
		inj.Tick(c)
	}
	port.free = 0 // block forever
	for ; c < 200; c++ {
		inj.Tick(c)
	}
	if len(port.kills) != 0 {
		t.Fatal("committed worm was killed")
	}
}

func TestMaxAttemptsGivesUp(t *testing.T) {
	cfg := crConfig()
	cfg.Timeout = 2
	cfg.MaxAttempts = 3
	cfg.Backoff = Backoff{Kind: BackoffStatic, Gap: 1}
	port := &fakePort{free: 0}
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 4))
	for c := int64(0); c < 100; c++ {
		inj.Tick(c)
	}
	st := inj.Stats()
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.Kills != 3 {
		t.Fatalf("Kills = %d, want 3 (attempts 0,1,2)", st.Kills)
	}
	if inj.Busy() {
		t.Fatal("injector still busy after giving up")
	}
}

func TestFKilledTriggersRetry(t *testing.T) {
	cfg := fcrConfig()
	port := &fakePort{free: 2} // trickle so the worm stays in flight
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 16))
	inj.Tick(0)
	inj.Tick(1)
	worm := port.injected[0].Worm
	inj.FKilled(worm, 2)
	st := inj.Stats()
	if st.FKills != 1 {
		t.Fatalf("FKills = %d", st.FKills)
	}
	// Retry after the gap with the next attempt id.
	port.free = 1 << 20
	for c := int64(3); c < 200; c++ {
		inj.Tick(c)
	}
	if inj.Stats().Retries != 1 || inj.Stats().Completed != 1 {
		t.Fatalf("stats after FKILL retry: %+v", inj.Stats())
	}
}

func TestFKilledStaleAndLate(t *testing.T) {
	inj, ports := newInj(t, fcrConfig())
	inj.Submit(msgTo(3, 4))
	for c := int64(0); c < 100; c++ {
		inj.Tick(c)
	}
	worm := ports[0].injected[0].Worm
	inj.FKilled(worm, 100) // after completion
	if inj.Stats().LateFKills+inj.Stats().StaleFKills != 1 {
		t.Fatalf("late/stale FKILL not counted: %+v", inj.Stats())
	}
	inj.FKilled(flit.MakeWormID(999, 0), 100) // unknown worm
	if inj.Stats().LateFKills+inj.Stats().StaleFKills != 2 {
		t.Fatalf("unknown FKILL not counted: %+v", inj.Stats())
	}
}

func TestFCRPaddingCoversReturnPath(t *testing.T) {
	inj, ports := newInj(t, fcrConfig())
	dst := topology.NodeID(3)
	inj.Submit(msgTo(dst, 4))
	for c := int64(0); c < 200; c++ {
		inj.Tick(c)
	}
	want := IminFCR(4, 3, 2)
	if got := len(ports[0].injected); got != want {
		t.Fatalf("FCR frame = %d flits, want %d", got, want)
	}
}

func TestMisrouteWidensPadding(t *testing.T) {
	cfg := crConfig()
	cfg.Timeout = 2
	cfg.MisrouteAfter = 1
	cfg.MaxDetours = 2
	cfg.Backoff = Backoff{Kind: BackoffStatic, Gap: 1}
	port := &fakePort{free: 0}
	inj, _ := newInj(t, cfg, port)
	inj.Submit(msgTo(3, 4))
	// Attempt 0 gets killed; attempt 1 may misroute so pads widen.
	var c int64
	for ; len(port.kills) == 0; c++ {
		inj.Tick(c)
	}
	port.free = 1 << 20
	for ; c < 300; c++ {
		inj.Tick(c)
	}
	want := IminCR(3+2*2, 2)
	if got := len(port.injected); got != want {
		t.Fatalf("misrouted attempt frame = %d flits, want %d", got, want)
	}
}

func TestMultiChannelParallelSends(t *testing.T) {
	p1, p2 := &fakePort{free: 1 << 20}, &fakePort{free: 1 << 20}
	inj, _ := newInj(t, crConfig(), p1, p2)
	m1 := msgTo(3, 4)
	m2 := msgTo(5, 4)
	m2.ID = 2
	inj.Submit(m1)
	inj.Submit(m2)
	inj.Tick(0)
	if len(p1.injected) != 1 || len(p2.injected) != 1 {
		t.Fatalf("both channels should start: %d/%d", len(p1.injected), len(p2.injected))
	}
	if p1.injected[0].Dst == p2.injected[0].Dst {
		t.Fatal("same message on both channels")
	}
}

func TestQueueFIFO(t *testing.T) {
	port := &fakePort{free: 1 << 20}
	inj, _ := newInj(t, crConfig(), port)
	for i := 1; i <= 3; i++ {
		m := msgTo(3, 2)
		m.ID = flit.MessageID(i)
		inj.Submit(m)
	}
	for c := int64(0); c < 200; c++ {
		inj.Tick(c)
	}
	var order []flit.MessageID
	for _, f := range port.injected {
		if f.Kind == flit.Head {
			order = append(order, f.Worm.Message())
		}
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("transmission order %v", order)
	}
}

// --- Receiver tests ---

type fakeFKiller struct {
	calls []struct {
		ch   int
		worm flit.WormID
	}
}

func (f *fakeFKiller) FKill(ch int, worm flit.WormID) {
	f.calls = append(f.calls, struct {
		ch   int
		worm flit.WormID
	}{ch, worm})
}

func feedWorm(rc *Receiver, fr flit.Frame, ch int, start int64) {
	for s := 0; s < fr.TotalLen(); s++ {
		accept(rc, ch, fr.FlitAt(s), start+int64(s))
	}
}

func TestReceiverDeliversAndStripsPads(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 4}, PadLen: 6}
	feedWorm(rc, fr, 0, 100)
	ds := rc.Drain()
	if len(ds) != 1 {
		t.Fatalf("%d deliveries", len(ds))
	}
	d := ds[0]
	if d.Msg != 7 || d.Src != 1 || d.DataLen != 4 || !d.DataOK || d.Time != 109 {
		t.Fatalf("delivery %+v", d)
	}
	st := rc.Stats()
	if st.PadFlits != 6 || st.DataFlits != 4 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(rc.asm) != 0 {
		t.Fatal("assembly leaked")
	}
	if len(rc.Drain()) != 0 {
		t.Fatal("drain not cleared")
	}
}

func TestReceiverSingleFlitMessage(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	fr := flit.Frame{Msg: flit.Message{ID: 9, Src: 2, Dst: 5, DataLen: 1}}
	feedWorm(rc, fr, 0, 0)
	if len(rc.Drain()) != 1 {
		t.Fatal("single-flit worm not delivered")
	}
}

func TestReceiverFKillsCorruptData(t *testing.T) {
	fk := &fakeFKiller{}
	rc := NewReceiver(fcrConfig(), 5, fk)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 4}, PadLen: 6}
	accept(rc, 1, fr.FlitAt(0), 0)
	bad := fr.FlitAt(1)
	bad.Payload ^= 1 << 3
	accept(rc, 1, bad, 1)
	if len(fk.calls) != 1 || fk.calls[0].ch != 1 || fk.calls[0].worm != fr.WormID() {
		t.Fatalf("FKill calls %v", fk.calls)
	}
	if len(rc.asm) != 0 {
		t.Fatal("rejected worm still pending")
	}
	if len(rc.Drain()) != 0 {
		t.Fatal("rejected worm delivered")
	}
	if rc.Stats().FKillsSent != 1 {
		t.Fatalf("stats %+v", rc.Stats())
	}
}

func TestReceiverFKillsCorruptHeadAtDestination(t *testing.T) {
	fk := &fakeFKiller{}
	rc := NewReceiver(fcrConfig(), 5, fk)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 4}, PadLen: 6}
	bad := fr.FlitAt(0)
	bad.Payload ^= 1 << 60
	accept(rc, 0, bad, 0)
	if len(fk.calls) != 1 {
		t.Fatal("corrupt head at destination not FKILLed")
	}
}

func TestReceiverCRPassesCorruptionThroughFlagged(t *testing.T) {
	// CR has no FCR verification: corrupted payloads are delivered but
	// flagged DataOK=false by the end-to-end checker.
	rc := NewReceiver(crConfig(), 5, nil)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 3}, PadLen: 8}
	accept(rc, 0, fr.FlitAt(0), 0)
	bad := fr.FlitAt(1)
	bad.Payload ^= 1
	accept(rc, 0, bad, 1)
	for s := 2; s < fr.TotalLen(); s++ {
		accept(rc, 0, fr.FlitAt(s), int64(s))
	}
	ds := rc.Drain()
	if len(ds) != 1 || ds[0].DataOK {
		t.Fatalf("corrupt CR delivery not flagged: %+v", ds)
	}
	if rc.Stats().CorruptData != 1 {
		t.Fatalf("stats %+v", rc.Stats())
	}
}

func TestReceiverDiscardOnForwardKill(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 4}, PadLen: 6}
	accept(rc, 0, fr.FlitAt(0), 0)
	accept(rc, 0, fr.FlitAt(1), 1)
	rc.Discard(fr.WormID())
	if len(rc.asm) != 0 {
		t.Fatal("discard left assembly")
	}
	if rc.Stats().KilledPartial != 1 {
		t.Fatalf("stats %+v", rc.Stats())
	}
	rc.Discard(fr.WormID()) // idempotent
	if rc.Stats().KilledPartial != 1 {
		t.Fatal("double discard counted twice")
	}
}

func TestReceiverOrderWatermark(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	mk := func(id flit.MessageID) flit.Frame {
		return flit.Frame{Msg: flit.Message{ID: id, Src: 1, Dst: 5, DataLen: 2}}
	}
	feedWorm(rc, mk(10), 0, 0)
	feedWorm(rc, mk(12), 0, 10)
	feedWorm(rc, mk(11), 0, 20) // out of order from source 1
	if rc.Stats().OrderErrors != 1 {
		t.Fatalf("OrderErrors = %d, want 1", rc.Stats().OrderErrors)
	}
}

func TestReceiverOutOfSeqPanics(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	fr := flit.Frame{Msg: flit.Message{ID: 7, Src: 1, Dst: 5, DataLen: 4}, PadLen: 6}
	accept(rc, 0, fr.FlitAt(0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("seq gap not detected")
		}
	}()
	accept(rc, 0, fr.FlitAt(2), 1)
}

func TestProtocolString(t *testing.T) {
	if Plain.String() != "plain" || CR.String() != "CR" || FCR.String() != "FCR" {
		t.Fatal("protocol strings wrong")
	}
}

func TestPadAdjustWidensAndShrinks(t *testing.T) {
	base := fcrConfig()
	widened := base
	widened.PadAdjust = 10
	shrunk := base
	shrunk.PadAdjust = -1000 // clamped at zero pads

	count := func(cfg Config) int {
		inj, ports := newInj(t, cfg)
		inj.Submit(msgTo(3, 4))
		for c := int64(0); c < 400; c++ {
			inj.Tick(c)
		}
		return len(ports[0].injected)
	}
	baseLen := count(base)
	if got := count(widened); got != baseLen+10 {
		t.Fatalf("widened frame = %d, want %d", got, baseLen+10)
	}
	if got := count(shrunk); got != 4 {
		t.Fatalf("fully shrunk frame = %d, want bare message length 4", got)
	}
}

func TestPadAdjustAppliesToCRToo(t *testing.T) {
	cfg := crConfig()
	cfg.PadAdjust = 5
	inj, ports := newInj(t, cfg)
	inj.Submit(msgTo(3, 4))
	for c := int64(0); c < 400; c++ {
		inj.Tick(c)
	}
	want := IminCR(3, 2) + 5
	if got := len(ports[0].injected); got != want {
		t.Fatalf("CR adjusted frame = %d, want %d", got, want)
	}
}

func TestFKilledMultiChannelDisambiguation(t *testing.T) {
	p1, p2 := &fakePort{free: 2}, &fakePort{free: 2}
	inj, _ := newInj(t, fcrConfig(), p1, p2)
	m1 := msgTo(3, 16)
	m2 := msgTo(5, 16)
	m2.ID = 2
	inj.Submit(m1)
	inj.Submit(m2)
	inj.Tick(0) // both channels start
	worm2 := p2.injected[0].Worm
	inj.FKilled(worm2, 1)
	st := inj.Stats()
	if st.FKills != 1 {
		t.Fatalf("FKills = %d", st.FKills)
	}
	// Channel 1's worm must keep sending: next tick injects its flit.
	before := len(p1.injected)
	inj.Tick(1)
	if len(p1.injected) != before+1 {
		t.Fatal("FKILL of channel 2's worm stalled channel 1")
	}
}

func TestInjectorRespectsNotReadyChannel(t *testing.T) {
	port := &fakePort{free: 1 << 20, notReady: true}
	inj, _ := newInj(t, crConfig(), port)
	inj.Submit(msgTo(3, 4))
	for c := int64(0); c < 50; c++ {
		inj.Tick(c)
	}
	if len(port.injected) != 0 {
		t.Fatal("injected into a not-ready channel")
	}
	port.notReady = false
	for c := int64(50); c < 200; c++ {
		inj.Tick(c)
	}
	if inj.Stats().Completed != 1 {
		t.Fatal("message did not complete after channel became ready")
	}
}

// accept hands rc a flit held by value, recording an empty stamp record
// for a head first, as its injector would have.
func accept(rc *Receiver, ch int, f flit.Flit, now int64) {
	if f.Kind == flit.Head {
		rc.Stamp(f.Worm, flit.DecodeHeader(f.Payload).Src, flit.Stamps{})
	}
	rc.Accept(ch, &f, now)
}
