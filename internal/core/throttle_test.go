package core

import (
	"testing"

	"crnet/internal/snapshot"
)

func TestThrottleZeroValueAdmitsAll(t *testing.T) {
	var th Throttle
	for i := 0; i < 100; i++ {
		if !th.Allow() {
			t.Fatalf("zero-value throttle rejected offer %d", i)
		}
	}
}

func TestThrottleExactFraction(t *testing.T) {
	cases := []struct{ num, den int64 }{
		{1, 1}, {0, 1}, {1, 2}, {7, 10}, {2, 5}, {999, 1000},
	}
	for _, c := range cases {
		var th Throttle
		th.SetRate(c.num, c.den)
		var admitted int64
		const offers = 10 * 1000
		for i := 0; i < offers; i++ {
			if th.Allow() {
				admitted++
			}
		}
		want := offers * c.num / c.den
		if admitted != want {
			t.Errorf("rate %d/%d: admitted %d of %d, want %d", c.num, c.den, admitted, offers, want)
		}
	}
}

func TestThrottleEvenSpread(t *testing.T) {
	// At 1/2 no two consecutive offers may both be admitted and no two
	// consecutive offers may both be rejected.
	var th Throttle
	th.SetRate(1, 2)
	prev := th.Allow()
	for i := 0; i < 1000; i++ {
		cur := th.Allow()
		if cur == prev {
			t.Fatalf("offer %d: 1/2 throttle produced a run (%t, %t)", i, prev, cur)
		}
		prev = cur
	}
}

func TestThrottleClamps(t *testing.T) {
	var th Throttle
	th.SetRate(-5, 10)
	if th.Allow() {
		t.Fatal("negative numerator admitted")
	}
	th.SetRate(15, 10)
	if !th.Allow() {
		t.Fatal("numerator above denominator rejected")
	}
	th.SetRate(3, 0)
	if !th.Allow() {
		t.Fatal("zero denominator rejected")
	}
}

// TestThrottleLoadRejectsCorruptState pins the LoadState range gate: a
// corrupt or hand-crafted snapshot must not install a triple the
// throttle's own transitions can never produce (it would silently skew
// every admission decision until the accumulator re-entered the
// lattice).
func TestThrottleLoadRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name          string
		num, den, acc int64
		ok            bool
	}{
		{"never-configured zero", 0, 0, 0, true},
		{"valid mid-lattice", 7, 10, 3, true},
		{"valid acc at top", 7, 10, 9, true},
		{"acc equal to den", 7, 10, 10, false},
		{"acc above den", 7, 10, 11, false},
		{"negative acc", 7, 10, -1, false},
		{"num above den", 11, 10, 0, false},
		{"negative num", -1, 10, 0, false},
		{"negative den", 1, -10, 0, false},
		{"zero den with num", 1, 0, 0, false},
		{"zero den with acc", 0, 0, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e snapshot.Encoder
			e.Varint(c.num)
			e.Varint(c.den)
			e.Varint(c.acc)
			var th Throttle
			err := th.LoadState(snapshot.NewDecoder(e.Bytes()))
			if c.ok && err != nil {
				t.Fatalf("valid state %d/%d acc=%d rejected: %v", c.num, c.den, c.acc, err)
			}
			if !c.ok {
				if err == nil {
					t.Fatalf("corrupt state %d/%d acc=%d accepted", c.num, c.den, c.acc)
				}
				if th.num != 0 || th.den != 0 {
					t.Fatalf("rejected state still mutated the throttle: rate %d/%d", th.num, th.den)
				}
			}
		})
	}
}

func TestThrottleStateRoundTrip(t *testing.T) {
	var a Throttle
	a.SetRate(7, 10)
	for i := 0; i < 137; i++ {
		a.Allow()
	}
	var e snapshot.Encoder
	a.SaveState(&e)

	var b Throttle
	d := snapshot.NewDecoder(e.Bytes())
	if err := b.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a.Allow() != b.Allow() {
			t.Fatalf("restored throttle diverged at offer %d", i)
		}
	}
}
