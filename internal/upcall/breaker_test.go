package upcall_test

import (
	"testing"

	"tse/internal/flowtable"
	"tse/internal/upcall"
)

// The breaker's fixed shape: it trips after three violating intervals,
// sheds for 3 s, then admits two probes a tick while half-open.

// step advances the breaker one interval against a 2 s SLO and fails on an
// unexpected phase.
func step(t *testing.T, st *upcall.BreakerState, now, p99 int64, want upcall.BreakerPhase) (tripped, closed bool) {
	t.Helper()
	tripped, closed = st.Next(2, now, p99)
	if st.Phase != want {
		t.Fatalf("t=%d p99=%d: phase %v, want %v", now, p99, st.Phase, want)
	}
	return tripped, closed
}

// TestBreakerLifecycle walks the satellite's full transition chain:
// closed → (three violations) → open → (cooldown) → half-open →
// (healthy probe) → closed.
func TestBreakerLifecycle(t *testing.T) {
	var st upcall.BreakerState

	step(t, &st, 0, 5, upcall.BreakerClosed) // streak 1
	step(t, &st, 1, 5, upcall.BreakerClosed) // streak 2
	tripped, _ := step(t, &st, 2, 5, upcall.BreakerOpen)
	if !tripped {
		t.Fatal("third violation did not report a trip")
	}
	step(t, &st, 3, 5, upcall.BreakerOpen)     // cooling (1 < 3)
	step(t, &st, 4, 5, upcall.BreakerOpen)     // cooling (2 < 3)
	step(t, &st, 5, 5, upcall.BreakerHalfOpen) // cooldown over
	_, closed := step(t, &st, 6, 1, upcall.BreakerClosed)
	if !closed {
		t.Fatal("healthy probe did not report a close")
	}
	// Recovered for good: violations must accumulate afresh.
	step(t, &st, 7, 5, upcall.BreakerClosed)
	if st.BadStreak != 1 {
		t.Errorf("streak after recovery = %d, want a fresh 1", st.BadStreak)
	}
}

// TestBreakerFlapImmunity: a good (or signal-less) interval inside the
// streak resets it, so a noisy p99 cannot trip the breaker — the
// three-interval hysteresis of the satellite.
func TestBreakerFlapImmunity(t *testing.T) {
	var st upcall.BreakerState
	for now, p99 := range []int64{5, 5, 1, 5, 5, 1} {
		if tripped, _ := st.Next(2, int64(now), p99); tripped {
			t.Fatalf("breaker tripped at t=%d under an alternating signal", now)
		}
	}
	if st.Phase != upcall.BreakerClosed {
		t.Fatalf("phase %v, want closed throughout", st.Phase)
	}
	// No-signal intervals (p99 < 0) are not violations either.
	st = upcall.BreakerState{}
	st.Next(2, 0, 5)
	st.Next(2, 1, 5)
	st.Next(2, 2, -1)
	if st.BadStreak != 0 {
		t.Errorf("streak after a no-signal interval = %d, want 0", st.BadStreak)
	}
}

// TestBreakerHalfOpenReopens: probes that still violate the SLO send the
// breaker back to open with a fresh cooldown; no-signal intervals keep it
// probing.
func TestBreakerHalfOpenReopens(t *testing.T) {
	var st upcall.BreakerState
	step(t, &st, 0, 9, upcall.BreakerClosed)
	step(t, &st, 1, 9, upcall.BreakerClosed)
	step(t, &st, 2, 9, upcall.BreakerOpen)
	step(t, &st, 5, 9, upcall.BreakerHalfOpen)
	step(t, &st, 6, -1, upcall.BreakerHalfOpen) // no probe signal: keep probing
	step(t, &st, 7, 9, upcall.BreakerOpen)      // probes still violating
	if st.OpenedAt != 7 {
		t.Fatalf("re-open did not restart the cooldown (OpenedAt=%d, want 7)", st.OpenedAt)
	}
	step(t, &st, 8, 1, upcall.BreakerOpen) // healthy but still cooling
	step(t, &st, 9, 1, upcall.BreakerOpen)
	step(t, &st, 10, 1, upcall.BreakerHalfOpen)
	step(t, &st, 11, 1, upcall.BreakerClosed)
}

// TestBreakerAdmission drives the breaker through the subsystem: standing
// residence trips the flooding source open (submissions shed with
// DroppedBreaker), the half-open tick admits exactly the probe trickle,
// and a healthy probe closes it again.
func TestBreakerAdmission(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{BreakerSLOSec: 1})
	if ph := sub.BreakerPhases(); len(ph) != 1 || ph[0] != upcall.BreakerClosed {
		t.Fatalf("initial phases %v, want [closed]", ph)
	}

	// Three intervals whose handled upcalls sat 2 s in the queue: trip.
	for i, now := range []int64{0, 2, 4} {
		sub.Submit(0, header(0x0a000160+uint32(i), 40160+uint16(i)), now)
		sub.HandleNAt(10, now+2)
		sub.TickBreakers(now + 2) // p99 2 > SLO 1: streak i+1
	}
	st := sub.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", st.BreakerTrips)
	}
	if ph := sub.BreakerPhases(); ph[0] != upcall.BreakerOpen {
		t.Fatalf("phase %v after trip, want open", ph[0])
	}

	// Open: submissions fast-fail.
	if _, out := sub.Submit(0, header(0x0a000170, 40170), 6); out != upcall.DroppedBreaker {
		t.Fatalf("open-breaker outcome %v, want DroppedBreaker", out)
	}
	if !upcall.DroppedBreaker.Dropped() {
		t.Error("DroppedBreaker must count as a drop")
	}
	if st := sub.Stats(); st.BreakerShed != 1 {
		t.Errorf("shed = %d, want 1", st.BreakerShed)
	}

	// Cooldown elapses: half-open admits exactly two probes per tick.
	sub.TickBreakers(7)
	sub.TickBreakers(8)
	if ph := sub.BreakerPhases(); ph[0] != upcall.BreakerOpen {
		t.Fatalf("phase %v inside the cooldown, want open", ph[0])
	}
	sub.TickBreakers(9)
	if ph := sub.BreakerPhases(); ph[0] != upcall.BreakerHalfOpen {
		t.Fatalf("phase %v after cooldown, want half-open", ph[0])
	}
	for i := uint32(0); i < 2; i++ {
		if _, out := sub.Submit(0, header(0x0a000171+i, 40171+uint16(i)), 9); out != upcall.Enqueued {
			t.Fatalf("probe %d outcome %v, want Enqueued", i, out)
		}
	}
	if _, out := sub.Submit(0, header(0x0a000173, 40173), 9); out != upcall.DroppedBreaker {
		t.Fatalf("third same-tick submission outcome %v, want shed past the probe budget", out)
	}

	// The probes are served promptly: the breaker closes.
	sub.HandleNAt(10, 9)
	sub.TickBreakers(10)
	if ph := sub.BreakerPhases(); ph[0] != upcall.BreakerClosed {
		t.Fatalf("phase %v after healthy probe, want closed", ph[0])
	}
	if st := sub.Stats(); st.BreakerCloses != 1 {
		t.Errorf("closes = %d, want 1", st.BreakerCloses)
	}
	if _, out := sub.Submit(0, header(0x0a000174, 40174), 10); out != upcall.Enqueued {
		t.Errorf("post-recovery outcome %v, want Enqueued", out)
	}
}
