package upcall_test

import (
	"testing"

	"tse/internal/faults"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// TestDriveModePanic: the drive-mode fault model orphans the dying
// handler's burst and halves the tick's service budget, restoring it the
// next tick after the modelled respawn.
func TestDriveModePanic(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 5, Kind: faults.HandlerPanic, Handler: 0})
	sub := newSub(t, sw, 1, upcall.Options{ModelledHandlers: 2, Injector: plan})
	tickets := make([]upcall.Ticket, 8)
	for i := range tickets {
		tickets[i], _ = sub.Submit(0, header(0x0a000110+uint32(i), uint16(40110+i)), 5)
	}
	if h := sub.HandleNAt(8, 5); h != 4 {
		t.Fatalf("handled %d at the panic tick, want 4 (half the budget)", h)
	}
	st := sub.Stats()
	if st.HandlerPanics != 1 || st.HandlerRestarts != 1 {
		t.Fatalf("panics=%d restarts=%d, want 1/1", st.HandlerPanics, st.HandlerRestarts)
	}
	if st.Requeued != 8 {
		t.Errorf("requeued = %d, want 8 (the orphaned burst)", st.Requeued)
	}
	if h := sub.HandleNAt(8, 6); h != 4 {
		t.Fatalf("handled %d after respawn, want the remaining 4", h)
	}
	for i, tk := range tickets {
		if _, ok := tk.Resolved(); !ok {
			t.Fatalf("ticket %d unresolved", i)
		}
	}
	if st := sub.Stats(); st.PendingFlows != 0 {
		t.Errorf("pending = %d, want 0", st.PendingFlows)
	}
}

// TestDriveModeStallDetection: a modelled stall suspends the handler's
// share until the 1 s detection horizon elapses; detection respawns it
// and counts.
func TestDriveModeStallDetection(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 3, Kind: faults.HandlerStall, Handler: 0, Duration: 10})
	sub := newSub(t, sw, 1, upcall.Options{ModelledHandlers: 2, Injector: plan})
	for i := 0; i < 8; i++ {
		sub.Submit(0, header(0x0a000120+uint32(i), uint16(40120+i)), 3)
	}
	if h := sub.HandleNAt(8, 3); h != 4 {
		t.Fatalf("handled %d during the stall, want 4", h)
	}
	if st := sub.Stats(); st.StallsDetected != 0 {
		t.Fatalf("stall detected before the timeout elapsed")
	}
	if h := sub.HandleNAt(8, 4); h != 4 {
		t.Fatalf("handled %d after detection, want full remaining 4", h)
	}
	st := sub.Stats()
	if st.StallsDetected != 1 || st.HandlerRestarts != 1 {
		t.Errorf("stalls=%d restarts=%d, want 1/1", st.StallsDetected, st.HandlerRestarts)
	}
}

// TestDriveModeUnsupervisedLeakAndReap: with the supervisor disabled a
// modelled panic leaks its orphaned burst in the pending table; ReapPending
// fails the aged entries (and only the aged, unreferenced ones).
func TestDriveModeUnsupervisedLeakAndReap(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 0, Kind: faults.HandlerPanic, Handler: 0})
	// Two modelled handlers: slot 0 dies permanently (unsupervised), slot 1
	// keeps serving later submissions.
	sub := newSub(t, sw, 1, upcall.Options{ModelledHandlers: 2, DisableSupervisor: true, Injector: plan})
	a, _ := sub.Submit(0, header(0x0a000130, 40130), 0)
	b, _ := sub.Submit(0, header(0x0a000131, 40131), 0)
	if h := sub.HandleNAt(10, 0); h != 0 {
		t.Fatalf("handled %d, want 0 (the whole burst died with handler 0)", h)
	}
	st := sub.Stats()
	if st.PendingFlows != 2 || st.Backlog != 0 {
		t.Fatalf("pending=%d backlog=%d, want the leaked 2/0", st.PendingFlows, st.Backlog)
	}
	// A fresh queued entry must not be reaped: it is still referenced.
	c, _ := sub.Submit(0, header(0x0a000132, 40132), 4)
	if n := sub.ReapPending(4, 3); n != 2 {
		t.Fatalf("reaped %d, want the 2 aged orphans", n)
	}
	for i, tk := range []upcall.Ticket{a, b} {
		v, ok := tk.Resolved()
		if !ok {
			t.Fatalf("leaked ticket %d unresolved after reap", i)
		}
		if v.Path != vswitch.PathUpcallDrop {
			t.Errorf("reaped verdict %d = %+v, want upcall-drop", i, v)
		}
	}
	if _, ok := c.Resolved(); ok {
		t.Fatal("queued entry was reaped")
	}
	if st := sub.Stats(); st.PendingReaped != 2 {
		t.Errorf("PendingReaped = %d, want 2", st.PendingReaped)
	}
	sub.HandleNAt(10, 5)
	if _, ok := c.Resolved(); !ok {
		t.Error("queued entry unresolved after drain")
	}
}

// TestRevalidatorReapsPending: the revalidator's sweep drives ReapPending
// at its PendingAgeSec horizon — the Tick-integrated form of the satellite
// fix.
func TestRevalidatorReapsPending(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 0, Kind: faults.HandlerPanic, Handler: 0})
	sub := newSub(t, sw, 1, upcall.Options{ModelledHandlers: 1, DisableSupervisor: true, Injector: plan})
	tk, _ := sub.Submit(0, header(0x0a000140, 40140), 0)
	sub.HandleNAt(10, 0) // panic: the burst leaks
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Subsystem: sub, PendingAgeSec: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rv.Tick(1) // too young
	if _, ok := tk.Resolved(); ok {
		t.Fatal("entry reaped before its age horizon")
	}
	rv.Tick(2)
	if _, ok := tk.Resolved(); !ok {
		t.Fatal("aged orphan not reaped by the revalidator sweep")
	}
	if st := sub.Stats(); st.PendingReaped != 1 {
		t.Errorf("PendingReaped = %d, want 1", st.PendingReaped)
	}
}

// TestRevalidatorStallWindow: an injected sweep stall suppresses Tick
// without advancing the cadence — the first clean tick catches up.
func TestRevalidatorStallWindow(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 1, Kind: faults.RevalidatorStall, Duration: 2})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Injector: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	rv.Tick(0)
	rv.Tick(1)
	rv.Tick(2)
	st := rv.Stats()
	if st.SweepStalls != 2 {
		t.Fatalf("sweep stalls = %d, want 2 (ticks 1 and 2 suppressed)", st.SweepStalls)
	}
	if st.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want only tick 0's", st.Sweeps)
	}
	rv.Tick(3) // window over: catch-up sweep
	if st := rv.Stats(); st.Sweeps != 2 {
		t.Errorf("sweeps = %d after the window, want the catch-up 2", st.Sweeps)
	}
}

// TestDeliveryFaults: a delayed upcall sits in limbo until its readyAt
// tick; a duplicated one is handled twice but resolves once and installs
// one megaflow.
func TestDeliveryFaults(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(
		faults.Event{Tick: 0, Kind: faults.DeliverDelay, Source: 0, Duration: 2},
		faults.Event{Tick: 5, Kind: faults.DeliverDuplicate, Source: 0},
	)
	sub := newSub(t, sw, 1, upcall.Options{Injector: plan})
	tk, out := sub.Submit(0, header(0x0a000150, 40150), 0)
	if out != upcall.Enqueued {
		t.Fatalf("delayed submit outcome %v, want Enqueued", out)
	}
	if h := sub.HandleNAt(10, 1); h != 0 {
		t.Fatalf("handled %d while the upcall is in limbo, want 0", h)
	}
	if h := sub.HandleNAt(10, 2); h != 1 {
		t.Fatalf("handled %d at maturity, want 1", h)
	}
	if v, ok := tk.Resolved(); !ok || v.Path != vswitch.PathSlow {
		t.Fatalf("delayed verdict %+v (resolved %v), want slow-path", v, ok)
	}
	if st := sub.Stats(); st.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", st.Delayed)
	}

	installs := sw.Counters().Installs
	tk2, _ := sub.Submit(0, header(0x0a000151, 40151), 5)
	if st := sub.Stats(); st.Duplicated != 1 || st.Backlog != 2 {
		t.Fatalf("duplicated=%d backlog=%d, want 1/2", st.Duplicated, st.Backlog)
	}
	// Both copies cost handler budget and an install apiece — the
	// at-least-once tax — but the second install is an idempotent refresh
	// of the same megaflow and the waiter resolves exactly once.
	if h := sub.HandleNAt(10, 5); h != 2 {
		t.Fatalf("handled %d, want both delivered copies", h)
	}
	if v, ok := tk2.Resolved(); !ok || v.Path != vswitch.PathSlow {
		t.Fatalf("duplicated verdict %+v (resolved %v), want slow-path", v, ok)
	}
	if got := sw.Counters().Installs - installs; got != 2 {
		t.Errorf("duplicate delivery paid %d installs, want 2 (the second a refresh)", got)
	}
	if st := sub.Stats(); st.PendingFlows != 0 || st.Backlog != 0 {
		t.Errorf("pending=%d backlog=%d after duplicate drain, want 0/0", st.PendingFlows, st.Backlog)
	}
}
