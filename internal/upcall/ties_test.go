package upcall_test

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/faults"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// oneFingerprint files every header under one pending-table key.
func oneFingerprint(bitvec.Vec) uint64 { return 42 }

// TestPendingFingerprintTies plants every header under one fingerprint:
// the pending table must still coalesce a miss only onto a pending upcall
// of the same header and source, resolve each flow with its own header's
// verdict whatever its place in the key's chain, and leave the table
// empty once everything is handled.
func TestPendingFingerprintTies(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	ref := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{})
	sub.PlantHeaderHash(oneFingerprint)
	web := header(0x0a000201, 40201)
	denied := header(0x0a000202, 40202)
	dp, _ := bitvec.IPv4Tuple.FieldIndex("tp_dst")
	denied.SetField(bitvec.IPv4Tuple, dp, 81)
	other := header(0x0a000203, 40203)

	submit := func(src int, h bitvec.Vec, want upcall.Outcome) upcall.Ticket {
		t.Helper()
		tk, out := sub.Submit(src, h, 0)
		if out != want {
			t.Fatalf("submit of %s on %d: %v, want %v", h.Format(bitvec.IPv4Tuple), src, out, want)
		}
		return tk
	}
	tWeb := submit(0, web, upcall.Enqueued)
	tDenied := submit(0, denied, upcall.Enqueued)
	if again := submit(0, web, upcall.Coalesced); again != tWeb {
		t.Fatal("a repeated miss coalesced onto another flow's upcall")
	}
	if again := submit(0, denied, upcall.Coalesced); again != tDenied {
		t.Fatal("a repeated miss coalesced onto another flow's upcall")
	}
	tWeb1 := submit(1, web, upcall.Enqueued)
	tOther := submit(0, other, upcall.Enqueued)
	if st := sub.Stats(); st.PendingFlows != 4 || st.Deduped != 2 {
		t.Fatalf("pending=%d deduped=%d, want 4/2", st.PendingFlows, st.Deduped)
	}

	// The oldest upcall of source 0 is web's, last in the key's chain.
	if n := sub.HandleN(1); n != 1 {
		t.Fatalf("handled %d, want 1", n)
	}
	if _, ok := tWeb.Resolved(); !ok {
		t.Fatal("web's upcall unresolved after its pop")
	}
	if _, ok := tDenied.Resolved(); ok {
		t.Fatal("denied's upcall resolved by web's")
	}
	if st := sub.Stats(); st.PendingFlows != 3 {
		t.Fatalf("pending=%d after one resolve, want 3", st.PendingFlows)
	}
	// web is no longer pending: its next miss is a new upcall.
	tWeb2 := submit(0, web, upcall.Enqueued)
	sub.DrainAll()
	for _, tc := range []struct {
		tk upcall.Ticket
		h  bitvec.Vec
	}{{tWeb, web}, {tDenied, denied}, {tWeb1, web}, {tOther, other}, {tWeb2, web}} {
		v, ok := tc.tk.Resolved()
		if want := ref.Process(tc.h, 0); !ok || v.Action != want.Action {
			t.Errorf("%s: verdict %+v (resolved %v), want action %v", tc.h.Format(bitvec.IPv4Tuple), v, ok, want.Action)
		}
	}
	if st := sub.Stats(); st.PendingFlows != 0 || st.Backlog != 0 {
		t.Errorf("pending=%d backlog=%d after the drain, want 0/0", st.PendingFlows, st.Backlog)
	}
}

// TestPendingFingerprintTiesReap is TestDriveModeUnsupervisedLeakAndReap
// with every header under one fingerprint: the reaper fails the two aged
// orphans from the middle and the end of their key's chain and leaves the
// fresh queued flow at its head.
func TestPendingFingerprintTiesReap(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	plan := faults.NewPlan(faults.Event{Tick: 0, Kind: faults.HandlerPanic, Handler: 0})
	sub := newSub(t, sw, 1, upcall.Options{ModelledHandlers: 2, DisableSupervisor: true, Injector: plan})
	sub.PlantHeaderHash(oneFingerprint)
	a, _ := sub.Submit(0, header(0x0a000130, 40130), 0)
	b, _ := sub.Submit(0, header(0x0a000131, 40131), 0)
	if h := sub.HandleNAt(10, 0); h != 0 {
		t.Fatalf("handled %d, want 0 (the whole burst died with handler 0)", h)
	}
	c, _ := sub.Submit(0, header(0x0a000132, 40132), 4)
	if n := sub.ReapPending(4, 3); n != 2 {
		t.Fatalf("reaped %d, want the 2 aged orphans", n)
	}
	for i, tk := range []upcall.Ticket{a, b} {
		if v, ok := tk.Resolved(); !ok || v.Path != vswitch.PathUpcallDrop {
			t.Errorf("leaked ticket %d: %+v (resolved %v), want upcall-drop", i, v, ok)
		}
	}
	if st := sub.Stats(); st.PendingFlows != 1 {
		t.Fatalf("pending=%d after the reap, want the queued flow alone", st.PendingFlows)
	}
	// A repeat of the queued flow still coalesces onto it.
	if again, out := sub.Submit(0, header(0x0a000132, 40132), 4); out != upcall.Coalesced || again != c {
		t.Fatalf("repeat of the queued flow: %v, want coalesced onto it", out)
	}
	sub.HandleNAt(10, 5)
	if _, ok := c.Resolved(); !ok {
		t.Error("queued entry unresolved after drain")
	}
	if st := sub.Stats(); st.PendingFlows != 0 {
		t.Errorf("pending=%d after the drain, want 0", st.PendingFlows)
	}
}
