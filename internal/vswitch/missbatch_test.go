// Equivalence tests for the batched miss-to-install step: HandleMissBatch
// must leave the switch in the same state — megaflows, counters, verdict
// actions — as the equivalent sequence of HandleMissFrom calls, while paying
// exactly one classifier snapshot publish per burst.
package vswitch_test

import (
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func newMissSwitch(t *testing.T, use flowtable.UseCase, cfg func(*vswitch.Config)) *vswitch.Switch {
	t.Helper()
	c := vswitch.Config{
		Table:            flowtable.UseCaseACL(use, flowtable.ACLParams{}),
		DisableMicroflow: true,
	}
	if cfg != nil {
		cfg(&c)
	}
	sw, err := vswitch.New(c)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestHandleMissBatchMatchesSerial: a drained burst of distinct flow
// misses produces the same megaflows, counters, and verdict actions as the
// serial path, with one snapshot publish for the whole burst.
func TestHandleMissBatchMatchesSerial(t *testing.T) {
	batched := newMissSwitch(t, flowtable.SipDp, nil)
	serial := newMissSwitch(t, flowtable.SipDp, nil)
	tr, err := core.CoLocated(batched.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	heads := tr.Headers[:96]
	ms := make([]vswitch.Miss, len(heads))
	for i, h := range heads {
		ms[i] = vswitch.Miss{Port: i % 3, Header: h}
	}

	before := batched.MFC().Stats().Publishes
	got := batched.HandleMissBatch(ms, 4)
	if pubs := batched.MFC().Stats().Publishes - before; pubs != 1 {
		t.Errorf("burst of %d misses published %d snapshots, want exactly 1", len(ms), pubs)
	}
	for i, m := range ms {
		want := serial.HandleMissFrom(m.Port, m.Header, 4)
		if got[i].Action != want.Action || got[i].OutPort != want.OutPort ||
			got[i].Path != want.Path || got[i].Rule != want.Rule {
			t.Fatalf("miss %d: batch verdict %+v != serial %+v", i, got[i], want)
		}
	}
	if cb, cs := batched.Counters(), serial.Counters(); cb != cs {
		t.Errorf("counters diverge: batch %+v, serial %+v", cb, cs)
	}
	be, se := batched.MFC().Entries(), serial.MFC().Entries()
	if len(be) != len(se) {
		t.Fatalf("megaflow counts diverge: batch %d, serial %d", len(be), len(se))
	}
	for i := range be {
		if !be[i].Key.Equal(se[i].Key) || !be[i].Mask.Equal(se[i].Mask) ||
			be[i].Action != se[i].Action || be[i].Port != se[i].Port {
			t.Fatalf("megaflow %d diverges: batch %+v, serial %+v", i, be[i], se[i])
		}
	}
}

// TestHandleMissBatchSuppressedAndLimited: the quirk ledger and the
// megaflow limit apply per miss inside a burst, as they do serially.
func TestHandleMissBatchSuppressedAndLimited(t *testing.T) {
	sw := newMissSwitch(t, flowtable.SipDp, nil)
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Install then monitor-delete one megaflow: its re-install inside a
	// burst must be suppressed by the revalidator quirk.
	sw.HandleMissFrom(0, tr.Headers[0], 0)
	if n := sw.DeleteMegaflows(func(*tss.Entry) bool { return true }); n != 1 {
		t.Fatalf("monitor deletion removed %d entries, want 1", n)
	}
	ms := make([]vswitch.Miss, 8)
	for i := range ms {
		ms[i] = vswitch.Miss{Header: tr.Headers[i]}
	}
	sw.HandleMissBatch(ms, 1)
	c := sw.Counters()
	if c.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the monitor-deleted flow)", c.Suppressed)
	}

	// A hard megaflow limit rejects the burst's tail.
	limited := newMissSwitch(t, flowtable.SipDp, func(c *vswitch.Config) { c.MaxMegaflows = 3 })
	limited.HandleMissBatch(ms, 0)
	lc := limited.Counters()
	if lc.Installs != 3 {
		t.Errorf("limited switch installed %d megaflows, want 3", lc.Installs)
	}
	if lc.Rejected == 0 {
		t.Error("limited switch rejected nothing beyond the cap")
	}
	if got := limited.MFC().EntryCount(); got != 3 {
		t.Errorf("limited MFC holds %d entries, want 3", got)
	}
}
