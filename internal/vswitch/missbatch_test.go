// Equivalence tests for the batched miss-to-install step: HandleMissBatch
// must leave the switch in the same state — megaflows, counters, verdict
// actions — as the equivalent sequence of HandleMissFrom calls, while paying
// exactly one classifier snapshot publish per burst.
package vswitch_test

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func newMissSwitch(t *testing.T, use flowtable.UseCase, cfg func(*vswitch.Config)) *vswitch.Switch {
	t.Helper()
	c := vswitch.Config{
		Table: flowtable.UseCaseACL(use, flowtable.ACLParams{}),
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
// serial path, with one snapshot publish for the whole burst, and each
// verdict reports the probes its miss spends on the cache at burst entry.
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
		ms[i] = vswitch.Miss{Port: i % 3, Header: h, Probes: batched.MFC().MissProbes(h)}
	}

	before := batched.MFC().Stats().Publishes
	got := batched.HandleMissBatch(ms, 4, nil)
	if pubs := batched.MFC().Stats().Publishes - before; pubs != 1 {
		t.Errorf("burst of %d misses published %d snapshots, want exactly 1", len(ms), pubs)
	}
	for i, m := range ms {
		want := serial.HandleMissFrom(m.Port, m.Header, 4)
		if got[i].Action != want.Action || got[i].OutPort != want.OutPort ||
			got[i].Path != want.Path || got[i].Rule != want.Rule {
			t.Fatalf("miss %d: batch verdict %+v != serial %+v", i, got[i], want)
		}
		if got[i].Probes != m.Probes {
			t.Fatalf("miss %d: verdict probes %d, want %d (MissProbes at burst entry)", i, got[i].Probes, m.Probes)
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
	sw.HandleMissBatch(ms, 1, nil)
	c := sw.Counters()
	if c.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the monitor-deleted flow)", c.Suppressed)
	}

	// A hard megaflow limit rejects the burst's tail.
	limited := newMissSwitch(t, flowtable.SipDp, func(c *vswitch.Config) { c.MaxMegaflows = 3 })
	limited.HandleMissBatch(ms, 0, nil)
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

// TestMissPathAllocs pins the heap allocations of one miss on each way
// into the slow path, under both scans. The miss's megaflow was
// monitor-deleted, so nothing installs: what remains is the megaflow
// generation (its entry and one block for its key and mask, which were
// two) and the quirk-ledger check. The inline way costs what
// HandleMissBatch does: the burst's lookup scratch is pooled whole, where
// handing the pool the address of a local slice moved one slice header to
// the heap per call.
func TestMissPathAllocs(t *testing.T) {
	for _, scan := range []tss.Scan{tss.ScanLinear, tss.ScanPruned} {
		sw := newMissSwitch(t, flowtable.SipDp, func(c *vswitch.Config) { c.Scan = scan })
		tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range tr.Headers[:64] {
			sw.Process(h, 0)
		}
		h := tr.Headers[0]
		gone := sw.Generator().Generate(h)
		if n := sw.DeleteMegaflows(func(e *tss.Entry) bool {
			return e.Key.Equal(gone.Key) && e.Mask.Equal(gone.Mask)
		}); n != 1 {
			t.Fatalf("monitor deletion removed %d megaflows, want 1", n)
		}
		hs := []bitvec.Vec{h}
		ms := []vswitch.Miss{{Header: h}}
		out := make([]vswitch.Verdict, 1)
		for _, tc := range []struct {
			name string
			want float64
			miss func() vswitch.Verdict
		}{
			{"ProcessBatchOn", 5, func() vswitch.Verdict { return sw.ProcessBatchOn(nil, hs, 0, out, nil)[0] }},
			{"HandleMissFrom", 5, func() vswitch.Verdict { return sw.HandleMissFrom(0, h, 0) }},
			{"HandleMissBatch", 5, func() vswitch.Verdict { return sw.HandleMissBatch(ms, 0, out)[0] }},
		} {
			entries := sw.MFC().EntryCount()
			allocs := testing.AllocsPerRun(200, func() {
				if v := tc.miss(); v.Path != vswitch.PathSlow {
					t.Fatalf("%s: verdict %+v, want the slow path", tc.name, v)
				}
			})
			if allocs != tc.want {
				t.Errorf("scan=%d %s: a suppressed miss allocates %v times, pinned at %v", scan, tc.name, allocs, tc.want)
			}
			if got := sw.MFC().EntryCount(); got != entries {
				t.Errorf("scan=%d %s: the suppressed miss changed the cache from %d to %d megaflows", scan, tc.name, entries, got)
			}
		}
	}
}

// TestHitBurstAllocs pins a burst of megaflow hits through ProcessBatchOn
// at zero allocations under both scans: the lookup scratch comes from the
// switch's pool and goes back to it whole.
func TestHitBurstAllocs(t *testing.T) {
	for _, scan := range []tss.Scan{tss.ScanLinear, tss.ScanPruned} {
		sw := newMissSwitch(t, flowtable.SipDp, func(c *vswitch.Config) { c.Scan = scan })
		tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		hs := tr.Headers[:32]
		for _, h := range hs {
			sw.Process(h, 0)
		}
		out := make([]vswitch.Verdict, len(hs))
		allocs := testing.AllocsPerRun(200, func() {
			for i, v := range sw.ProcessBatchOn(nil, hs, 0, out, nil) {
				if v.Path != vswitch.PathMegaflow {
					t.Fatalf("header %d: verdict %+v, want a megaflow hit", i, v)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("scan=%d: a burst of %d hits allocates %v times, want 0", scan, len(hs), allocs)
		}
	}
}
