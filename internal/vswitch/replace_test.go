package vswitch

import (
	"sync"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

// TestReplaceTableRevalidation verifies the revalidator model: after an
// ACL swap, entries the new table would generate identically survive in
// place; stale entries are deleted.
func TestReplaceTableRevalidation(t *testing.T) {
	l := bitvec.IPv4Tuple
	benign := flowtable.UseCaseACL(flowtable.Baseline, flowtable.ACLParams{})
	s := newSwitch(t, Config{Table: benign})

	// Victim megaflow: matches rule #1 (dp=80) — identical under both
	// ACLs, so it must survive.
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)
	s.Process(victim, 0)

	// A deny megaflow under the benign ACL: dp-prefix only. Under the
	// SipDp ACL the proof needs ip_src bits too -> stale, must go.
	deny := bitvec.NewVec(l)
	deny.SetField(l, dp, 9999)
	s.Process(deny, 0)
	if s.MFC().EntryCount() != 2 {
		t.Fatalf("setup: %d entries", s.MFC().EntryCount())
	}

	removed, err := s.ReplaceTable(flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("revalidation removed %d entries, want 1 (the stale deny)", removed)
	}
	if e, _, ok := s.MFC().Lookup(victim, 1); !ok || e.Action != flowtable.Allow {
		t.Error("victim entry did not survive revalidation")
	}
	if _, _, ok := s.MFC().Lookup(deny, 1); ok {
		t.Error("stale deny entry survived revalidation")
	}
	// Classification under the new table is sound for the denied header.
	if v := s.Process(deny, 2); v.Path != PathSlow || v.Action != flowtable.Drop {
		t.Errorf("post-swap verdict %+v", v)
	}
}

func TestReplaceTableValidation(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1()})
	if _, err := s.ReplaceTable(nil); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := s.ReplaceTable(flowtable.Fig6()); err == nil {
		t.Error("different-layout table accepted")
	}
	if _, err := s.ReplaceTable(flowtable.Fig1()); err != nil {
		t.Errorf("same-layout swap failed: %v", err)
	}
}

// TestReplaceTablePreservesScanPosition: under insertion order, a
// surviving entry keeps its (early) scan position across the swap — the
// property the Fig. 8c scenario relies on.
func TestReplaceTablePreservesScanPosition(t *testing.T) {
	l := bitvec.IPv4Tuple
	benign := flowtable.UseCaseACL(flowtable.Baseline, flowtable.ACLParams{})
	s, err := New(Config{Table: benign, Order: tss.OrderInsertion})
	if err != nil {
		t.Fatal(err)
	}
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)
	s.Process(victim, 0)

	malicious := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	if _, err := s.ReplaceTable(malicious); err != nil {
		t.Fatal(err)
	}
	// Spawn some adversarial masks.
	sip, _ := l.FieldIndex("ip_src")
	for b := 0; b < 32; b++ {
		h := victim.Clone()
		h.SetField(l, dp, 81)
		h.FlipFieldBit(l, sip, b)
		s.Process(h, 1)
	}
	_, probes, ok := s.MFC().Lookup(victim, 2)
	if !ok {
		t.Fatal("victim entry missing")
	}
	if probes != 1 {
		t.Errorf("victim probes = %d, want 1 (insertion order, installed first)", probes)
	}
}

// catchAll is a one-rule table over l that applies a to every header.
func catchAll(l *bitvec.Layout, a flowtable.Action) *flowtable.Table {
	tbl := flowtable.New(l)
	tbl.MustAdd(&flowtable.Rule{Name: a.String(), Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l), Action: a})
	return tbl
}

// TestTableSwapConcurrentProcess: ReplaceTable racing concurrent Process
// callers. A slow path classified under a swapped-away table installs its
// megaflow before the swap, where the inline revalidation sweep deletes
// it. So once the swaps stop, every header answers with the last table's
// action.
func TestTableSwapConcurrentProcess(t *testing.T) {
	allow, deny := catchAll(bitvec.HYP, flowtable.Allow), catchAll(bitvec.HYP, flowtable.Drop)
	s := newSwitch(t, Config{Table: allow})
	const callers, swaps = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Process(hyp(uint64(i%8)), 0)
			}
		}(c)
	}
	last := allow
	for i := 0; i < swaps; i++ {
		last = []*flowtable.Table{deny, allow}[i%2]
		if _, err := s.ReplaceTable(last); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for v := uint64(0); v < 8; v++ {
		want := last.Lookup(hyp(v)).Action
		for k := 0; k < 2; k++ {
			if got := s.Process(hyp(v), 1); got.Action != want {
				t.Fatalf("header %d packet %d after the swaps: %+v, want the last table's %v", v, k, got, want)
			}
		}
	}
}
