package vswitch

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// TestDisableMegaflow covers the §8 immediate remedy (iii): with the MFC
// off, every non-microflow packet takes the slow path — immune to mask
// explosion (there are no masks) but paying full classification per flow
// miss, which is why the paper rejects the remedy.
func TestDisableMegaflow(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1(), DisableMegaflow: true,
		DisableMicroflow: true})
	for i := 0; i < 5; i++ {
		v := s.Process(hyp(5), int64(i))
		if v.Path != PathSlow {
			t.Fatalf("packet %d path = %v, want slowpath", i, v.Path)
		}
		if v.Action != flowtable.Drop {
			t.Fatalf("packet %d action = %v", i, v.Action)
		}
	}
	if got := s.MFC().EntryCount(); got != 0 {
		t.Errorf("MFC holds %d entries with megaflow disabled", got)
	}
	if c := s.Counters(); c.Slow != 5 || c.Installs != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestDisableMegaflowKeepsMicroflow(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1(), DisableMegaflow: true})
	s.Process(hyp(1), 0)
	if v := s.Process(hyp(1), 0); v.Path != PathMicroflow {
		t.Errorf("repeat packet path = %v, want microflow", v.Path)
	}
}

// TestMicroflowExhaustionByNoise demonstrates why both TSE variants pad
// their traces with noise (§5.2, §6.1): distinct attack headers churn the
// bounded exact-match cache, evicting the victim's entry so its packets
// must pay the (inflated) megaflow scan.
func TestMicroflowExhaustionByNoise(t *testing.T) {
	l := bitvec.IPv4Tuple
	tbl := flowtable.UseCaseACL(flowtable.Dp, flowtable.ACLParams{})
	s, err := New(Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	sip, _ := l.FieldIndex("ip_src")
	victim.SetField(l, dp, 80)
	s.Process(victim, 0)
	if v := s.Process(victim, 0); v.Path != PathMicroflow {
		t.Fatal("victim not served by microflow cache initially")
	}
	// 300 distinct attack headers overflow the 256-entry cache.
	atk := bitvec.NewVec(l)
	atk.SetField(l, dp, 81)
	for i := uint64(0); i < 300; i++ {
		atk.SetField(l, sip, i)
		s.Process(atk, 0)
	}
	if v := s.Process(victim, 0); v.Path == PathMicroflow {
		t.Error("victim still microflow-cached after noise churn")
	}
}
