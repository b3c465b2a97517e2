package mitigation

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// attackedSwitch builds a SipDp switch with a completed co-located attack
// (513 masks) plus a warm victim flow.
func attackedSwitch(t *testing.T) (*vswitch.Switch, bitvec.Vec) {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	// The linear scan: the victim's cost is its mask's scan position.
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, Scan: tss.ScanLinear})
	if err != nil {
		t.Fatal(err)
	}
	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	sip, _ := l.FieldIndex("ip_src")
	victim.SetField(l, dp, 80)
	victim.SetField(l, sip, 0x0a000099)
	sw.Process(victim, 0)

	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	core.Replay(sw, tr, 0)
	if sw.MFC().MaskCount() < 500 {
		t.Fatalf("attack setup failed: %d masks", sw.MFC().MaskCount())
	}
	return sw, victim
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("guard without switch accepted")
	}
	sw, _ := attackedSwitch(t)
	if _, err := New(Config{Switch: sw}); err == nil {
		t.Error("zero mask threshold accepted")
	}
}

// TestMFCGuardRestoresBaseline is §8's headline result: after the guard
// cleans the MFC, "the performance of the victim's traffic goes back to
// its baseline" — the victim's lookup cost returns to a handful of probes.
func TestMFCGuardRestoresBaseline(t *testing.T) {
	sw, victim := attackedSwitch(t)
	_, probesBefore, ok := sw.MFC().Lookup(victim, 1)
	if !ok {
		t.Fatal("victim entry missing")
	}

	g, err := New(Config{Switch: sw, MaskThreshold: 100, CPUThreshold: 200})
	if err != nil {
		t.Fatal(err)
	}
	deleted := g.Tick(10, 15)
	if deleted < 500 {
		t.Fatalf("guard deleted %d entries, want the attack's ~512", deleted)
	}
	// Requirement (i): the victim's allow entry survived.
	e, probesAfter, ok := sw.MFC().Lookup(victim, 11)
	if !ok || e.Action != flowtable.Allow {
		t.Fatal("victim allow entry was deleted (violates requirement (i))")
	}
	// Allow-action entries survive (requirement (i)), so a few masks
	// remain — near-baseline cost, versus hundreds under attack.
	if probesAfter > 20 {
		t.Errorf("victim probes after clean = %d, want near-baseline (was %d)", probesAfter, probesBefore)
	}
	if probesBefore <= probesAfter {
		t.Errorf("attack had no effect to begin with: %d -> %d", probesBefore, probesAfter)
	}
	if st := g.Stats(); st.Triggered != 1 || st.Deleted != deleted {
		t.Errorf("stats = %+v", st)
	}
}

// TestDeletedEntriesNeverRespawn verifies the quirk interaction (§8):
// after the guard wipes the attack entries, replaying the same attack
// leaves classification in the slow path — the masks do not come back.
func TestDeletedEntriesNeverRespawn(t *testing.T) {
	sw, _ := attackedSwitch(t)
	g, err := New(Config{Switch: sw, MaskThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	g.Tick(10, 15)
	masksClean := sw.MFC().MaskCount()

	tbl := sw.FlowTable()
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	core.Replay(sw, tr, 20)
	if got := sw.MFC().MaskCount(); got > masksClean+1 {
		t.Errorf("attack re-spawned %d masks after clean (quirk should suppress)", got-masksClean)
	}
	// The re-played attack ran in the slow path.
	if c := sw.Counters(); c.Suppressed == 0 {
		t.Error("no suppressed installs recorded")
	}
}

func TestGuardBelowThresholdDoesNothing(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.Dp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := core.CoLocated(tbl, core.CoLocatedOptions{})
	core.Replay(sw, tr, 0) // 16 masks
	g, _ := New(Config{Switch: sw, MaskThreshold: 100})
	if n := g.Tick(0, 10); n != 0 {
		t.Errorf("guard deleted %d below threshold", n)
	}
	if st := g.Stats(); st.Sweeps != 1 || st.Triggered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGuardCadence(t *testing.T) {
	sw, _ := attackedSwitch(t)
	g, _ := New(Config{Switch: sw, MaskThreshold: 100})
	g.Tick(0, 10)
	// 5 seconds later: within the 10 s interval, no sweep.
	if g.Tick(5, 10); g.Stats().Sweeps != 1 {
		t.Errorf("sweep ran within the interval: %+v", g.Stats())
	}
	if g.Tick(10, 10); g.Stats().Sweeps != 2 {
		t.Errorf("sweep did not run after the interval: %+v", g.Stats())
	}
}

func TestGuardCPUThresholdAbort(t *testing.T) {
	sw, _ := attackedSwitch(t)
	g, _ := New(Config{Switch: sw, MaskThreshold: 100, CPUThreshold: 50})
	// Current CPU already above c_th: the sweep stops after the first
	// rule's deletions.
	g.Tick(0, 80)
	if st := g.Stats(); st.CPUAborts == 0 {
		t.Errorf("no CPU abort recorded: %+v", st)
	}
}

func TestDeleteAllDropsVariant(t *testing.T) {
	sw, victim := attackedSwitch(t)
	g, _ := New(Config{Switch: sw, MaskThreshold: 100, DeleteAllDrops: true})
	g.Tick(0, 10)
	for _, e := range sw.MFC().Entries() {
		if e.Action == flowtable.Drop {
			t.Fatal("drop entry survived DeleteAllDrops sweep")
		}
	}
	if _, _, ok := sw.MFC().Lookup(victim, 1); !ok {
		t.Error("allow entry deleted")
	}
}

func TestMatchesTSEPattern(t *testing.T) {
	l := bitvec.IPv4Tuple
	tbl := flowtable.UseCaseACL(flowtable.Dp, flowtable.ACLParams{})
	rule := tbl.Rules()[0] // allow tp_dst 80
	dp, _ := l.FieldIndex("tp_dst")
	sip, _ := l.FieldIndex("ip_src")

	prefixEntry := &tss.Entry{Key: bitvec.NewVec(l), Mask: bitvec.PrefixMask(l, dp, 3),
		Action: flowtable.Drop}
	if !matchesTSEPattern(l, rule, prefixEntry) {
		t.Error("prefix drop entry should match the TSE pattern")
	}
	allowEntry := &tss.Entry{Key: bitvec.NewVec(l), Mask: bitvec.PrefixMask(l, dp, 16),
		Action: flowtable.Allow}
	if matchesTSEPattern(l, rule, allowEntry) {
		t.Error("allow entry must never match (requirement (i))")
	}
	// A drop entry not constraining the rule's field is not TSE-shaped
	// for this rule.
	other := &tss.Entry{Key: bitvec.NewVec(l), Mask: bitvec.PrefixMask(l, sip, 4),
		Action: flowtable.Drop}
	if matchesTSEPattern(l, rule, other) {
		t.Error("entry without the rule's field matched")
	}
	// Non-prefix (gappy) masks are not the TSE signature.
	gappy := bitvec.NewVec(l)
	gappy.SetFieldBit(l, dp, 0)
	gappy.SetFieldBit(l, dp, 5)
	g := &tss.Entry{Key: bitvec.NewVec(l), Mask: gappy, Action: flowtable.Drop}
	if matchesTSEPattern(l, rule, g) {
		t.Error("gappy mask matched the prefix pattern")
	}
}

func TestSlowPathCPUPct(t *testing.T) {
	// Fig. 9c anchors: ~15 % at 1 kpps, ~80 % at 10 kpps, capped at 250 %.
	if got := SlowPathCPUPct(1000); got < 10 || got > 20 {
		t.Errorf("CPU @1kpps = %.1f%%, want ≈15", got)
	}
	if got := SlowPathCPUPct(10000); got < 70 || got > 90 {
		t.Errorf("CPU @10kpps = %.1f%%, want ≈80", got)
	}
	if got := SlowPathCPUPct(50000); got != MaxCPUPct {
		t.Errorf("CPU @50kpps = %.1f%%, want capped at %d", got, MaxCPUPct)
	}
	// Monotone.
	prev := -1.0
	for _, pps := range []float64{10, 100, 1000, 5000, 10000, 20000, 50000} {
		if got := SlowPathCPUPct(pps); got < prev {
			t.Fatal("CPU model not monotone")
		} else {
			prev = got
		}
	}
}
