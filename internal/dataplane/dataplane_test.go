package dataplane

import (
	"math"
	"testing"

	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

func TestProfileValidate(t *testing.T) {
	for _, p := range Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %v invalid: %v", p, err)
		}
	}
	bad := TCPGroOff
	bad.Coalesce = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero coalesce accepted")
	}
}

func TestBaselineCalibration(t *testing.T) {
	// The software baseline must saturate 10 Gbps with a single mask.
	m := NewModel(TCPGroOff)
	if got := m.ThroughputForMasks(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("GRO OFF baseline = %v Gbps, want 10", got)
	}
	// FHO reaches ~30 Gbps at baseline (§5.4: "a huge boost ... ~30Gbps").
	fho := NewModel(FHO)
	if got := fho.ThroughputForMasks(1); got < 29 || got > 30.1 {
		t.Errorf("FHO baseline = %v Gbps, want ≈30", got)
	}
	// GRO ON stays at line rate at baseline.
	gro := NewModel(TCPGroOn)
	if got := gro.ThroughputForMasks(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("GRO ON baseline = %v Gbps", got)
	}
}

// TestFig9aAnchors checks the model against the paper's §5.4 degradation
// table (percent of each configuration's own baseline):
//
//	masks:       17     260    516    8200
//	GRO OFF:    ~53%   ~10%   ~4.7%  ~0.2%
//	GRO ON:     ~97%   ~95%   ~76%   ~3.9%
//	FHO:        ~88%   ~43%   ~29%   ~2.1%
//
// The model is a two-parameter linear fit per profile, so we accept each
// anchor within a factor band rather than exactly.
func TestFig9aAnchors(t *testing.T) {
	type band struct{ lo, hi float64 }
	anchors := map[string]map[int]band{
		"TCP GRO OFF": {17: {45, 65}, 260: {6, 12}, 516: {3, 6}, 8200: {0.1, 0.5}},
		"TCP GRO ON":  {17: {90, 100}, 260: {85, 100}, 516: {55, 85}, 8200: {2.5, 6}},
		"FHO ON":      {17: {80, 100}, 260: {25, 50}, 516: {15, 35}, 8200: {1, 3.5}},
		"UDP":         {17: {45, 70}, 260: {6, 14}, 516: {3, 7}, 8200: {0.1, 0.6}},
	}
	for _, prof := range Profiles {
		m := NewModel(prof)
		for masks, b := range anchors[prof.Name] {
			pct := m.BaselinePct(m.ThroughputForMasks(masks))
			if pct < b.lo || pct > b.hi {
				t.Errorf("%s @ %d masks: %.1f%% of baseline, want [%v, %v]",
					prof.Name, masks, pct, b.lo, b.hi)
			}
		}
	}
}

func TestThroughputMonotoneInMasks(t *testing.T) {
	for _, prof := range Profiles {
		m := NewModel(prof)
		prev := math.Inf(1)
		for _, masks := range []int{1, 17, 64, 260, 516, 2000, 8200} {
			g := m.ThroughputForMasks(masks)
			if g > prev+1e-12 {
				t.Fatalf("%s: throughput increased with masks at %d", prof.Name, masks)
			}
			prev = g
		}
	}
}

func TestFlowCompletionTime(t *testing.T) {
	// Fig. 9a secondary axis: 1 GB TCP with GRO OFF takes ~1 s at
	// baseline and hundreds of seconds with ~8200 masks.
	m := NewModel(TCPGroOff)
	base := m.FlowCompletionSec(1e9, 1)
	if base < 0.5 || base > 1.5 {
		t.Errorf("baseline FCT = %v s, want ≈0.8", base)
	}
	worst := m.FlowCompletionSec(1e9, 8200)
	if worst < 200 || worst > 700 {
		t.Errorf("FCT @8200 masks = %v s, want hundreds (paper: ~600)", worst)
	}
	// The FCT multiplier tracks the per-packet cost ratio
	// (base + probes)/(base + 1) — sub-linear in masks at low counts
	// because the fixed per-packet cost dominates, exactly why Fig. 9a's
	// FCT curve sits below the y=x/2 diagonal.
	ratio := m.FlowCompletionSec(1e9, 1000) / base
	if ratio < 30 || ratio > 70 {
		t.Errorf("FCT ratio @1000 masks = %v, want ≈46 (cost-ratio model)", ratio)
	}
}

func TestPacketCostShape(t *testing.T) {
	m := NewModel(TCPGroOff)
	if m.PacketCost(10) <= m.PacketCost(1) {
		t.Error("cost not increasing in probes")
	}
	g := NewModel(TCPGroOn)
	if g.PacketCost(10) >= m.PacketCost(10) {
		t.Error("coalescing should reduce per-wire-packet cost")
	}
	if m.Budget() <= 0 || m.prof.Name != "TCP GRO OFF" {
		t.Error("model accessors broken")
	}
}

func TestWaterfill(t *testing.T) {
	// One idle worker serving every victim.
	waterfill := func(offered, costs []float64, budget, linePps float64) []float64 {
		return waterfill(1, make([]int, len(offered)), offered, costs, []float64{0}, budget, linePps)
	}
	// Plenty of budget: everyone gets their offered rate.
	pps := waterfill([]float64{100, 200}, []float64{1, 1}, 1e9, 1e9)
	if pps[0] != 100 || pps[1] != 200 {
		t.Errorf("unconstrained waterfill = %v", pps)
	}
	// CPU-bound: proportional scale-down.
	pps = waterfill([]float64{100, 100}, []float64{1, 1}, 100, 1e9)
	if math.Abs(pps[0]-50) > 1e-9 || math.Abs(pps[1]-50) > 1e-9 {
		t.Errorf("cpu-bound waterfill = %v", pps)
	}
	// Line-bound.
	pps = waterfill([]float64{100, 100}, []float64{0.001, 0.001}, 1e9, 100)
	if math.Abs(pps[0]+pps[1]-100) > 1e-9 {
		t.Errorf("line-bound waterfill = %v", pps)
	}
	// Zero offered load.
	pps = waterfill([]float64{0}, []float64{1}, 100, 100)
	if pps[0] != 0 {
		t.Errorf("zero-offered waterfill = %v", pps)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := (&Scenario{Name: "x"}).Run(); err == nil {
		t.Error("scenario without switch accepted")
	}
	tbl := flowtable.Fig1()
	sw, _ := vswitch.New(vswitch.Config{Table: tbl})
	bad := NICProfile{Name: "bad"}
	if _, err := (&Scenario{Switch: sw, NIC: bad, DurationSec: 1}).Run(); err == nil {
		t.Error("invalid NIC profile accepted")
	}
}

func mean(samples []Sample, from, to int) float64 {
	total, n := 0.0, 0
	for _, s := range samples {
		if s.Sec >= from && s.Sec < to {
			total += s.TotalVictimGbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// TestFig8aShape verifies the headline dynamics of Fig. 8a: ~9.7 Gbps
// aggregate before the attack, collapse below 0.5 Gbps while the attacker
// injects 100 pps during [30, 60), and recovery only ~10 s after the
// attack stops (the MFC idle timeout).
func TestFig8aShape(t *testing.T) {
	sc, err := Fig8aScenario()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pre := mean(samples, 10, 30); pre < 9.5 {
		t.Errorf("pre-attack aggregate = %.2f Gbps, want ≈9.7", pre)
	}
	if during := mean(samples, 40, 60); during > 0.5 {
		t.Errorf("under attack aggregate = %.2f Gbps, want < 0.5 (paper)", during)
	}
	// Still degraded right after the attack stops (entries idle out only
	// after 10 s)...
	if hold := mean(samples, 61, 68); hold > 2 {
		t.Errorf("t=61..68 aggregate = %.2f Gbps; recovery too fast", hold)
	}
	// ...fully recovered after the idle timeout.
	if post := mean(samples, 72, 90); post < 9.5 {
		t.Errorf("post-recovery aggregate = %.2f Gbps, want ≈9.7", post)
	}
	// The three victims share fairly.
	last := samples[len(samples)-1]
	for i, g := range last.VictimGbps {
		if math.Abs(g-9.7/3) > 0.5 {
			t.Errorf("victim %d final = %.2f Gbps, want ≈3.23", i, g)
		}
	}
}

// TestFig8bShape verifies Fig. 8b: >90 % reduction while attacker and
// victim are both active, recovery 10 s after the attacker stops, and only
// minor damage when the attack restarts against the long-lived flow.
func TestFig8bShape(t *testing.T) {
	sc, err := Fig8bScenario()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	offered := 1.3
	if during := mean(samples, 35, 60); during > 0.2*offered {
		t.Errorf("victim under attack = %.2f Gbps, want >90%% reduction from %.1f", during, offered)
	}
	if post := mean(samples, 72, 90); post < 0.95*offered {
		t.Errorf("victim after recovery = %.2f Gbps, want ≈%.1f", post, offered)
	}
	// Re-activation at t=90: "only a minor damage ... (about 10% drop)".
	if re := mean(samples, 95, 120); re < 0.7*offered {
		t.Errorf("victim during re-attack = %.2f Gbps, want minor damage only", re)
	}
}

// TestFig8cShape verifies Fig. 8c: full rate before the ACL injection
// (the 1000 pps attack against the benign ACL is a minor glitch), a sharp
// drop after t2 = 60, and (near-)full denial of service after the rate
// doubles at t4 = 120.
func TestFig8cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 8c simulation replays ~200k packets; skipped with -short")
	}
	sc, err := Fig8cScenario()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pre := mean(samples, 10, 30); pre < 0.95 {
		t.Errorf("pre-attack = %.2f Gbps, want ≈1.0", pre)
	}
	if glitch := mean(samples, 35, 60); glitch < 0.9 {
		t.Errorf("1000 pps against benign ACL = %.2f Gbps, want minor glitch only", glitch)
	}
	if post := mean(samples, 70, 115); post > 0.6 {
		t.Errorf("after ACL injection = %.2f Gbps, want sharp drop (paper: ~80%%)", post)
	}
	if dos := mean(samples, 125, 150); dos > 0.25 {
		t.Errorf("after rate doubling = %.2f Gbps, want near-zero (full DoS)", dos)
	}
	// The megaflow explosion is visible on the secondary axis (Fig. 8c
	// plots the megaflow count reaching thousands).
	peak := 0
	for _, s := range samples {
		if s.Masks > peak {
			peak = s.Masks
		}
	}
	if peak < 8000 {
		t.Errorf("peak masks = %d, want > 8000", peak)
	}
}

// TestStagedCostModel pins the staged-lookup pricing: with SkippedProbeCost
// unset the staged throughput equals the unstaged one exactly (staging off
// is the calibrated default), and with a cheaper skipped probe the victim's
// modelled throughput improves monotonically with the discount while never
// beating the single-mask baseline.
func TestStagedCostModel(t *testing.T) {
	base := NewModel(TCPGroOff)
	for _, masks := range []int{1, 17, 516, 8200} {
		if got, want := base.ThroughputForMasksStaged(masks), base.ThroughputForMasks(masks); got != want {
			t.Errorf("masks=%d: staged %v != unstaged %v with staging off", masks, got, want)
		}
	}
	prof := TCPGroOff
	prof.SkippedProbeCost = prof.ProbeCost * 0.4
	m := NewModel(prof)
	for _, masks := range []int{17, 516, 8200} {
		off := m.ThroughputForMasks(masks)
		on := m.ThroughputForMasksStaged(masks)
		if on <= off {
			t.Errorf("masks=%d: staged %v not faster than unstaged %v", masks, on, off)
		}
		if baseline := m.ThroughputForMasks(1); on > baseline {
			t.Errorf("masks=%d: staged %v beats the 1-mask baseline %v", masks, on, baseline)
		}
	}
	// Packet-cost identity: probes all skipped but one, discount applied
	// to exactly probes-1 of them.
	p := m.StagedPacketCost(11, 10)
	want := (prof.BaseCost + prof.ProbeCost*1 + prof.SkippedProbeCost*10) / prof.Coalesce
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("StagedPacketCost = %v, want %v", p, want)
	}
}
