package dataplane

import (
	"strings"
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// asyncScenario builds a scaled-down saturation scenario (SipDp, ~257
// attainable masks) so the test suite stays fast; the full SipSpDp preset
// runs in the `saturation` experiment.
func asyncScenario(t *testing.T, up *UpcallParams) *Scenario {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	victim := &Victim{
		Name:        "Victim",
		Header:      victimHeader(0x0a000070, 45000, 80),
		OfferedGbps: 5,
	}
	return &Scenario{
		Name:        "async-test",
		Switch:      sw,
		NIC:         TCPGroOff,
		Victims:     []*Victim{victim},
		Phases:      []AttackPhase{{Trace: trace, RatePps: 300, StartSec: 2, StopSec: 18}},
		DurationSec: 34, // leaves the 10 s idle horizon room to drain post-attack
		Workers:     2,
		Upcall:      up,
	}
}

// sumUpcall folds the per-second series into totals.
func sumUpcall(samples []Sample) (tot UpcallSample, peakMasks, peakBacklog int) {
	for _, s := range samples {
		if s.Masks > peakMasks {
			peakMasks = s.Masks
		}
		u := s.Upcall
		if u == nil {
			continue
		}
		if u.Backlog > peakBacklog {
			peakBacklog = u.Backlog
		}
		tot.Enqueued += u.Enqueued
		tot.Deduped += u.Deduped
		tot.QueueDrops += u.QueueDrops
		tot.QuotaDrops += u.QuotaDrops
		tot.Handled += u.Handled
		tot.Installed += u.Installed
		tot.Expired += u.Expired
		tot.Invalidated += u.Invalidated
	}
	return tot, peakMasks, peakBacklog
}

// TestAsyncScenarioBoundsMaskGrowth: under the same attack, bounded
// queues/quotas/handler budget cap MFC mask growth well below the
// unbounded async run, with the refusals visible in the series.
func TestAsyncScenarioBoundsMaskGrowth(t *testing.T) {
	open := asyncScenario(t, &UpcallParams{})
	// The single ingress vport admits 12/s while the handlers serve 8, so
	// the backlog climbs toward the queue cap: early seconds show quota
	// drops (tokens out while the queue has room), late seconds queue-full
	// drops — every bound is exercised.
	bounded := asyncScenario(t, &UpcallParams{
		Options: upcall.Options{QueueCap: 32, QuotaPerSource: 12}, HandledPerSec: 8})

	so, err := open.Run()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := bounded.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][]Sample{so, sb} {
		for _, smp := range s {
			if smp.Upcall == nil {
				t.Fatal("async sample missing the upcall series")
			}
		}
	}
	to, po, _ := sumUpcall(so)
	tb, pb, backlog := sumUpcall(sb)

	if to.QueueDrops+to.QuotaDrops != 0 {
		t.Errorf("unbounded run dropped %d upcalls", to.QueueDrops+to.QuotaDrops)
	}
	if to.Handled != to.Enqueued {
		t.Errorf("unbounded run left %d upcalls unhandled", to.Enqueued-to.Handled)
	}
	if po < 200 {
		t.Errorf("unbounded peak masks %d; attack did not inflate the cache", po)
	}
	if tb.QuotaDrops == 0 {
		t.Error("bounded run recorded no quota drops")
	}
	if pb >= po/3 {
		t.Errorf("bounded peak masks %d vs unbounded %d: bound not effective", pb, po)
	}
	if backlog == 0 {
		t.Error("bounded run never built a backlog despite the handler budget")
	}
	if tb.Installed > tb.Handled {
		t.Errorf("installed %d > handled %d", tb.Installed, tb.Handled)
	}
	// The handler budget is a hard per-second ceiling.
	for _, s := range sb {
		if s.Upcall.Handled > 8 {
			t.Fatalf("second %d handled %d upcalls, budget is 8", s.Sec, s.Upcall.Handled)
		}
	}
	// Victims recover once the revalidator's idle expiry drains the attack
	// masks (attack stops at 18; the 10 s horizon clears by ~29).
	if g := avgVictimGbpsT(sb, 31, 34); g < avgVictimGbpsT(sb, 10, 18) {
		t.Errorf("bounded victim did not recover: under=%.2f post=%.2f",
			avgVictimGbpsT(sb, 10, 18), g)
	}
}

// TestAsyncScenarioRevalidatesInjectedACL: a mid-run SwapTable (the
// Fig. 8c injection) takes effect through the revalidator's dump-and-check
// rather than synchronously.
func TestAsyncScenarioRevalidatesInjectedACL(t *testing.T) {
	sc := asyncScenario(t, &UpcallParams{})
	malicious := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sc.Phases = append(sc.Phases, AttackPhase{
		Trace: sc.Phases[0].Trace, RatePps: 0, StartSec: 10, StopSec: 11,
		InjectACL: malicious})
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	invalidated := 0
	for _, s := range samples {
		invalidated += s.Upcall.Invalidated
	}
	if invalidated == 0 {
		t.Error("revalidator never invalidated megaflows after the ACL injection")
	}
}

// avgVictimGbpsT averages TotalVictimGbps over [from, to) seconds.
func avgVictimGbpsT(samples []Sample, from, to int) float64 {
	sum, n := 0.0, 0
	for _, s := range samples {
		if s.Sec >= from && s.Sec < to {
			sum += s.TotalVictimGbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestFlowSetupLatencySeries: the per-second flow-setup latency surfaced
// on UpcallSample tracks the standing backlog — zero while the handlers
// keep up, climbing toward queue-cap/service-rate once the bound bites,
// recorded against the simulation clock even while a post-attack backlog
// drains, and -1 on seconds with nothing handled.
func TestFlowSetupLatencySeries(t *testing.T) {
	sc := asyncScenario(t, &UpcallParams{
		Options: upcall.Options{QueueCap: 32, QuotaPerSource: 12}, HandledPerSec: 8})
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	peakP99 := -1
	for _, s := range samples {
		u := s.Upcall
		if u == nil {
			t.Fatal("async sample missing the upcall series")
		}
		if (u.FlowSetupP99 >= 0) != (u.Handled > 0) {
			t.Errorf("second %d: p99 %d with %d handled; -1 iff nothing handled",
				s.Sec, u.FlowSetupP99, u.Handled)
		}
		if u.FlowSetupP50 > u.FlowSetupP99 {
			t.Errorf("second %d: p50 %d above p99 %d", s.Sec, u.FlowSetupP50, u.FlowSetupP99)
		}
		if len(u.PortFlowSetupP99) != len(u.PortQuota) {
			t.Fatalf("second %d: per-port FCT len %d, quota len %d",
				s.Sec, len(u.PortFlowSetupP99), len(u.PortQuota))
		}
		// Every pop is attributed to a source, so whenever the aggregate
		// recorded residence this second, some port split did too (and
		// vice versa).
		maxPort := -1
		for _, p := range u.PortFlowSetupP99 {
			if p > maxPort {
				maxPort = p
			}
		}
		if (maxPort >= 0) != (u.FlowSetupP99 >= 0) {
			t.Errorf("second %d: aggregate p99 %d vs per-port %v", s.Sec, u.FlowSetupP99, u.PortFlowSetupP99)
		}
		if u.FlowSetupP99 > peakP99 {
			peakP99 = u.FlowSetupP99
		}
	}
	// The vport admits 12/s against an 8/s handler budget, so the backlog
	// climbs to the 32-entry cap and an admitted upcall waits ~32/8 = 4
	// virtual seconds at peak.
	if peakP99 < 2 {
		t.Errorf("peak flow-setup p99 %d, want >= 2 (backlog never showed in the metric)", peakP99)
	}
	// Before the attack (seconds 0-1) the victim's own setup is instant.
	for _, s := range samples[:2] {
		if u := s.Upcall; u.Handled > 0 && u.FlowSetupP99 != 0 {
			t.Errorf("second %d: pre-attack p99 %d, want 0", s.Sec, u.FlowSetupP99)
		}
	}
	// The backlog keeps draining after the attack stops at 18, and those
	// late pops must measure residence against the advancing clock (the
	// HandleNAt path), not the last Submit tick.
	post := false
	for _, s := range samples {
		if s.Sec > 18 && s.Upcall.Handled > 0 && s.Upcall.FlowSetupP99 > 0 {
			post = true
		}
	}
	if !post {
		t.Error("no post-attack second recorded positive residence while draining the backlog")
	}
}

// TestScenarioRejectsBadPorts: a victim or phase naming a vport outside the
// pool is a configuration error from Run — before any tick runs — never the
// pool's out-of-range panic.
func TestScenarioRejectsBadPorts(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*Scenario)
		want   string
	}{
		"negative victim": {func(sc *Scenario) { sc.Victims[0].Port = -1 },
			`victim "Victim" port -1 outside [0,`},
		"negative phase": {func(sc *Scenario) { sc.Phases[0].Port = -2 },
			"flood 0 port -2 outside [0,"},
	} {
		sc := asyncScenario(t, &UpcallParams{})
		sc.Phases = append(sc.Phases, AttackPhase{Port: 2, StartSec: 30, StopSec: 31})
		tc.mutate(sc)
		if _, err := sc.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error %v, want %q", name, err, tc.want)
		}
	}
}

// TestEngineStepRejectsBadPorts: direct engine users (fleet nodes) get the
// same error from Step, for ports past the pool's range too.
func TestEngineStepRejectsBadPorts(t *testing.T) {
	sc := asyncScenario(t, &UpcallParams{})
	eng, err := NewEngine(EngineConfig{Switch: sc.Switch, NIC: sc.NIC, Ports: 3, Upcall: sc.Upcall})
	if err != nil {
		t.Fatal(err)
	}
	cursor := 0
	flood := Flood{Headers: sc.Phases[0].Trace.Headers, Cursor: &cursor, RatePps: 4}
	for _, port := range []int{-1, 3} {
		flood.Port = port
		if _, err := eng.Step(0, []Flood{flood}, nil); err == nil || !strings.Contains(err.Error(), "outside [0,3)") {
			t.Errorf("flood port %d: Step error %v", port, err)
		}
		sc.Victims[0].Port = port
		if _, err := eng.Step(0, nil, sc.Victims); err == nil || !strings.Contains(err.Error(), "outside [0,3)") {
			t.Errorf("victim port %d: Step error %v", port, err)
		}
	}
	sc.Victims[0].Port, flood.Port = 2, 2
	if _, err := eng.Step(0, []Flood{flood}, sc.Victims); err != nil {
		t.Errorf("in-range ports refused: %v", err)
	}
}

// TestRegistryEqualsStats: after the supervised chaos run every upcall
// metric family reads exactly the Stats() field it is documented to export —
// the families are views, not second counters — and the run is eventful
// enough that a family re-pointed at another field would show.
func TestRegistryEqualsStats(t *testing.T) {
	sc, err := ChaosScenario(ChaosSupervised)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1)
	sc.Telemetry = &telemetry.Hub{Reg: reg}
	eng, err := sc.engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.drive(eng); err != nil {
		t.Fatal(err)
	}
	st, snap := eng.Upcalls().Stats(), reg.Snapshot()
	for _, f := range []struct {
		family string
		want   uint64
	}{
		{"tse_upcall_enqueued_total", st.Enqueued},
		{"tse_upcall_coalesced_total", st.Deduped},
		{"tse_upcall_queue_drops_total", st.QueueDrops},
		{"tse_upcall_quota_drops_total", st.QuotaDrops},
		{"tse_upcall_breaker_shed_total", st.BreakerShed},
		{"tse_upcall_handled_total", st.Handled},
		{"tse_upcall_requeued_total", st.Requeued},
		{"tse_upcall_pending_reaped_total", st.PendingReaped},
		{"tse_handler_panics_total", st.HandlerPanics},
		{"tse_handler_stalls_total", st.StallsDetected},
		{"tse_handler_restarts_total", st.HandlerRestarts},
		{"tse_breaker_trips_total", st.BreakerTrips},
		{"tse_breaker_closes_total", st.BreakerCloses},
		{"tse_upcall_backlog", uint64(st.Backlog)},
		{"tse_upcall_pending_flows", uint64(st.PendingFlows)},
	} {
		p, ok := snap.Get(f.family)
		if !ok {
			t.Errorf("%s is not registered", f.family)
		} else if uint64(p.Value) != f.want {
			t.Errorf("%s = %v, Stats() says %d", f.family, p.Value, f.want)
		}
	}
	// Distinct nonzero values are what make a swapped getter visible.
	if st.Enqueued == 0 || st.Handled == 0 || st.QuotaDrops == 0 || st.HandlerPanics != 1 ||
		st.StallsDetected != 1 || st.HandlerRestarts != 2 || st.Requeued == 0 || st.BreakerTrips == 0 {
		t.Errorf("supervised chaos run too quiet to pin the views: %+v", st)
	}
	if p, _ := snap.Get("tse_upcall_residence_seconds"); p.Count != st.Residence.Count {
		t.Errorf("residence histogram saw %d pops, Stats() %d", p.Count, st.Residence.Count)
	}
}
