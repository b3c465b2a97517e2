package datapath_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// pmdFamilies maps every tse_pmd_* counter family to the Pool.Totals field
// it must equal.
var pmdFamilies = map[string]func(datapath.WorkerStats) uint64{
	"tse_pmd_packets_total":       func(s datapath.WorkerStats) uint64 { return s.Packets },
	"tse_pmd_emc_hits_total":      func(s datapath.WorkerStats) uint64 { return s.EMCHits },
	"tse_pmd_emc_bypassed_total":  func(s datapath.WorkerStats) uint64 { return s.EMCBypassed },
	"tse_pmd_megaflow_hits_total": func(s datapath.WorkerStats) uint64 { return s.MegaflowHits },
	"tse_pmd_slowpath_total":      func(s datapath.WorkerStats) uint64 { return s.SlowPath },
	"tse_pmd_probes_total":        func(s datapath.WorkerStats) uint64 { return s.Probes },
	"tse_pmd_upcalls_total":       func(s datapath.WorkerStats) uint64 { return s.Upcalls },
	"tse_pmd_upcall_drops_total":  func(s datapath.WorkerStats) uint64 { return s.UpcallDrops },
	"tse_pmd_upcall_shed_total":   func(s datapath.WorkerStats) uint64 { return s.UpcallShed },
}

// TestPMDMetricsMatchTotals replays seeded traces through pools wired to a
// telemetry.Registry and holds every tse_pmd_* total to its Pool.Totals
// field: an inline two-worker pool driven through an emc_overflow-shaped
// mix (so its workers step aside from their EMCs) and then a co-located
// attack mix, and an upcall pool with bounded queues whose breaker trips,
// driven deferred. Between them every family moves, so no equality holds
// only at zero; a family the map does not name fails the test.
func TestPMDMetricsMatchTotals(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{}
	check := func(t *testing.T, reg *telemetry.Registry, p *datapath.Pool) {
		t.Helper()
		tot, seen := p.Totals(), 0
		for _, pt := range reg.Snapshot().Points {
			if !strings.HasPrefix(pt.Name, "tse_pmd_") {
				continue
			}
			field, ok := pmdFamilies[pt.Name]
			if !ok {
				t.Errorf("family %s has no Totals field in the test's map", pt.Name)
				continue
			}
			seen++
			if got, want := uint64(pt.Value), field(tot); got != want {
				t.Errorf("%s = %d, Totals says %d", pt.Name, got, want)
			}
			moved[pt.Name] = moved[pt.Name] || pt.Value > 0
		}
		if seen != len(pmdFamilies) {
			t.Errorf("the registry holds %d of the %d tse_pmd_* families", seen, len(pmdFamilies))
		}
	}

	t.Run("inline", func(t *testing.T) {
		reg := telemetry.NewRegistry(2)
		sw, err := vswitch.New(vswitch.Config{Table: tbl})
		if err != nil {
			t.Fatal(err)
		}
		p, err := datapath.New(datapath.Config{Switch: sw, Workers: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		hs := make([]bitvec.Vec, 1000)
		for r := 0; r < 60; r++ {
			for i := range hs {
				hs[i] = overflowFlow(rng.Intn(16384))
			}
			p.ProcessBatchPorts(nil, hs, int64(r), nil)
		}
		p.ProcessBatchPorts(nil, attackMix(t, tbl), 60, nil)
		check(t, reg, p)
	})

	t.Run("deferred upcalls", func(t *testing.T) {
		reg := telemetry.NewRegistry(1)
		sw, err := vswitch.New(vswitch.Config{Table: tbl})
		if err != nil {
			t.Fatal(err)
		}
		p, err := datapath.New(datapath.Config{Switch: sw, Metrics: reg,
			Upcall: &upcall.Options{QueueCap: 8, QuotaPerSource: 4, BreakerSLOSec: 1}})
		if err != nil {
			t.Fatal(err)
		}
		// Three intervals whose upcalls wait 2 s against a 1 s SLO trip the
		// port's breaker; the fourth dispatch is shed.
		for i, now := range []int64{0, 2, 4, 6} {
			p.ProcessBatchDeferredPorts(nil, tr.Headers[64*i:64*(i+1)], now, nil)
			p.Upcalls().HandleNAt(math.MaxInt, now+2)
			p.Upcalls().TickBreakers(now + 2)
		}
		p.Close()
		check(t, reg, p)
	})

	for name := range pmdFamilies {
		if !moved[name] {
			t.Errorf("%s never moved: its equality with Totals was only checked at zero", name)
		}
	}
}
