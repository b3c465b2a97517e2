package datapath_test

import (
	"fmt"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// BenchmarkDatapathWorkers measures end-to-end pool throughput at 1/2/4/8
// workers under baseline (benign, cache-friendly) and TSE-attack traffic,
// reporting pkts/s. Baseline scaling is dominated by aggregate EMC
// capacity: each PMD worker brings its own exact-match cache, so a flow
// population that thrashes one worker's EMC fits comfortably across four
// — the architectural reason OVS runs one EMC per PMD thread rather than
// one per switch. The attack variant runs with the EMCs off, modelling
// the attack stream's unbounded header entropy (real TSE packets never
// repeat, so they never hit an exact-match layer; replaying a finite
// trace with EMCs on would spuriously cache it): every packet pays the
// mask scan of the attacked classifier, and adding workers buys almost
// nothing because the inflated tuple space is shared. That contrast is
// the point of the benchmark.
func BenchmarkDatapathWorkers(b *testing.B) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	// 800 benign flows: far beyond one EMC (256 entries), comfortably
	// inside four.
	baseline := benignFlows(800)
	attackTr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	traffic := map[string][]bitvec.Vec{
		"baseline": baseline,
		"attack":   attackTr.Headers,
	}
	for _, kind := range []string{"baseline", "attack"} {
		trace := traffic[kind]
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(b *testing.B) {
				sw, err := vswitch.New(vswitch.Config{Table: tbl})
				if err != nil {
					b.Fatal(err)
				}
				pool, err := datapath.New(datapath.Config{
					Switch: sw, Workers: workers, DisableEMC: kind == "attack"})
				if err != nil {
					b.Fatal(err)
				}
				// Warm: install the megaflows (and prime the EMCs once).
				out := pool.ProcessBatchPorts(nil, trace, 0, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = pool.ProcessBatchPorts(nil, trace, 1, out)
				}
				b.StopTimer()
				pps := float64(b.N) * float64(len(trace)) / b.Elapsed().Seconds()
				b.ReportMetric(pps, "pkts/s")
				// The attack regime is a mask-scan benchmark: report how
				// much of the scan the staged lookup skipped (per-worker
				// handles sum into Totals).
				if tot := pool.Totals(); tot.Probes > 0 {
					b.ReportMetric(float64(tot.StageSkips)/float64(tot.Probes), "skipfrac")
				}
			})
		}
	}
}
