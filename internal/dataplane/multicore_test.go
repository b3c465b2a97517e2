package dataplane

import (
	"math"
	"testing"
)

// avgOver averages TotalVictimGbps over [from, to).
func avgOver(samples []Sample, from, to int) float64 {
	sum, n := 0.0, 0
	for _, s := range samples {
		if s.Sec >= from && s.Sec < to {
			sum += s.TotalVictimGbps
			n++
		}
	}
	return sum / float64(n)
}

func runMulticoreScenario(t *testing.T, workers int) []Sample {
	t.Helper()
	sc, err := MulticoreScenario(workers)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != sc.DurationSec {
		t.Fatalf("got %d samples, want %d", len(samples), sc.DurationSec)
	}
	return samples
}

// TestMulticoreScenario checks the scaling story end to end: runs are
// deterministic, per-worker series account for the totals, victim
// throughput recovers with core count during the attack, and the mask
// count — shared state — is identical at every core count.
func TestMulticoreScenario(t *testing.T) {
	one := runMulticoreScenario(t, 1)
	four := runMulticoreScenario(t, 4)
	fourAgain := runMulticoreScenario(t, 4)

	// Determinism: the simulator is virtual-time and serial-driven.
	for i := range four {
		if four[i].TotalVictimGbps != fourAgain[i].TotalVictimGbps ||
			four[i].Masks != fourAgain[i].Masks ||
			four[i].AttackCost != fourAgain[i].AttackCost {
			t.Fatalf("second 4-worker run diverges at t=%d", i)
		}
	}

	// A single core is a one-worker pool: same sample shape, one column.
	if len(one[0].WorkerAttackCost) != 1 || len(one[0].WorkerVictimGbps) != 1 {
		t.Errorf("single-core per-worker series have lengths %d/%d, want 1/1",
			len(one[0].WorkerAttackCost), len(one[0].WorkerVictimGbps))
	}
	// Multi-core samples carry coherent per-worker series.
	for _, s := range four {
		if len(s.WorkerAttackCost) != 4 || len(s.WorkerVictimGbps) != 4 {
			t.Fatalf("t=%d: per-worker series have lengths %d/%d, want 4/4",
				s.Sec, len(s.WorkerAttackCost), len(s.WorkerVictimGbps))
		}
		perWorker, attack := 0.0, 0.0
		for w := 0; w < 4; w++ {
			perWorker += s.WorkerVictimGbps[w]
			attack += s.WorkerAttackCost[w]
		}
		if math.Abs(perWorker-s.TotalVictimGbps) > 1e-9 {
			t.Fatalf("t=%d: worker victim series sum %.6f != total %.6f",
				s.Sec, perWorker, s.TotalVictimGbps)
		}
		if math.Abs(attack-s.AttackCost) > 1e-9 {
			t.Fatalf("t=%d: worker attack costs sum %.6f != total %.6f",
				s.Sec, attack, s.AttackCost)
		}
	}

	// Before the attack both configurations saturate the offered load.
	if pre1, pre4 := avgOver(one, 10, 30), avgOver(four, 10, 30); math.Abs(pre1-pre4) > 0.1 {
		t.Errorf("pre-attack throughput differs: 1 worker %.2f, 4 workers %.2f", pre1, pre4)
	}
	// Under attack, extra cores absorb the sharded slow-path load...
	under1, under4 := avgOver(one, 60, 90), avgOver(four, 60, 90)
	if under4 < 1.5*under1 {
		t.Errorf("4 workers should recover markedly over 1 under attack: %.3f vs %.3f",
			under4, under1)
	}
	// ...but the shared mask explosion caps recovery far below baseline.
	if under4 > 0.5*avgOver(four, 10, 30) {
		t.Errorf("4 workers recovered to %.2f Gbps; the shared mask scan should cap it lower", under4)
	}
	// The inflated tuple space is identical: the MFC is shared state.
	peak := func(ss []Sample) int {
		m := 0
		for _, s := range ss {
			if s.Masks > m {
				m = s.Masks
			}
		}
		return m
	}
	if p1, p4 := peak(one), peak(four); p1 != p4 {
		t.Errorf("peak masks differ across core counts: %d vs %d", p1, p4)
	}
}

// TestMulticorePortPinning: once the traffic mix names ingress vports, the
// engine pins flows to workers by port (rxq-to-PMD) instead of by RSS
// hash — the attack's CPU cost lands only on the flooded
// port's worker, so victims on the other worker dodge the CPU-exhaustion
// component entirely. The shared megaflow cache's mask-scan tax still hits
// every victim (global state; the point of the multicore experiment), so
// the pinning isolates, it does not repeal, the attack.
func TestMulticorePortPinning(t *testing.T) {
	build := func() *Scenario {
		sc, err := MulticoreScenario(2)
		if err != nil {
			t.Fatal(err)
		}
		// Re-home the mix onto explicit vports: victims 0/1 on port 0
		// (worker 0), victims 2/3 on port 1 (worker 1), flood on port 1 at
		// a rate where attack CPU, not just the scan tax, bites worker 1.
		for i, v := range sc.Victims {
			v.Port = i / 2
		}
		sc.Phases[0].Port = 1
		sc.Phases[0].RatePps = 30000
		return sc
	}
	samples, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	again, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	attackTicks := 0
	for i, s := range samples {
		// Determinism with port pinning on.
		if s.TotalVictimGbps != again[i].TotalVictimGbps || s.AttackCost != again[i].AttackCost {
			t.Fatalf("port-pinned rerun diverges at t=%d", s.Sec)
		}
		if s.WorkerAttackCost[0] != 0 {
			t.Fatalf("t=%d: attack cost %.3f leaked onto worker 0; flood is pinned to port 1",
				s.Sec, s.WorkerAttackCost[0])
		}
		if s.AttackPps > 0 && s.WorkerAttackCost[1] > 0 {
			attackTicks++
		}
	}
	if attackTicks == 0 {
		t.Fatal("attack cost never landed on the flooded port's worker")
	}

	// Containment ordering: the unflooded worker's victims, paying only
	// the shared scan tax, keep several times the throughput of the
	// flooded worker's victims, who additionally lose their CPU budget to
	// the flood.
	perVictimAvg := func(ss []Sample, i, from, to int) float64 {
		sum, n := 0.0, 0
		for _, s := range ss {
			if s.Sec >= from && s.Sec < to {
				sum += s.VictimGbps[i]
				n++
			}
		}
		return sum / float64(n)
	}
	for i := 0; i < 2; i++ {
		clean, flooded := perVictimAvg(samples, i, 60, 90), perVictimAvg(samples, i+2, 60, 90)
		if clean < 4*flooded {
			t.Errorf("victims %d/%d under attack: unflooded worker %.3f vs flooded %.3f; pinning should isolate the CPU cost",
				i, i+2, clean, flooded)
		}
		// Both still sit far below pre-attack: the mask-scan tax is global.
		if pre := perVictimAvg(samples, i, 10, 30); clean > 0.5*pre {
			t.Errorf("victim %d kept %.3f of %.3f; the shared mask explosion should tax it", i, clean, pre)
		}
	}
}
