package cluster

import (
	"fmt"
	"sync"
	"testing"

	"tse/internal/telemetry"
)

// eventSig flattens a journal into a comparable signature.
func eventSig(evs []telemetry.Event) string {
	s := ""
	for _, e := range evs {
		s += fmt.Sprintf("%d|%d|%d|%d|%s\n", e.Tick, e.Kind, e.Actor, e.Value, e.Note)
	}
	return s
}

func runMode(t *testing.T, mode FleetMode) (*Fabric, *FleetChaosResult, []telemetry.Event) {
	t.Helper()
	j := telemetry.NewJournal(4096)
	f, res, err := RunFleetChaos(mode, j)
	if err != nil {
		t.Fatal(err)
	}
	return f, res, j.Events()
}

// TestFleetChaosBlastRadius is the capstone containment assertion: a node
// killed and a node partitioned at attack peak, with the full robustness
// stack, degrade nothing beyond the attacker's own node — and the
// unsupervised ablation shows what that stack buys.
func TestFleetChaosBlastRadius(t *testing.T) {
	_, sup, supEvs := runMode(t, FleetSupervised)
	_, sup2, supEvs2 := runMode(t, FleetSupervised)
	_, unsup, _ := runMode(t, FleetUnsupervised)
	_, free, _ := runMode(t, FleetFaultFree)

	// Determinism: the fleet is tick-stepped and goroutine-free, so two
	// runs produce bit-identical event streams and throughput series.
	if eventSig(supEvs) != eventSig(supEvs2) {
		t.Fatal("supervised reruns emit different event streams")
	}
	for i, s := range sup.Samples {
		for j, g := range s.TenantGbps {
			if g != sup2.Samples[i].TenantGbps[j] {
				t.Fatalf("t=%d tenant %d: %v != %v across reruns", s.Sec, j, g, sup2.Samples[i].TenantGbps[j])
			}
		}
	}

	// The detector declares the t=23 crash dead after DeadAfter missed
	// heartbeats (the crash tick is the first miss).
	if sup.DeathSec != FleetCrashSec+4 {
		t.Fatalf("supervised death at t=%d, want %d", sup.DeathSec, FleetCrashSec+4)
	}

	// Containment: only the attacker's co-located victims degrade — the
	// TSE tax itself, present in the fault-free baseline too. The crash,
	// partition, push errors, revalidator stall and handler panic add no
	// victims with the robustness stack on.
	if sup.BlastRadiusFrac != free.BlastRadiusFrac {
		t.Errorf("supervised blast radius %.3f != fault-free baseline %.3f; faults leaked past containment",
			sup.BlastRadiusFrac, free.BlastRadiusFrac)
	}
	if sup.BlastRadiusFrac != 0.25 {
		t.Errorf("supervised blast radius %.3f, want 0.25 (the 2 co-located victims of 8)", sup.BlastRadiusFrac)
	}
	// Victims on surviving non-attacker nodes retain full pre-fault
	// throughput through the fault window.
	for i, w := range supConfig(t).Workloads {
		if w.Attacker || sup.Degraded[i] {
			continue
		}
		if sup.FaultWin[i] < 0.9*sup.PreFault[i] {
			t.Errorf("victim %d on a surviving node fell to %.3f of %.3f", i, sup.FaultWin[i], sup.PreFault[i])
		}
	}

	// Failover: the dead node's tenants are dark only for the detection
	// gap, then serve at full rate from their new homes within the run.
	if sup.FailoverSec != 4 {
		t.Errorf("supervised failover gap %d sec, want 4 (DeadAfter-1)", sup.FailoverSec)
	}
	movers := 0
	for _, e := range supEvs {
		if e.Kind == telemetry.EvTenantFailover {
			movers++
		}
	}
	if movers != 2 {
		t.Errorf("%d tenant failovers journaled, want 2 (the dead node hosted 2 victims)", movers)
	}
	// Fleet convergence kept working through the fault burst.
	if sup.ACLConvergenceSec < 1 {
		t.Errorf("supervised ACL convergence %d, want >= 1", sup.ACLConvergenceSec)
	}
	// No pending-table leaks anywhere once the attack ends.
	final := sup.Samples[len(sup.Samples)-1]
	for id, ns := range final.Nodes {
		if ns.Alive && ns.PendingFlows != 0 {
			t.Errorf("node %d ends with %d pending flows; supervised reaping should drain them", id, ns.PendingFlows)
		}
	}

	// The ablation: no failover leaves the dead node's tenants dark
	// (wider blast radius, no recovery), no supervision leaks pending
	// entries on the attacked node.
	if unsup.BlastRadiusFrac <= sup.BlastRadiusFrac {
		t.Errorf("unsupervised blast radius %.3f should exceed supervised %.3f",
			unsup.BlastRadiusFrac, sup.BlastRadiusFrac)
	}
	if unsup.FailoverSec != -1 {
		t.Errorf("unsupervised failover gap %d, want -1 (failover disabled)", unsup.FailoverSec)
	}
	ufinal := unsup.Samples[len(unsup.Samples)-1]
	for i, w := range supConfig(t).Workloads {
		if w.Attacker {
			continue
		}
		if ufinal.TenantNode[i] == -1 && ufinal.TenantGbps[i] != 0 {
			t.Errorf("dark tenant %d moves %.3f Gbps", i, ufinal.TenantGbps[i])
		}
	}
	if ufinal.Nodes[0].PendingFlows == 0 {
		t.Error("unsupervised attacked node should end with leaked pending flows")
	}
}

func supConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := FleetChaosConfig(FleetSupervised, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestFleetControllerPartition pins the graceful-degradation contract: a
// node partitioned from the controller keeps forwarding on its last
// applied generation, its staleness is reported (not silent), pushes to
// it retry with backoff, and after the partition heals it rejoins,
// catches up, and leaks nothing.
func TestFleetControllerPartition(t *testing.T) {
	_, res, evs := runMode(t, FleetSupervised)
	cfg := supConfig(t)

	// Tenants homed on the partitioned node (node 2) at t=0.
	var onNode2 []int
	for i, home := range res.Samples[0].TenantNode {
		if home == 2 && !cfg.Workloads[i].Attacker {
			onNode2 = append(onNode2, i)
		}
	}
	if len(onNode2) == 0 {
		t.Fatal("no victims scheduled onto node 2")
	}

	staleSeen := false
	for _, s := range res.Samples {
		ns := s.Nodes[2]
		inWindow := s.Sec >= FleetPartitionSec && s.Sec < FleetPartitionSec+FleetPartitionDur
		if inWindow != ns.Partitioned {
			t.Fatalf("t=%d: node 2 partitioned=%v, want %v", s.Sec, ns.Partitioned, inWindow)
		}
		if inWindow {
			if !ns.Alive {
				t.Fatalf("t=%d: partitioned node must stay alive", s.Sec)
			}
			if ns.StaleGens > 0 {
				staleSeen = true
			}
			// Forwarding continues on the stale generation.
			for _, i := range onNode2 {
				if s.TenantGbps[i] < 0.9*res.PreFault[i] {
					t.Errorf("t=%d: tenant %d on partitioned node dropped to %.3f", s.Sec, i, s.TenantGbps[i])
				}
			}
		}
	}
	if !staleSeen {
		t.Error("partitioned node never reported a staleness gap")
	}

	// Lifecycle events: suspected, never dead, rejoined; pushes to the
	// partitioned node retried; staleness journaled.
	count := map[telemetry.EventKind]int{}
	for _, e := range evs {
		if e.Actor == 2 {
			count[e.Kind]++
		}
	}
	if count[telemetry.EvNodeSuspect] == 0 || count[telemetry.EvNodeRejoin] == 0 {
		t.Errorf("node 2 lifecycle events missing: %d suspects, %d rejoins",
			count[telemetry.EvNodeSuspect], count[telemetry.EvNodeRejoin])
	}
	if count[telemetry.EvNodeDead] != 0 {
		t.Error("node 2 was declared dead; the partition is shorter than DeadAfter")
	}
	if count[telemetry.EvACLPushRetry] == 0 {
		t.Error("no push retries journaled for the partitioned node")
	}
	if count[telemetry.EvNodeStale] == 0 {
		t.Error("no staleness events journaled for the partitioned node")
	}

	// After the partition heals the node converges back: by the end its
	// staleness is bounded by normal stagger (the current generation's
	// rollout), and nothing leaked.
	final := res.Samples[len(res.Samples)-1]
	if final.Nodes[2].StaleGens > 1 {
		t.Errorf("node 2 ends %d generations stale; it should have caught up", final.Nodes[2].StaleGens)
	}
	if final.Nodes[2].PendingFlows != 0 || final.Nodes[2].Backlog != 0 {
		t.Errorf("node 2 ends with pending=%d backlog=%d; want zero leaks",
			final.Nodes[2].PendingFlows, final.Nodes[2].Backlog)
	}
}

// TestFleetConcurrentReaders drives two fabrics in parallel while reader
// goroutines hammer the public accessors — the -race exercise for the
// heartbeat/failover paths.
func TestFleetConcurrentReaders(t *testing.T) {
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg, err := FleetChaosConfig(FleetSupervised, telemetry.NewJournal(4096))
			if err != nil {
				t.Error(err)
				return
			}
			f, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			done := make(chan struct{})
			var rg sync.WaitGroup
			for p := 0; p < 3; p++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						_ = f.Samples()
						_ = f.DeadAt()
						_ = f.MaxConvergeSec()
					}
				}()
			}
			samples, err := f.Run()
			if err != nil {
				t.Error(err)
			}
			close(done)
			rg.Wait()
			if len(samples) == 0 {
				t.Error("run produced no samples")
				return
			}

			nodes := samples[len(samples)-1].Nodes
			if nodes[1].State != Dead {
				t.Errorf("node 1 ended %v, want dead", nodes[1].State)
			}
			for _, id := range []int{0, 2, 3} {
				if nodes[id].State != Healthy {
					t.Errorf("node %d ended %v, want healthy", id, nodes[id].State)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFleetConfigErrors pins the constructor's validation.
func TestFleetConfigErrors(t *testing.T) {
	base := supConfig(t)

	bad := base
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Error("0 nodes accepted")
	}
	bad = base
	bad.NodeFaults = bad.NodeFaults[:2]
	if _, err := New(bad); err == nil {
		t.Error("mismatched NodeFaults length accepted")
	}
	bad = base
	pinned := *bad.Workloads[0]
	pinned.PinNode = 99
	bad.Workloads = append([]*Workload{&pinned}, bad.Workloads[1:]...)
	if _, err := New(bad); err == nil {
		t.Error("out-of-range pin accepted")
	}
	bad = base
	bad.DurationSec = 0
	if _, err := New(bad); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := FleetChaosConfig(FleetMode("bogus"), nil); err == nil {
		t.Error("unknown mode accepted")
	}
}
