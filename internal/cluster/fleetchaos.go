package cluster

import (
	"fmt"

	"tse/internal/cloud"
	"tse/internal/dataplane"
	"tse/internal/faults"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/upcall"
)

// FleetMode selects the fleetchaos variant.
type FleetMode string

const (
	// FleetFaultFree runs the attack on a healthy fleet: the containment
	// baseline (only the attacker's own node degrades).
	FleetFaultFree FleetMode = "faultfree"
	// FleetUnsupervised is the ablation: no failover, no push retry, no
	// slow-path supervision, no pending-entry reaping. Faults land and
	// stay.
	FleetUnsupervised FleetMode = "unsupervised"
	// FleetSupervised runs the full robustness stack against the same
	// fault schedule.
	FleetSupervised FleetMode = "supervised"
)

// The fleetchaos schedule, exported so tests and the experiment fold can
// reference the instants instead of re-deriving them.
const (
	// FleetAttackStart/Stop bound the co-located TSE flood.
	FleetAttackStartSec = 5
	FleetAttackStopSec  = 35
	// FleetCrashSec is when node 1's dataplane dies; with DeadAfter=5 the
	// detector declares it dead at FleetCrashSec+4 (the crash tick counts
	// as the first missed heartbeat).
	FleetCrashSec = 23
	// FleetPartitionSec/Dur cut node 2 off from the controller — long
	// enough to be suspected, short enough to rejoin.
	FleetPartitionSec = 22
	FleetPartitionDur = 4
	// FleetPushErrSec/Dur fail ACL pushes to node 3, exercising
	// retry/backoff on a healthy link.
	FleetPushErrSec = 17
	FleetPushErrDur = 2
	// FleetDurationSec is the experiment length.
	FleetDurationSec = 45
	// FleetVictims is the number of benign tenants spread over the fleet.
	FleetVictims = 4 * 2

	// The fold's comparison windows, aligned to the 5s churn cycle so
	// every mode averages over the same churn phase: pre-fault covers one
	// full cycle before the first fault lands, the fault window covers
	// post-death attack peak up to attack stop.
	FleetPreFromSec, FleetPreToSec     = 15, 20
	FleetFaultFromSec, FleetFaultToSec = 28, FleetAttackStopSec
)

// FleetChaosConfig assembles the capstone fleet: 4 nodes, a co-located
// TSE attacker pinned to node 0, and 8 victims the scheduler spreads
// 2-per-node. At attack peak the fault plan kills node 1, partitions
// node 2, fails pushes to node 3, and (per-node plans) stalls node 3's
// revalidator and panics a handler on node 0 — every containment path at
// once. Calico is the CMS: it accepts source-port ACL rules, so the
// attacker gets the full SipSpDp tuple-space to inflate.
func FleetChaosConfig(mode FleetMode, journal *telemetry.Journal) (Config, error) {
	attACL := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	workloads := []*Workload{{
		Name:           "attacker",
		IP:             0xc0a80100,
		ACL:            attACL,
		Attacker:       true,
		RatePps:        1000,
		AttackStartSec: FleetAttackStartSec,
		AttackStopSec:  FleetAttackStopSec,
		PinNode:        0,
	}}
	for i := 0; i < FleetVictims; i++ {
		workloads = append(workloads, &Workload{
			Name:        fmt.Sprintf("victim-%d", i),
			IP:          0xc0a80010 + uint32(i),
			ACL:         flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
			OfferedGbps: 2.0,
			PinNode:     -1,
		})
	}

	cfg := Config{
		Nodes:          4,
		WorkersPerNode: 1,
		CMS:            cloud.Calico,
		NIC:            dataplane.TCPGroOff,
		Workloads:      workloads,
		DurationSec:    FleetDurationSec,

		Upcall: dataplane.UpcallParams{
			Options:       upcall.Options{QueueCap: 256, QuotaPerSource: 64, ModelledHandlers: 2},
			HandledPerSec: 32,
		},

		ChurnStartSec: 10,
		ChurnEverySec: 5,
		StaggerSec:    1,
		// Backoff 2s doubling to 8s: the 2-tick push-error window costs
		// node 3 at most a couple of retries.
		PushBackoffSec: 2,
		MaxBackoffSec:  8,

		SuspectAfter:     2,
		DeadAfter:        5,
		RewarmStartQuota: 4,

		Journal: journal,
	}

	switch mode {
	case FleetFaultFree:
		// No plans at all.
	case FleetSupervised, FleetUnsupervised:
		fleet := &faults.Plan{}
		fleet.Add(faults.Event{Kind: faults.NodeCrash, Node: 1, Tick: FleetCrashSec, Handler: -1, Source: -1})
		fleet.Add(faults.Event{Kind: faults.NodePartition, Node: 2, Tick: FleetPartitionSec,
			Duration: FleetPartitionDur, Handler: -1, Source: -1})
		fleet.Add(faults.Event{Kind: faults.ACLPushError, Node: 3, Tick: FleetPushErrSec,
			Duration: FleetPushErrDur, Handler: -1, Source: -1})
		cfg.FleetFaults = fleet

		node0 := &faults.Plan{}
		node0.Add(faults.Event{Kind: faults.HandlerPanic, Handler: 0, Source: -1, Tick: 24})
		node3 := &faults.Plan{}
		node3.Add(faults.Event{Kind: faults.RevalidatorStall, Handler: -1, Source: -1, Tick: 24, Duration: 3})
		cfg.NodeFaults = []*faults.Plan{node0, nil, nil, node3}

		if mode == FleetUnsupervised {
			cfg.DisableFailover = true
			cfg.DisableRetry = true
			cfg.Upcall.DisableSupervisor = true
			cfg.Upcall.Revalidator.PendingAgeSec = -1
		}
	default:
		return Config{}, fmt.Errorf("cluster: unknown fleet mode %q", mode)
	}
	return cfg, nil
}

// FleetChaosResult is the folded outcome of one fleetchaos run.
type FleetChaosResult struct {
	Mode    FleetMode
	Samples []FleetSample
	// DeathSec is the tick the detector declared a node dead (-1 if
	// none).
	DeathSec int64
	// PreFault and FaultWin are each victim's mean throughput over the
	// pre-fault and post-death comparison windows; Degraded marks victims
	// whose fault-window mean fell below 90% of pre-fault.
	PreFault, FaultWin []float64
	Degraded           []bool
	// BlastRadiusFrac is the fraction of fleet victims degraded through
	// the fault window — the containment headline. The attacker's own
	// node contributes its co-located victims in every mode (that is the
	// TSE attack itself); faults widen the radius beyond it.
	BlastRadiusFrac float64
	// FailoverSec is the service gap of the dead node's tenants: ticks
	// from going dark (the crash) to all of them serving >= 90% of
	// pre-fault throughput from their failover homes (-1 if they never
	// recover, e.g. with failover disabled).
	FailoverSec int64
	// ACLConvergenceSec is the slowest churn-to-fleet-convergence of any
	// generation that converged (-1 if none did).
	ACLConvergenceSec int64
}

// RunFleetChaos builds, runs and folds one fleetchaos variant.
func RunFleetChaos(mode FleetMode, journal *telemetry.Journal) (*Fabric, *FleetChaosResult, error) {
	cfg, err := FleetChaosConfig(mode, journal)
	if err != nil {
		return nil, nil, err
	}
	f, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	samples, err := f.Run()
	if err != nil {
		return nil, nil, err
	}
	res := FoldFleetChaos(mode, cfg, samples, f)
	return f, res, nil
}

// FoldFleetChaos reduces a fleetchaos sample series to the containment
// metrics.
func FoldFleetChaos(mode FleetMode, cfg Config, samples []FleetSample, f *Fabric) *FleetChaosResult {
	res := &FleetChaosResult{
		Mode:              mode,
		Samples:           samples,
		DeathSec:          -1,
		FailoverSec:       -1,
		ACLConvergenceSec: f.MaxConvergeSec(),
	}
	for _, d := range f.DeadAt() {
		if d >= 0 && (res.DeathSec < 0 || d < res.DeathSec) {
			res.DeathSec = d
		}
	}
	nw := len(cfg.Workloads)
	res.PreFault = make([]float64, nw)
	res.FaultWin = make([]float64, nw)
	res.Degraded = make([]bool, nw)
	avg := func(idx int, from, to int64) float64 {
		sum, n := 0.0, 0
		for _, s := range samples {
			if int64(s.Sec) >= from && int64(s.Sec) < to {
				sum += s.TenantGbps[idx]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	victims, degraded := 0, 0
	for i, w := range cfg.Workloads {
		if w.Attacker {
			continue
		}
		victims++
		res.PreFault[i] = avg(i, FleetPreFromSec, FleetPreToSec)
		res.FaultWin[i] = avg(i, FleetFaultFromSec, FleetFaultToSec)
		if res.FaultWin[i] < 0.9*res.PreFault[i] {
			res.Degraded[i] = true
			degraded++
		}
	}
	if victims > 0 {
		res.BlastRadiusFrac = float64(degraded) / float64(victims)
	}

	// Failover service gap. "Moved" tenants are those whose final home
	// differs from their original placement (a dead node's tenants report
	// node -1 from the crash tick, so compare against t=0, not against
	// the tick before death). The gap runs from the first dark tick to
	// the first tick every moved tenant serves >= 90% of pre-fault
	// throughput again.
	if res.DeathSec >= 0 && len(samples) > 0 {
		home := samples[0].TenantNode
		final := samples[len(samples)-1].TenantNode
		var moved []int
		for i, w := range cfg.Workloads {
			if w.Attacker {
				continue
			}
			if final[i] >= 0 && final[i] != home[i] {
				moved = append(moved, i)
			}
		}
		if len(moved) > 0 {
			darkFrom := res.DeathSec
			for _, s := range samples {
				if s.TenantNode[moved[0]] < 0 {
					darkFrom = int64(s.Sec)
					break
				}
			}
			for _, s := range samples {
				if int64(s.Sec) < res.DeathSec {
					continue
				}
				ok := true
				for _, i := range moved {
					if s.TenantGbps[i] < 0.9*res.PreFault[i] {
						ok = false
						break
					}
				}
				if ok {
					res.FailoverSec = int64(s.Sec) - darkFrom
					break
				}
			}
		}
	}
	return res
}
