package dataplane

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/vswitch"
)

// This file implements the time-stepped attack simulator that regenerates
// the Fig. 8 time series: victims offering load, an attacker replaying an
// adversarial trace at a configured rate, the real switch in the middle,
// and the cost model arbitrating the per-second CPU budget.

// Victim is one benign flow (an iperf session in the paper's testbeds).
type Victim struct {
	// Name labels the series ("Victim 1").
	Name string
	// Header is the flow's representative classifier key; all its packets
	// share it (single transport connection).
	Header bitvec.Vec
	// Port is the ingress vport the flow arrives on. Once any victim or
	// phase names a port, flows are pinned to workers by port (rxq-to-PMD
	// assignment) instead of by RSS hash, and asynchronous runs key upcall
	// queues and admission quotas on it (a victim on its own vport never
	// shares a bucket with the flood).
	Port int
	// OfferedGbps is the offered load (iperf full rate).
	OfferedGbps float64
	// StartSec is the virtual second the flow begins.
	StartSec int
	// EstablishedProtection, if > 0, is the fraction of an established
	// flow's packets that bypass the megaflow scan. This phenomenological
	// knob reproduces the Fig. 8b anomaly the paper observed on OpenStack
	// ("the attack is effective only against newly established target
	// flows but causes minor harm to long-lasting flows"; the OVS authors
	// could not explain it, §5.5). Zero for mechanistic scenarios.
	EstablishedProtection float64
	// EstablishedAfterSec is how many consecutive seconds at >= 50 % of
	// the offered rate make the flow "established".
	EstablishedAfterSec int

	streak      int
	established bool
}

// AttackPhase is one attacker activity interval.
type AttackPhase struct {
	// Trace is replayed cyclically (keeping the spawned megaflows warm).
	Trace *core.Trace
	// Port is the ingress vport the attack arrives on (see Victim.Port).
	Port int
	// RatePps is the attack packet rate.
	RatePps int
	// StartSec (inclusive) and StopSec (exclusive) bound the phase.
	StartSec, StopSec int
	// InjectACL, if non-nil, replaces the switch's ACL when the phase
	// starts — the Fig. 8c Kubernetes move where the attacker installs
	// the malicious ACL mid-experiment (t2). The switch is rebuilt with
	// the same configuration but the new table.
	InjectACL *flowtable.Table
}

// Scenario wires a complete experiment.
type Scenario struct {
	// Name labels the experiment.
	Name string
	// Switch is the device under test.
	Switch *vswitch.Switch
	// NIC selects the cost profile.
	NIC NICProfile
	// BudgetOverride, if > 0, replaces the calibrated CPU budget
	// (the Fig. 8c Kubernetes testbed is a 2-core vagrant box, far weaker
	// than the synthetic server).
	BudgetOverride float64
	// Victims are the benign flows.
	Victims []*Victim
	// Phases are the attacker activity intervals.
	Phases []AttackPhase
	// DurationSec is the experiment length.
	DurationSec int
	// Workers selects the number of PMD-style datapath workers sharing the
	// switch; <= 0 selects 1. Packets are sharded RSS-style (see
	// internal/datapath) and the scenario budget is a *per-core* budget —
	// adding cores adds capacity, as adding PMD threads does in OVS. The
	// megaflow cache stays shared, so the attack's mask count taxes every
	// core's lookups.
	Workers int
	// Upcall, when non-nil, switches the run to the asynchronous slow
	// path: misses enqueue into bounded per-vport upcall queues drained
	// by a modelled handler service rate, with a revalidator loop
	// replacing inline idle expiry. See upcall.go.
	Upcall *UpcallParams
	// Telemetry, when non-nil, threads the hub's registry, journal and
	// tracer through the run: the switch, classifier, PMD pool, upcall
	// subsystem and revalidator attach their metric families,
	// control-plane events (ACL swaps, fault injections, breaker
	// transitions, quota retunes, sweeps) land in the journal, and sampled
	// upcalls get trace spans. Any hub field may be nil.
	Telemetry *telemetry.Hub
}

// Sample is one per-second observation.
type Sample struct {
	// Sec is the virtual time.
	Sec int
	// VictimGbps has one throughput per scenario victim (zero before its
	// start).
	VictimGbps []float64
	// TotalVictimGbps sums VictimGbps (the "Victim SUM" series of
	// Fig. 8a).
	TotalVictimGbps float64
	// AttackPps is the attack rate in effect.
	AttackPps int
	// Masks and Entries snapshot the MFC (the megaflow count axis of
	// Fig. 8c).
	Masks, Entries int
	// AttackCost is the CPU share consumed by attack traffic, and Budget
	// the total, letting callers derive slow-path load. Budget is the
	// aggregate across workers.
	AttackCost, Budget float64
	// WorkerAttackCost is the attack CPU cost absorbed by each worker and
	// WorkerVictimGbps the victim throughput served by each worker.
	WorkerAttackCost []float64
	WorkerVictimGbps []float64
	// Upcall carries the per-second queue/handler/revalidator series of
	// asynchronous-slow-path runs; nil otherwise.
	Upcall *UpcallSample
}

// portCount returns the number of ingress vports the scenario's traffic
// mix names (1 + the highest port in use).
func (sc *Scenario) portCount() int {
	n := 1
	for _, v := range sc.Victims {
		if v.Port+1 > n {
			n = v.Port + 1
		}
	}
	for i := range sc.Phases {
		if sc.Phases[i].Port+1 > n {
			n = sc.Phases[i].Port + 1
		}
	}
	return n
}

// Run executes the scenario and returns one sample per second. Every
// scenario shape steps the same Engine; what differs is read off the
// scenario — Workers sizes the pool, Upcall selects the asynchronous slow
// path, and naming any ingress port switches dispatch from RSS to
// port-pinned.
func (sc *Scenario) Run() ([]Sample, error) {
	eng, err := sc.engine()
	if err != nil {
		return nil, err
	}
	return sc.drive(eng)
}

// engine builds the engine Run drives.
func (sc *Scenario) engine() (*Engine, error) {
	if sc.Switch == nil {
		return nil, fmt.Errorf("dataplane: scenario %q has no switch", sc.Name)
	}
	// A scenario that never names an ingress port (all traffic on vport 0)
	// keeps the port-oblivious shape, so multi-worker runs spread across
	// the cores by RSS.
	ports := sc.portCount()
	if ports == 1 {
		ports = 0
	}
	return NewEngine(EngineConfig{
		Switch:        sc.Switch,
		NIC:           sc.NIC,
		PerCoreBudget: sc.BudgetOverride,
		Workers:       sc.Workers,
		Ports:         ports,
		Upcall:        sc.Upcall,
		Telemetry:     sc.Telemetry,
	})
}

// drive steps eng through the scenario's seconds.
func (sc *Scenario) drive(eng *Engine) ([]Sample, error) {
	// Every phase's port is checked before the first tick, not at the tick
	// the phase starts.
	floods := make([]Flood, len(sc.Phases))
	for i := range sc.Phases {
		floods[i].Port = sc.Phases[i].Port
	}
	if err := eng.checkPorts(floods, sc.Victims); err != nil {
		return nil, err
	}
	cursor := make([]int, len(sc.Phases)) // per-phase trace replay position
	samples := make([]Sample, 0, sc.DurationSec)
	for t := 0; t < sc.DurationSec; t++ {
		if sc.Upcall != nil && sc.Telemetry != nil {
			sc.Upcall.journalFaults(sc.Telemetry.Journal, int64(t))
		}
		floods = floods[:0]
		for i := range sc.Phases {
			ph := &sc.Phases[i]
			if t < ph.StartSec || t >= ph.StopSec {
				continue
			}
			f := Flood{Cursor: &cursor[i], Port: ph.Port, RatePps: ph.RatePps}
			if ph.Trace != nil {
				f.Headers = ph.Trace.Headers
			}
			if t == ph.StartSec {
				f.InjectACL = ph.InjectACL
			}
			floods = append(floods, f)
		}
		sample, err := eng.Step(t, floods, sc.Victims)
		if err != nil {
			return nil, err
		}
		samples = append(samples, sample)
	}
	return samples, nil
}

// victimCost prices one victim packet from its probe verdict, including
// the Fig. 8b established-flow protection blend.
func victimCost(v *Victim, verdict vswitch.Verdict, nic NICProfile) float64 {
	probes := float64(verdict.Probes)
	cost := (nic.BaseCost + nic.ProbeCost*probes) / nic.Coalesce
	if verdict.Path == vswitch.PathSlow {
		cost += nic.SlowPathCost / nic.Coalesce
	}
	if v.established && v.EstablishedProtection > 0 {
		cost = v.EstablishedProtection*nic.MicroflowCost +
			(1-v.EstablishedProtection)*cost
	}
	return cost
}

// trackEstablishment updates the flow's Fig. 8b establishment state from
// one second's achieved throughput.
func (v *Victim) trackEstablishment(t int, gbps float64) {
	if t < v.StartSec || v.OfferedGbps <= 0 {
		return
	}
	if gbps >= 0.5*v.OfferedGbps {
		v.streak++
	} else {
		v.streak = 0
	}
	if v.EstablishedAfterSec > 0 && v.streak >= v.EstablishedAfterSec {
		v.established = true
	}
}

// verdictCost prices one attack packet by the cache layer that decided it.
// The engine's pool runs without an EMC, so no verdict is a microflow hit.
func verdictCost(v vswitch.Verdict, nic NICProfile) float64 {
	switch v.Path {
	case vswitch.PathMegaflow:
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes)
	case vswitch.PathSlow:
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes) + nic.SlowPathCost
	case vswitch.PathUpcallPending, vswitch.PathUpcallDrop:
		// The datapath paid the full-scan miss; the slow-path
		// classification either runs later on the handler budget
		// (pending) or never (drop), so neither is charged to the core.
		return nic.BaseCost + nic.ProbeCost*float64(v.Probes)
	}
	return 0
}

// waterfill allocates CPU budget and line rate across victims: victim i,
// served by worker workerOf[i], wants offered[i] pps at costs[i] units per
// packet. Each worker's victims are scaled down proportionally to what its
// per-core budget has left after the flood, then everyone to the shared
// line rate (iperf TCP flows share the bottleneck roughly equally,
// Fig. 8a).
func waterfill(nw int, workerOf []int, offered, costs, workerAttack []float64, perCore, linePps float64) []float64 {
	pps := append([]float64(nil), offered...)
	for w := 0; w < nw; w++ {
		cost := 0.0
		for i := range pps {
			if workerOf[i] == w {
				cost += offered[i] * costs[i]
			}
		}
		remaining := max(perCore-workerAttack[w], 0)
		if cost <= remaining {
			continue
		}
		scale := remaining / cost
		for i := range pps {
			if workerOf[i] == w {
				pps[i] *= scale
			}
		}
	}
	total := 0.0
	for _, x := range pps {
		total += x
	}
	if total > linePps {
		scale := linePps / total
		for i := range pps {
			pps[i] *= scale
		}
	}
	return pps
}
