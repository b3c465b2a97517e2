package dataplane

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// This file wires the three Fig. 8 experiments exactly as §5.4–§5.6
// describe them, so the tests and the tsebench harness share one
// definition.

// victimHeader builds the benign flow's classifier key: a TCP connection
// to the allowed destination port (matching rule #1 of the tenant ACL).
func victimHeader(srcIP uint32, srcPort, dstPort uint16) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	proto, _ := l.FieldIndex("ip_proto")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")
	h.SetField(l, sip, uint64(srcIP))
	h.SetField(l, dip, 0xc0a80002) // 192.168.0.2: the victim service
	h.SetField(l, proto, 6)
	h.SetField(l, sp, uint64(srcPort))
	h.SetField(l, dp, uint64(dstPort))
	return h
}

// Fig8aScenario reproduces the synthetic-testbed run of Fig. 8a: three
// concurrent TCP victim flows on a 10 Gbps link (aggregating ~9.7 Gbps),
// a SipDp co-located attack at 100 pps active during [t1, t2) = [30, 60),
// and the 10 s recovery delay after t2 caused by the MFC idle timeout.
func Fig8aScenario() (*Scenario, error) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 1})
	if err != nil {
		return nil, err
	}
	victims := make([]*Victim, 3)
	for i := range victims {
		victims[i] = &Victim{
			Name:        fmt.Sprintf("Victim %d", i+1),
			Header:      victimHeader(0x0a000010+uint32(i), uint16(40000+i), 80),
			OfferedGbps: 9.7 / 3,
		}
	}
	return &Scenario{
		Name:        "Fig8a-synthetic-SipDp",
		Switch:      sw,
		NIC:         TCPGroOff,
		Victims:     victims,
		Phases:      []AttackPhase{{Trace: trace, RatePps: 100, StartSec: 30, StopSec: 60}},
		DurationSec: 90,
	}, nil
}

// Fig8bScenario reproduces the OpenStack run of Fig. 8b: the CMS API only
// permits the SipDp scenario (§5.5, §7); the attacker sends at 100 pps
// from t = 0, stops at t = 60, restarts at t = 90; the victim joins with a
// full-rate UDP iperf at t = 30. The victim's EstablishedProtection
// reproduces the paper's (unexplained) observation that the re-activated
// attack barely harms long-lasting flows.
func Fig8bScenario() (*Scenario, error) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 2})
	if err != nil {
		return nil, err
	}
	victim := &Victim{
		Name:                  "Victim",
		Header:                victimHeader(0x0a000020, 41000, 80),
		OfferedGbps:           1.3, // Fig. 8b's y-axis tops out at ~1.3 Gbps (UDP iperf)
		StartSec:              30,
		EstablishedProtection: 0.9,
		EstablishedAfterSec:   15,
	}
	return &Scenario{
		Name:   "Fig8b-openstack-SipDp",
		Switch: sw,
		NIC:    UDPProfile,
		// The OpenStack testbed is two laptop-class i5-6300U boxes with
		// 2 GB RAM (Table 1), far weaker than the synthetic Xeon server.
		BudgetOverride: referenceBudget() / 3,
		Victims:        []*Victim{victim},
		Phases: []AttackPhase{
			{Trace: trace, RatePps: 100, StartSec: 0, StopSec: 60},
			{Trace: trace, RatePps: 100, StartSec: 90, StopSec: 120},
		},
		DurationSec: 120,
	}, nil
}

// Fig8cScenario reproduces the Kubernetes run of Fig. 8c: a 1 Gbps virtio
// link on a weak 2-core vagrant box. The victim starts immediately and
// reaches line rate; the attacker starts sending at t1 = 30 at 1000 pps
// against the *benign* ACL (minor glitch), injects the full Fig. 6 ACL at
// t2 = 60 (SipSpDp becomes possible; the victim drops ~80 %), and raises
// the rate to 2000 pps at t4 = 120, at which point attack traffic alone
// exhausts the CPU budget: full denial of service.
func Fig8cScenario() (*Scenario, error) {
	// Before t2 the switch runs the benign Baseline ACL.
	benign := flowtable.UseCaseACL(flowtable.Baseline, flowtable.ACLParams{})
	malicious := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	// The victim's megaflow is installed first; the kernel datapath scans
	// masks in insertion order, so the long-running victim keeps a cheap
	// scan position and the damage comes from CPU exhaustion (in contrast
	// to the mask-position damage of Fig. 8a).
	sw, err := vswitch.New(vswitch.Config{Table: benign, Order: tss.OrderInsertion, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(malicious, core.CoLocatedOptions{Noise: true, Seed: 3})
	if err != nil {
		return nil, err
	}
	victim := &Victim{
		Name:        "Victim",
		Header:      victimHeader(0x0a000030, 42000, 80),
		OfferedGbps: 1.0,
	}
	// A 2-core vagrant box: a fraction of the synthetic server's budget.
	budget := referenceBudget() / 2
	return &Scenario{
		Name:           "Fig8c-kubernetes-SipSpDp",
		Switch:         sw,
		NIC:            lineLimited(UDPProfile, 1.0),
		BudgetOverride: budget,
		Victims:        []*Victim{victim},
		Phases: []AttackPhase{
			{Trace: trace, RatePps: 1000, StartSec: 30, StopSec: 120, InjectACL: nil},
			// The ACL injection at t2 = 60 is modelled as a zero-rate
			// phase carrying only the table swap.
			{Trace: trace, RatePps: 0, StartSec: 60, StopSec: 61, InjectACL: malicious},
			{Trace: trace, RatePps: 2000, StartSec: 120, StopSec: 150},
		},
		DurationSec: 150,
	}, nil
}

// lineLimited returns a copy of the profile with a different line rate
// (virtio links in the Kubernetes testbed support 1 Gbps, §5.6).
func lineLimited(p NICProfile, gbps float64) NICProfile {
	p.LineRateGbps = gbps
	return p
}

// MulticoreScenario builds the synthetic SipDp attack over a PMD-style
// multi-worker datapath: four TCP victims sharing a 10 Gbps link, a
// high-rate co-located attack during [30, 90), and one CPU budget per
// worker (adding cores adds capacity, as adding PMD threads does in OVS).
//
// The scenario exists to show what scaling out does — and does not — buy
// against TSE. The attack's slow-path CPU load shards across the cores by
// RSS, so extra cores absorb the brute-force component; the mask count is
// global state of the shared megaflow cache, so the linear scan tax on
// every victim lookup is identical at any core count. Compare workers 1,
// 4, and 8 (the `multicore` experiment does) to see throughput recover
// only up to the probe-cost plateau.
func MulticoreScenario(workers int) (*Scenario, error) {
	if workers < 1 {
		return nil, fmt.Errorf("dataplane: multicore scenario needs >= 1 worker, got %d", workers)
	}
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 7})
	if err != nil {
		return nil, err
	}
	victims := make([]*Victim, 4)
	for i := range victims {
		victims[i] = &Victim{
			Name:        fmt.Sprintf("Victim %d", i+1),
			Header:      victimHeader(0x0a000040+uint32(i), uint16(43000+17*i), 80),
			OfferedGbps: 9.7 / 4,
		}
	}
	return &Scenario{
		Name:        fmt.Sprintf("Multicore-SipDp-%dw", workers),
		Switch:      sw,
		NIC:         TCPGroOff,
		Victims:     victims,
		Phases:      []AttackPhase{{Trace: trace, RatePps: 2000, StartSec: 30, StopSec: 90}},
		DurationSec: 120,
		Workers:     workers,
	}, nil
}

// SaturationScenario builds the slow-path saturation experiment over the
// asynchronous upcall subsystem: the full Fig. 6 SipSpDp ACL (the paper's
// worst case, ~8k attainable masks), two TCP victims, and a 1000 pps
// co-located attack — every packet of which is a flow miss, so the whole
// attack lands on the upcall path.
//
// bounded=false removes every bound: the handlers install each attack
// megaflow, the mask count runs away, and the victims collapse — the
// paper's overload regime, asynchronously reproduced. bounded=true turns
// on the defenses this subsystem exists for: bounded per-worker queues, a
// per-source admission quota, and a finite handler service rate. Queue and
// quota drops plus flow-miss deduplication then measurably cap MFC mask
// growth (the async counterpart of MFCGuard's m_th knob) while the
// round-robin drain keeps the victims' own upcalls served.
func SaturationScenario(workers int, bounded bool) (*Scenario, error) {
	if workers < 1 {
		return nil, fmt.Errorf("dataplane: saturation scenario needs >= 1 worker, got %d", workers)
	}
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 11})
	if err != nil {
		return nil, err
	}
	victims := make([]*Victim, 2)
	for i := range victims {
		victims[i] = &Victim{
			Name:        fmt.Sprintf("Victim %d", i+1),
			Header:      victimHeader(0x0a000050+uint32(i), uint16(44000+13*i), 80),
			OfferedGbps: 9.7 / 2,
		}
	}
	up := &UpcallParams{}
	name := "Saturation-SipSpDp-unbounded"
	if bounded {
		// Tuned so every defense layer is visible in the series: the
		// per-port quota admits more than the handlers serve (backlog
		// grows and the handler budget saturates), the backlog hits the
		// queue bound (queue drops), and the quota refuses the bulk of
		// the flood.
		up.QueueCap = 128
		up.QuotaPerSource = 64
		up.HandledPerSec = 32
		// The handler budget is in the name, so a retuned budget cannot
		// pass for the same configuration.
		name = "Saturation-SipSpDp-bounded-h32"
	}
	return &Scenario{
		Name:        fmt.Sprintf("%s-%dw", name, workers),
		Switch:      sw,
		NIC:         TCPGroOff,
		Victims:     victims,
		Phases:      []AttackPhase{{Trace: trace, RatePps: 1000, StartSec: 5, StopSec: 35}},
		DurationSec: 45,
		Workers:     workers,
		Upcall:      up,
	}, nil
}

// PortFairnessMode selects how PortFairnessScenario keys and sizes the
// upcall admission quotas.
type PortFairnessMode string

const (
	// FairnessWorkerKeyed is the legacy ablation: quotas keyed on the PMD
	// worker — here, every flow on one vport of the one worker — so the
	// victims share the flooding port's bucket.
	FairnessWorkerKeyed PortFairnessMode = "workerkeyed"
	// FairnessPortKeyed keys a static quota on the ingress vport.
	FairnessPortKeyed PortFairnessMode = "portkeyed"
	// FairnessAdaptive is port-keyed with the revalidator feedback loop
	// shrinking the flooding port's quota — the de-flapped two-input
	// controller (EWMA-smoothed megaflow pressure + backlog residence,
	// hysteresis bands around the quota in force).
	FairnessAdaptive PortFairnessMode = "adaptive"
	// FairnessAdaptiveRaw is the controller ablation: the original raw
	// single-input map (QuotaFor applied verbatim every sweep), which
	// visibly flaps ±1 quota steps on a noisy plateau and bounces to
	// BaseQuota after churn events.
	FairnessAdaptiveRaw PortFairnessMode = "adaptiveraw"
)

// churnACL returns the SipSpDp ACL with a top-priority allow rule for an
// unused transport source port prepended. Swapping between this table and
// the plain one is semantically invisible to every flow in the scenario
// (nothing sends from port 55555) but changes the megaflow every walk
// generates — rule #0 unwildcards tp_src at the top of each walk — so the
// revalidator invalidates the whole cache at the next sweep: the OpenFlow
// policy-churn event that forces every flow, victims included, to
// re-establish through the slow path while the flood rages.
func churnACL() *flowtable.Table {
	l := bitvec.IPv4Tuple
	t := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sp, _ := l.FieldIndex("tp_src")
	key := bitvec.NewVec(l)
	key.SetField(l, sp, 55555)
	t.MustAdd(&flowtable.Rule{Name: "#0", Priority: 50, Action: flowtable.Allow,
		Key: key, Mask: bitvec.FieldMask(l, sp)})
	return t
}

// PortFairnessScenario builds the per-port fairness experiment: one PMD
// worker shared by three vports — the attacker on vport 0 replaying a
// SipSpDp tuple-space-exploding flood, an established victim on vport 1,
// and a late victim on vport 2 that joins mid-flood. The victims' probes
// land mid-second, after half the flood, as they would in any real
// interleaving.
//
// Because the megaflow generator tiles the tuple space exactly, a warm
// cache shields even mid-flood joiners within a second or two; what keeps
// flow setup racing the flood in practice is cache *churn*. The scenario
// models it the Fig. 8c way: the tenant's ACL is updated mid-attack
// (every 5 s, alternating a semantically neutral variant), each update
// invalidating the cache at the next revalidator sweep, so every flow
// must win upcall admission again while the flood floods.
//
// The three modes isolate what each fairness layer buys. Worker-keyed
// (the pre-vport shape, modelled by collapsing the victims onto the
// flood's vport): all three flows share one admission bucket, and after
// every churn event the flood drains it before the victims' setup
// packets arrive — the victims are refused at admission and move nothing
// until the flood's own megaflows re-cover them (the order-dependence
// called out in ROADMAP). Port-keyed: each victim owns its bucket, so
// re-establishment is admitted the moment it is attempted. Adaptive: the
// revalidator additionally notices the flooding port's exploding megaflow
// footprint and throttles *that port's* quota toward the floor, capping
// mask growth — and with it every victim lookup's scan cost — while the
// victims keep their full budgets.
func PortFairnessScenario(mode PortFairnessMode) (*Scenario, error) {
	plain := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	churned := churnACL()
	sw, err := vswitch.New(vswitch.Config{Table: plain, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	trace, err := core.CoLocated(plain, core.CoLocatedOptions{Noise: true, Seed: 17})
	if err != nil {
		return nil, err
	}
	victims := []*Victim{
		{
			Name:        "Victim (established)",
			Header:      victimHeader(0x0a000060, 46000, 80),
			OfferedGbps: 9.7 / 2,
			Port:        1,
		},
		{
			Name:        "Victim (mid-attack)",
			Header:      victimHeader(0x0a000061, 46017, 80),
			OfferedGbps: 9.7 / 2,
			StartSec:    15, // joins while the flood is raging
			Port:        2,
		},
	}
	phases := []AttackPhase{
		{Trace: trace, RatePps: 1000, StartSec: 5, StopSec: 35, Port: 0},
	}
	// Policy churn at 12, 17, ..., 32: zero-rate phases carrying only the
	// table swap, alternating the neutral variant and the original.
	for i, t := 0, 12; t < 35; i, t = i+1, t+5 {
		tbl := churned
		if i%2 == 1 {
			tbl = plain
		}
		phases = append(phases, AttackPhase{StartSec: t, StopSec: t + 1, InjectACL: tbl})
	}
	up := &UpcallParams{
		Options:       upcall.Options{QueueCap: 256, QuotaPerSource: 64},
		HandledPerSec: 64,
	}
	switch mode {
	case FairnessWorkerKeyed:
		// Everything on the flood's vport: one port on one worker is one
		// admission source, the pre-vport worker-keyed bucket.
		for _, v := range victims {
			v.Port = 0
		}
	case FairnessPortKeyed:
	case FairnessAdaptive:
		// The de-flapped controller: both signals smoothed at the default
		// alpha, the default ±50% hold band, and the residence input armed
		// at 2 virtual seconds — with HandledPerSec 64 shared round-robin,
		// a port whose upcalls wait >2 s has a standing backlog no victim
		// ever builds.
		up.Revalidator.Adapt = &upcall.AdaptiveQuota{
			BaseQuota: 64, MinQuota: 4, TargetFootprint: 64,
			TargetResidenceSec: 2,
			EWMAAlpha:          upcall.DefaultEWMAAlpha,
			HysteresisPct:      upcall.DefaultHysteresisPct,
		}
	case FairnessAdaptiveRaw:
		up.Revalidator.Adapt = &upcall.AdaptiveQuota{BaseQuota: 64, MinQuota: 4, TargetFootprint: 64}
	default:
		return nil, fmt.Errorf("dataplane: unknown port-fairness mode %q", mode)
	}
	return &Scenario{
		Name:        fmt.Sprintf("PortFairness-SipSpDp-%s", mode),
		Switch:      sw,
		NIC:         TCPGroOff,
		Victims:     victims,
		Phases:      phases,
		DurationSec: 45,
		Workers:     1,
		Upcall:      up,
	}, nil
}
