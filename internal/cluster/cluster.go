// Package cluster scales the single-hypervisor model out to the fleet the
// paper's §3 threat model actually describes: N hypervisor nodes — each a
// cloud.Hypervisor with its own PMD pool, upcall subsystem, revalidator
// and telemetry registry — under one fabric-wide control plane. A tenant
// Scheduler places workloads (attackers included) across the nodes, and a
// Controller pushes ACL generations fabric-wide with staggered delivery,
// per-node retry/backoff, and generation-tagged convergence tracking.
//
// The robustness story is the point. A tick-driven heartbeat failure
// detector suspects and then declares nodes dead; node-level fault
// injection (faults.NodeCrash / NodePartition / ACLPushError plus per-node
// single-box plans) drives it; a partitioned node degrades gracefully —
// its dataplane keeps forwarding on the last-applied ACL generation and
// the fabric reports the staleness gap instead of stalling — and a dead
// node's tenants fail over to the least-loaded survivors with admission
// re-warmup, so a re-placed tenant cannot instantly flood its new node's
// slow path. Everything is tick-stepped and goroutine-free, so fleet chaos
// runs replay bit-for-bit.
package cluster

import (
	"fmt"
	"sync"

	"tse/internal/bitvec"
	"tse/internal/cloud"
	"tse/internal/dataplane"
	"tse/internal/faults"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/vswitch"
)

// Workload is one tenant the scheduler places on the fleet: a benign
// service offering load, or a co-located TSE attacker flooding its own
// address with megaflow-spawning headers.
type Workload struct {
	// Name identifies the tenant fabric-wide.
	Name string
	// IP is the workload address; the hosting hypervisor scopes the ACL
	// to it.
	IP uint32
	// ACL is the tenant's CMS-validated ingress policy.
	ACL *flowtable.Table
	// OfferedGbps is the benign offered load (0 for pure attackers).
	OfferedGbps float64
	// StartSec is the virtual second the benign flow begins.
	StartSec int
	// Attacker marks a TSE attacker: it replays bit-inversion headers
	// destined to its own IP at RatePps during
	// [AttackStartSec, AttackStopSec).
	Attacker                      bool
	RatePps                       int
	AttackStartSec, AttackStopSec int
	// PinNode pins placement to a node ID; negative lets the scheduler
	// pick the least-loaded node.
	PinNode int
}

// HealthState is the failure detector's view of a node.
type HealthState int

const (
	// Healthy: heartbeats arriving.
	Healthy HealthState = iota
	// Suspected: SuspectAfter consecutive heartbeats missed; no failover
	// yet — a short partition heals from here.
	Suspected
	// Dead: DeadAfter consecutive heartbeats missed; the node is fenced
	// and its tenants fail over. Terminal.
	Dead
)

// String names the state for tables.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspected:
		return "suspected"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// Config wires a fleet.
type Config struct {
	// Nodes is the fleet size; WorkersPerNode the PMD pool width of each
	// node (<= 0 selects 1).
	Nodes, WorkersPerNode int
	// CMS is the management-system profile every node enforces.
	CMS cloud.CMS
	// NIC selects the cost profile, with its calibrated per-core CPU
	// budget.
	NIC dataplane.NICProfile
	// Workloads are placed in order at construction.
	Workloads []*Workload
	// DurationSec is the experiment length.
	DurationSec int

	// Upcall is every node's slow-path configuration; its Faults field is
	// ignored — node i's single-box plan is NodeFaults[i].
	Upcall dataplane.UpcallParams

	// ChurnEverySec > 0 makes the controller bump the ACL generation
	// every ChurnEverySec seconds from ChurnStartSec on, alternating a
	// semantically neutral table variant — the fabric-wide policy-churn
	// load.
	ChurnStartSec, ChurnEverySec int
	// StaggerSec staggers each generation's push: node i is offered the
	// new generation at churn + i*StaggerSec, so the fleet's revalidators
	// never invalidate every cache in the same tick (<= 0 pushes all
	// nodes at once).
	StaggerSec int64
	// PushBackoffSec is the base retry backoff after a failed push; it
	// doubles per attempt up to MaxBackoffSec (defaults 2 and 8).
	// DisableRetry is the ablation: one failed push leaves the node
	// stale until the next generation.
	PushBackoffSec, MaxBackoffSec int64
	DisableRetry                  bool

	// SuspectAfter / DeadAfter are the failure detector thresholds in
	// missed heartbeats (defaults 2 and 5). DisableFailover is the
	// ablation: a dead node's tenants stay dark. RewarmStartQuota is the
	// admission quota a failed-over tenant's vport starts at, doubling
	// each tick back to Upcall.QuotaPerSource (default 4).
	SuspectAfter, DeadAfter int
	DisableFailover         bool
	RewarmStartQuota        int

	// FleetFaults carries the node-level fault kinds, queried by node ID.
	// NodeFaults optionally carries one single-box plan per node
	// (handler panics, revalidator stalls, install errors), threaded into
	// that node's own subsystem — a shared plan would wedge every node at
	// once, since the single-box kinds have no node scoping.
	FleetFaults *faults.Plan
	NodeFaults  []*faults.Plan

	// Journal receives the fleet's control-plane events (heartbeat
	// transitions, failovers, pushes, convergence, fault injections).
	// Per-node subsystems keep their events in their own registries so
	// node-local actor indices never collide in the fleet timeline.
	Journal *telemetry.Journal
}

// NodeSample is one node's per-tick observation.
type NodeSample struct {
	Alive       bool
	State       HealthState
	Partitioned bool
	// AppliedGen is the ACL generation the node serves on; StaleGens the
	// gap to the controller's target (the graceful-degradation signal).
	AppliedGen, StaleGens uint64
	// Masks and Entries snapshot this node's own MFC.
	Masks, Entries int
	// Backlog and PendingFlows are the node's upcall queue depth and
	// pending-table size at end of tick (a PendingFlows that stays
	// elevated is the leak signature).
	Backlog, PendingFlows int
	// Handled, Enqueued, QuotaDrops, QueueDrops are this tick's upcall
	// outcomes; SweepStalls this tick's injected revalidator wedges.
	Handled, Enqueued, QuotaDrops, QueueDrops, SweepStalls int
}

// FleetSample is one per-tick observation of the whole fleet.
type FleetSample struct {
	Sec       int
	TargetGen uint64
	// TenantGbps and TenantNode are aligned with Config.Workloads:
	// the workload's achieved throughput and the node serving it
	// (-1 while dark on a dead node).
	TenantGbps []float64
	TenantNode []int
	Nodes      []NodeSample
}

// placement is one workload living on one node.
type placement struct {
	idx    int // index into Config.Workloads
	w      *Workload
	port   int               // node-local ingress vport
	victim *dataplane.Victim // benign probe flow (nil for attackers)
	trace  []bitvec.Vec      // the flood (attackers)
	cursor int
	rewarm int // pending re-warmup quota; 0 = full admission
}

// Node is one hypervisor of the fleet: shared switch, the per-second
// engine over its PMD pool, upcall subsystem and revalidator, and its own
// metrics registry.
type Node struct {
	id  int
	hv  *cloud.Hypervisor
	sw  *vswitch.Switch
	eng *dataplane.Engine
	reg *telemetry.Registry

	alive bool
	// base is the pure hypervisor-compiled tenant table captured after
	// the last AddTenant; generation pushes layer the churn variant on
	// top of it, and a failover AddTenant (which resets the switch to the
	// fresh compile) re-applies the in-force variant from it.
	base         *flowtable.Table
	appliedGen   uint64
	churnApplied bool
	staleSeen    uint64 // widest staleness gap already journaled

	placements []*placement
	nextPort   int
}

// Fabric is the N-node fleet plus its control plane. All exported methods
// are safe for concurrent use; Step drives everything single-threaded
// under the fabric lock, so runs are deterministic.
type Fabric struct {
	mu      sync.Mutex
	cfg     Config
	nodes   []*Node
	health  []HealthState
	missed  []int
	deadAt  []int64
	ctrl    *controller
	journal *telemetry.Journal
	samples []FleetSample
	err     error
}

// New builds the fleet and places every workload.
func New(cfg Config) (*Fabric, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.DurationSec <= 0 {
		return nil, fmt.Errorf("cluster: need a positive duration")
	}
	if cfg.NodeFaults != nil && len(cfg.NodeFaults) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: NodeFaults has %d plans for %d nodes",
			len(cfg.NodeFaults), cfg.Nodes)
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + 3
	}
	if cfg.RewarmStartQuota <= 0 {
		cfg.RewarmStartQuota = 4
	}
	if cfg.PushBackoffSec <= 0 {
		cfg.PushBackoffSec = 2
	}
	if cfg.MaxBackoffSec <= 0 {
		cfg.MaxBackoffSec = 8
	}
	f := &Fabric{
		cfg:     cfg,
		health:  make([]HealthState, cfg.Nodes),
		missed:  make([]int, cfg.Nodes),
		deadAt:  make([]int64, cfg.Nodes),
		journal: cfg.Journal,
	}
	for i := range f.deadAt {
		f.deadAt[i] = -1
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := f.newNode(i)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	f.ctrl = &controller{f: f, push: make([]pushState, cfg.Nodes)}
	for idx, w := range cfg.Workloads {
		n, err := f.placeTarget(w)
		if err != nil {
			return nil, err
		}
		if err := n.place(w, idx, false, &cfg); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newNode assembles one hypervisor node. Every node gets vport headroom
// for the entire workload set, so failover never runs out of ports.
func (f *Fabric) newNode(id int) (*Node, error) {
	hv, err := cloud.NewHypervisor(f.cfg.CMS)
	if err != nil {
		return nil, err
	}
	up := f.cfg.Upcall
	up.Faults = nil
	if f.cfg.NodeFaults != nil {
		up.Faults = f.cfg.NodeFaults[id]
	}
	reg := telemetry.NewRegistry(1)
	sw := hv.Switch()
	eng, err := dataplane.NewEngine(dataplane.EngineConfig{
		Switch:    sw,
		NIC:       f.cfg.NIC,
		Workers:   f.cfg.WorkersPerNode,
		Ports:     len(f.cfg.Workloads) + 1,
		Upcall:    &up,
		Telemetry: &telemetry.Hub{Reg: reg},
	})
	if err != nil {
		return nil, err
	}
	return &Node{
		id: id, hv: hv, sw: sw, eng: eng, reg: reg,
		alive: true, base: sw.FlowTable(),
	}, nil
}

// placeTarget is the scheduler: the pinned node, or the least-loaded
// alive node (ties to the lowest ID, so placement is deterministic).
func (f *Fabric) placeTarget(w *Workload) (*Node, error) {
	if w.PinNode >= 0 {
		if w.PinNode >= len(f.nodes) {
			return nil, fmt.Errorf("cluster: workload %q pinned to node %d of %d",
				w.Name, w.PinNode, len(f.nodes))
		}
		n := f.nodes[w.PinNode]
		if !n.alive {
			return nil, fmt.Errorf("cluster: workload %q pinned to dead node %d", w.Name, w.PinNode)
		}
		return n, nil
	}
	var best *Node
	for _, n := range f.nodes {
		if !n.alive {
			continue
		}
		if best == nil || len(n.placements) < len(best.placements) {
			best = n
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cluster: no alive node to place %q", w.Name)
	}
	return best, nil
}

// place installs the workload as a tenant on the node. AddTenant resets
// the shared table to the fresh compile, so the node re-applies whatever
// generation variant was in force; rewarm starts the vport's admission
// quota at RewarmStartQuota instead of the full budget.
func (n *Node) place(w *Workload, idx int, rewarm bool, cfg *Config) error {
	if err := n.hv.AddTenant(&cloud.Tenant{Name: w.Name, IP: w.IP, ACL: w.ACL}); err != nil {
		return fmt.Errorf("cluster: placing %q on node %d: %w", w.Name, n.id, err)
	}
	n.base = n.sw.FlowTable()
	if n.churnApplied {
		if err := n.sw.SwapTable(churnVariant(n.base)); err != nil {
			return err
		}
	}
	l := n.sw.Layout()
	pl := &placement{idx: idx, w: w, port: n.nextPort}
	n.nextPort++
	if w.Attacker {
		pl.trace = attackTrace(l, w.IP)
	} else {
		pl.victim = &dataplane.Victim{
			Name:        w.Name,
			Header:      flowHeader(l, 0x08080800+uint32(idx), w.IP, uint64(40000+idx), 80),
			Port:        pl.port,
			OfferedGbps: w.OfferedGbps,
			StartSec:    w.StartSec,
		}
	}
	if rewarm && cfg.Upcall.QuotaPerSource > 0 {
		pl.rewarm = cfg.RewarmStartQuota
		n.eng.Upcalls().SetQuota(pl.port, pl.rewarm)
	}
	n.placements = append(n.placements, pl)
	return nil
}

// applyGen swaps the node's table to the generation's variant. The swap is
// asynchronous (vswitch.SwapTable): the node's own revalidator invalidates
// stale megaflows at its next sweep, which together with the controller's
// push stagger spreads revalidation load across the fleet.
func (n *Node) applyGen(gen uint64, churned bool) error {
	tbl := n.base
	if churned {
		tbl = churnVariant(n.base)
	}
	if err := n.sw.SwapTable(tbl); err != nil {
		return err
	}
	n.appliedGen = gen
	n.churnApplied = churned
	return nil
}

// churnVariant clones the compiled table and prepends a semantically
// neutral top-priority allow rule for an unused transport source port:
// invisible to every flow, but it changes each walk's generated megaflow,
// so the next revalidator sweep invalidates the whole cache — the
// fabric-wide policy-churn event.
func churnVariant(base *flowtable.Table) *flowtable.Table {
	l := base.Layout()
	t := flowtable.New(l)
	for _, r := range base.Rules() {
		rc := *r
		t.MustAdd(&rc)
	}
	sp, _ := l.FieldIndex("tp_src")
	key := bitvec.NewVec(l)
	key.SetField(l, sp, 55555)
	t.MustAdd(&flowtable.Rule{Name: "#churn", Priority: 1 << 20, Action: flowtable.Allow,
		Key: key, Mask: bitvec.FieldMask(l, sp)})
	return t
}

// flowHeader builds a benign 5-tuple destined to a tenant workload.
func flowHeader(l *bitvec.Layout, src, dst uint32, sp, dp uint64) bitvec.Vec {
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	set("ip_src", uint64(src))
	set("ip_dst", uint64(dst))
	set("ip_proto", 6)
	set("tp_src", sp)
	set("tp_dst", dp)
	return h
}

// attackTrace hand-builds the co-located TSE flood: bit-inversion headers
// destined to the attacker's own address, flipping one bit of ip_src,
// tp_src and tp_dst per packet (the §5.2 adversarial walk). The
// trie-guided generator (core.CoLocated) needs single-field exact-match
// allow rules and cannot chew on hypervisor-compiled multi-field tables,
// so the fleet attacker carries its own trace.
func attackTrace(l *bitvec.Layout, ip uint32) []bitvec.Vec {
	sip, _ := l.FieldIndex("ip_src")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")
	base := flowHeader(l, 0x0a000001, ip, 12345, 80)
	out := make([]bitvec.Vec, 0, 33*17*17)
	for b := 0; b <= 32; b++ {
		for s := 0; s <= 16; s++ {
			for d := 0; d <= 16; d++ {
				pkt := base.Clone()
				if b > 0 {
					pkt.FlipFieldBit(l, sip, b-1)
				}
				if s > 0 {
					pkt.FlipFieldBit(l, sp, s-1)
				}
				if d > 0 {
					pkt.FlipFieldBit(l, dp, d-1)
				}
				out = append(out, pkt)
			}
		}
	}
	return out
}

// Run steps the fabric through the configured duration.
func (f *Fabric) Run() ([]FleetSample, error) {
	for t := 0; t < f.cfg.DurationSec; t++ {
		f.Step(int64(t))
		f.mu.Lock()
		err := f.err
		f.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return f.Samples(), nil
}

// Step advances the whole fleet one virtual second: fault injections,
// crash consumption, heartbeats (with failover), the controller's churn
// and push work, then every node's dataplane tick.
func (f *Fabric) Step(now int64) FleetSample {
	f.mu.Lock()
	defer f.mu.Unlock()

	// Journal scheduled fault injections before anything fires, so the
	// fleet timeline shows cause strictly before effect.
	for _, ev := range f.cfg.FleetFaults.ScheduledAt(now) {
		f.journal.RecordNote(now, telemetry.EvFaultInjected, ev.Node, ev.Duration,
			fmt.Sprintf("%s node=%d", ev.Kind, ev.Node))
	}
	for id, p := range f.cfg.NodeFaults {
		for _, ev := range p.ScheduledAt(now) {
			f.journal.RecordNote(now, telemetry.EvFaultInjected, id, ev.Duration,
				fmt.Sprintf("%s node=%d", ev.Kind, id))
		}
	}

	// Node crashes: the dataplane dies instantly; the failure detector
	// only learns of it through missed heartbeats.
	for _, n := range f.nodes {
		if n.alive && f.cfg.FleetFaults.NodeCrashAt(n.id, now) {
			n.alive = false
		}
	}

	f.heartbeat(now)

	if f.cfg.ChurnEverySec > 0 && now >= int64(f.cfg.ChurnStartSec) &&
		(now-int64(f.cfg.ChurnStartSec))%int64(f.cfg.ChurnEverySec) == 0 {
		f.ctrl.churn(now)
	}
	f.ctrl.tick(now)

	sample := FleetSample{
		Sec:        int(now),
		TargetGen:  f.ctrl.target,
		TenantGbps: make([]float64, len(f.cfg.Workloads)),
		TenantNode: make([]int, len(f.cfg.Workloads)),
		Nodes:      make([]NodeSample, len(f.nodes)),
	}
	for i := range sample.TenantNode {
		sample.TenantNode[i] = -1
	}
	for _, n := range f.nodes {
		ns := n.step(now, f, sample.TenantGbps, sample.TenantNode)
		ns.State = f.health[n.id]
		ns.Partitioned = n.alive && f.cfg.FleetFaults.NodePartitionedAt(n.id, now)
		if n.alive {
			ns.StaleGens = f.ctrl.target - n.appliedGen
			// Graceful degradation is reported, not silent: journal each
			// widening of a node's staleness gap exactly once.
			if ns.StaleGens > n.staleSeen {
				n.staleSeen = ns.StaleGens
				f.journal.Record(now, telemetry.EvNodeStale, n.id, int64(ns.StaleGens))
			} else if ns.StaleGens == 0 {
				n.staleSeen = 0
			}
		}
		sample.Nodes[n.id] = ns
	}
	f.samples = append(f.samples, sample)
	return sample
}

// heartbeat advances the failure detector one tick. A crashed or
// partitioned node misses its heartbeat; SuspectAfter misses suspect it,
// DeadAfter misses declare it dead — at which point it is fenced (a
// partition that long is indistinguishable from a crash, and fencing
// prevents split-brain service after failover) and its tenants re-placed.
func (f *Fabric) heartbeat(now int64) {
	for _, n := range f.nodes {
		id := n.id
		if f.health[id] == Dead {
			continue
		}
		reachable := n.alive && !f.cfg.FleetFaults.NodePartitionedAt(id, now)
		if reachable {
			if f.health[id] == Suspected {
				f.journal.Record(now, telemetry.EvNodeRejoin, id, int64(f.ctrl.target-n.appliedGen))
				f.health[id] = Healthy
			}
			f.missed[id] = 0
			continue
		}
		f.missed[id]++
		switch {
		case f.missed[id] >= f.cfg.DeadAfter:
			f.health[id] = Dead
			f.deadAt[id] = now
			n.alive = false // fence
			f.journal.Record(now, telemetry.EvNodeDead, id, int64(f.missed[id]))
			if !f.cfg.DisableFailover {
				f.failover(n, now)
			}
		case f.missed[id] >= f.cfg.SuspectAfter && f.health[id] == Healthy:
			f.health[id] = Suspected
			f.journal.Record(now, telemetry.EvNodeSuspect, id, int64(f.missed[id]))
		}
	}
}

// failover re-places a dead node's tenants, in placement order, on the
// least-loaded survivors. Each re-placed vport starts with the re-warmup
// admission quota so a failed-over tenant (or attacker) cannot instantly
// claim a full slow-path budget on its new node.
func (f *Fabric) failover(dead *Node, now int64) {
	moving := dead.placements
	dead.placements = nil
	for _, pl := range moving {
		target, err := f.placeTarget(pl.w)
		if err != nil {
			f.err = err
			return
		}
		if err := target.place(pl.w, pl.idx, true, &f.cfg); err != nil {
			f.err = err
			return
		}
		f.journal.RecordNote(now, telemetry.EvTenantFailover, target.id, 0,
			fmt.Sprintf("%s from node %d", pl.w.Name, dead.id))
	}
}

// step runs one virtual second of the node's dataplane: this tick's floods
// and victims are read off the placements and handed to the engine, then
// re-placed vports' admission quotas re-warm.
func (n *Node) step(now int64, f *Fabric, tenantGbps []float64, tenantNode []int) NodeSample {
	ns := NodeSample{Alive: n.alive, AppliedGen: n.appliedGen}
	if !n.alive {
		return ns
	}
	t := int(now)
	var floods []dataplane.Flood
	var victims []*dataplane.Victim
	var served []int // victims[k] is workload served[k]
	for _, pl := range n.placements {
		tenantNode[pl.idx] = n.id
		switch w := pl.w; {
		case w.Attacker:
			if t >= w.AttackStartSec && t < w.AttackStopSec {
				floods = append(floods, dataplane.Flood{Headers: pl.trace,
					Cursor: &pl.cursor, Port: pl.port, RatePps: w.RatePps})
			}
		case w.OfferedGbps > 0:
			victims = append(victims, pl.victim)
			served = append(served, pl.idx)
		}
	}
	s, err := n.eng.Step(t, floods, victims)
	if err != nil {
		f.err = err
		return ns
	}
	for k, idx := range served {
		tenantGbps[idx] = s.VictimGbps[k]
	}

	// Admission re-warmup: each tick a re-placed vport's quota doubles
	// until it reaches the configured budget, then the override clears.
	for _, pl := range n.placements {
		if pl.rewarm <= 0 {
			continue
		}
		pl.rewarm *= 2
		if pl.rewarm >= f.cfg.Upcall.QuotaPerSource {
			pl.rewarm = 0
			n.eng.Upcalls().SetQuota(pl.port, -1)
		} else {
			n.eng.Upcalls().SetQuota(pl.port, pl.rewarm)
		}
	}

	ns.Masks, ns.Entries = s.Masks, s.Entries
	ns.Backlog = s.Upcall.Backlog
	ns.PendingFlows = s.Upcall.PendingFlows
	ns.Handled = s.Upcall.Handled
	ns.Enqueued = s.Upcall.Enqueued
	ns.QuotaDrops = s.Upcall.QuotaDrops
	ns.QueueDrops = s.Upcall.QueueDrops
	ns.SweepStalls = s.Upcall.SweepStalls
	return ns
}

// Samples returns a copy of the per-tick fleet series so far.
func (f *Fabric) Samples() []FleetSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FleetSample(nil), f.samples...)
}

// DeadAt returns the tick each node was declared dead at (-1 if alive).
func (f *Fabric) DeadAt() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int64(nil), f.deadAt...)
}

// MaxConvergeSec returns the longest churn-to-convergence duration of any
// generation that did converge, or -1 if none has yet.
func (f *Fabric) MaxConvergeSec() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.ctrl.everConverged {
		return -1
	}
	return f.ctrl.maxConvergeSec
}
