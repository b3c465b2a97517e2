// Package datapath implements a PMD-style multi-worker datapath over the
// simulated switch, mirroring the architecture of OVS's userspace datapath
// (dpif-netdev) that the paper's testbeds run on (§2.2):
//
//   - N poll-mode-driver (PMD) workers, one per simulated core, each
//     owning a private exact-match cache (EMC) — the exact-match layer
//     exists once per PMD thread in OVS, and the switch has none.
//   - RSS-style dispatch: the NIC hashes each packet's flow key and steers
//     it to a fixed worker, so one flow's packets always hit the same EMC.
//   - Steering without a copy: as a PMD polls its own rx queues, a worker
//     reads its packets where the caller left them. A dispatch whose
//     packets all map to one worker (every dispatch of a one-worker pool)
//     is that worker's input as it stands; otherwise each worker is handed
//     the indices of its packets and gathers one burst at a time.
//   - Batch processing: each worker drains its share of a dispatch in
//     bursts of DefaultBatchSize packets (OVS's NETDEV_MAX_BURST of 32),
//     EMC prepass first, then the shared megaflow classifier via the
//     batched switch path.
//   - Probabilistic EMC insertion: a verdict the EMC missed is inserted
//     for one miss in 100 (OVS's emc-insert-inv-prob default; the policy
//     of a microflow.New cache), so a miss stream that cannot hit the EMC
//     — the normal state of §2.2's "often exhausted" cache, and TSE's
//     noise-padded traces — no longer pays an insert and an eviction per
//     packet.
//   - An EMC that steps aside when it cannot hit: a worker whose EMC is
//     full and hit fewer than 1 in emcHitShareInv (32) of its last
//     emcWindow (64) probed packets skips the EMC lookup for the next
//     emcAsideBursts (30) bursts, then probes again. It still syncs the
//     EMC's generation and offers it every decided verdict on every
//     burst, so the cache keeps learning the working set and never serves
//     a stale one. The packets sent past it count as EMCBypassed, never
//     as EMC misses. OVS leaves this to the operator (emc-insert-inv-prob
//     0 disables the EMC, judged from pmd-perf-show's hit counts); here it
//     is a fixed rule, not a Config field.
//
// The megaflow cache and slow path stay shared across workers (as in OVS,
// where dpcls subtables are per-port but the TSE attack's mask explosion
// hits every PMD scanning them). That sharing is what makes the attack
// multi-core relevant: |M| is global state, so an attacker inflating it
// from one receive queue taxes every core's lookups, while the per-core
// CPU budgets bound how much slow-path work each core can absorb.
package datapath

import (
	"fmt"
	"sync"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/microflow"
	"tse/internal/telemetry"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// DefaultBatchSize is the per-worker burst size, OVS's NETDEV_MAX_BURST.
const DefaultBatchSize = 32

// The EMC step-aside rule (worker.probeEMC). A probe of a full, thrashed
// EMC costs its lookup (~30 ns a packet on emc_overflow) and saves a
// megaflow lookup (~90 ns there, over 65 masks) only for the packets that
// hit, so it breaks even near a hit share of 1 in 3. The gate steps aside
// only far below that, under 1 in emcHitShareInv, where the cache holds
// almost none of the working set; a mix it partly serves keeps its probe.
// It also asks for a full EMC, so a cold or filling cache is always
// probed: a working set that fits the EMC never loses it.
const (
	// emcWindow is how many probed packets the hit share is judged over.
	emcWindow = 64
	// emcHitShareInv: a full EMC hitting fewer than 1 in emcHitShareInv
	// of a window's packets is stepped aside from.
	emcHitShareInv = 32
	// emcAsideBursts is how many bursts skip the EMC lookup before the
	// worker probes it again, to notice a working set that shrank.
	emcAsideBursts = 30
)

// Config assembles a worker pool.
type Config struct {
	// Switch is the shared device: megaflow cache plus slow path. The
	// exact-match layer belongs to the workers, one private cache per PMD
	// (§2.2).
	Switch *vswitch.Switch
	// Workers is the number of PMD workers; <= 0 selects 1.
	Workers int
	// DisableEMC removes the per-worker exact-match layer, which otherwise
	// holds microflow.DefaultCapacity entries ("a couple of hundred
	// entries", §2.2) per worker. The dataplane simulator uses this: its
	// per-second victim probes would otherwise always hit the EMC and
	// never observe the megaflow scan cost.
	DisableEMC bool
	// Upcall enables the asynchronous slow path: a full-scan megaflow
	// miss is submitted to the per-port upcall queues (source = ingress
	// vport) instead of classified inline in the worker. Each admitted
	// upcall is drained synchronously through the upcall machinery
	// (ProcessBatchDeferredPorts leaves it queued instead), the
	// deterministic drive mode that is verdict-for-verdict equivalent to
	// the inline pipeline when queues are unbounded and no quota is set.
	// nil keeps the inline slow path.
	Upcall *upcall.Options
	// Ports is the number of ingress vports feeding the pool; <= 0
	// selects Workers (one vport per worker, the legacy shape, which
	// keeps port-oblivious dispatch exactly as before). Vports are pinned
	// to workers round-robin — port p's packets always run on worker
	// p % Workers, OVS's rxq-to-PMD assignment — and the upcall
	// subsystem's queues and admission quotas are keyed by port, the
	// granularity OVS rate-limits at. Callers name each packet's ingress
	// port via the ProcessBatch*Ports entry points; a nil ports slice
	// derives a port from the RSS hash.
	Ports int
	// Metrics, when non-nil, registers the pool's tse_pmd_* counter
	// families. Each worker flushes one burst's deltas into its own
	// registry shard at burst end — a handful of padded atomic adds per
	// 32-packet burst, nothing per packet.
	Metrics *telemetry.Registry
}

// WorkerStats aggregates one worker's activity.
type WorkerStats struct {
	// Packets is the number of packets dispatched to the worker.
	Packets uint64
	// EMCHits, MegaflowHits, SlowPath partition Packets by deciding
	// layer. In async mode a packet resolved through an upcall counts as
	// SlowPath; packets left pending by ProcessBatchDeferredPorts or refused at
	// upcall admission are in neither bucket (see Upcalls/UpcallDrops).
	EMCHits, MegaflowHits, SlowPath uint64
	// EMCBypassed counts the packets sent past the EMC, unprobed, while
	// the worker stepped aside from it (probeEMC); they are not in
	// EMC.Misses, so a worker with an EMC has EMC.Hits + EMC.Misses +
	// EMCBypassed = Packets.
	EMCBypassed uint64
	// Dropped and Allowed partition decided packets by verdict; a packet
	// whose upcall was refused counts as Dropped (it never reached the
	// slow path), and a deferred still-pending packet counts as neither.
	Dropped, Allowed uint64
	// Probes is the total number of megaflow mask probes the worker spent
	// — the per-core share of the linear scan cost the attack inflates.
	Probes uint64
	// StageSkips is the number of those probes the classifier's staged
	// lookup rejected on first-stage words alone (tss.Stats.StageSkips,
	// read from the worker's private classifier handle): the fraction of
	// the worker's scan cost the staging optimisation elided.
	StageSkips uint64
	// Upcalls counts misses submitted to the upcall subsystem (admitted
	// or coalesced); UpcallDrops counts misses refused at admission.
	Upcalls, UpcallDrops uint64
	// UpcallShed counts the UpcallDrops subset fast-failed by an open SLO
	// circuit breaker (upcall.DroppedBreaker): deliberate load shedding,
	// not queue/quota exhaustion.
	UpcallShed uint64
	// EMC snapshots the worker's private exact-match cache counters
	// (hits, misses, evictions); zero when the EMC is disabled. Filled by
	// Stats/Totals so multicore runs report cache behaviour without
	// poking each worker.
	EMC microflow.Stats
	// Ports splits the worker's counters by ingress vport, indexed by
	// port id (Totals sums them element-wise across workers, giving the
	// per-vport view). Decided packets land in Allowed/Dropped; a
	// deferred still-pending packet counts only in Packets.
	Ports []PortStats
}

// PortStats is one ingress vport's share of a worker's activity — and,
// summed across workers, the vport's pool-wide ledger. This is the
// granularity the fairness story runs at: a victim port's Upcalls and
// UpcallDrops tell whether the flood ate its admission budget.
type PortStats struct {
	// Packets counts packets that arrived on the port.
	Packets uint64
	// Allowed and Dropped partition the port's decided packets (a refused
	// upcall counts as Dropped).
	Allowed, Dropped uint64
	// Upcalls counts the port's admitted or coalesced flow misses;
	// UpcallDrops counts its misses refused at admission.
	Upcalls, UpcallDrops uint64
	// UpcallShed counts the UpcallDrops subset shed by the port's open
	// circuit breaker.
	UpcallShed uint64
}

// Pool is a set of PMD workers sharing one switch. A pool is driven by a
// single dispatcher: methods must not be called concurrently with each
// other (the parallelism lives inside ProcessBatchPorts, where the workers
// of one dispatch run concurrently against the shared switch).
type Pool struct {
	sw      *vswitch.Switch
	batch   int
	ports   int
	workers []*worker
	rss     []int // RSS-derived ports of the latest dispatch without ports
	up      *upcall.Subsystem
	tm      *poolMetrics
}

// poolMetrics is the pool's registry wiring: push counters sharded by
// worker id, fed by per-burst deltas of the WorkerStats each worker
// already maintains.
type poolMetrics struct {
	packets, emcHits, emcBypassed, megaflowHits, slowpath *telemetry.Counter
	probes, upcalls, upcallDrops, upcallShed              *telemetry.Counter
}

func newPoolMetrics(reg *telemetry.Registry) *poolMetrics {
	return &poolMetrics{
		packets: reg.Counter("tse_pmd_packets_total",
			"Packets dispatched to PMD workers."),
		emcHits: reg.Counter("tse_pmd_emc_hits_total",
			"Packets decided by a worker's private exact-match cache (OVS coverage: exact match hit)."),
		emcBypassed: reg.Counter("tse_pmd_emc_bypassed_total",
			"Packets sent past a worker's exact-match cache, unprobed, while the worker stepped aside from a full cache that could not hit."),
		megaflowHits: reg.Counter("tse_pmd_megaflow_hits_total",
			"Packets decided by the shared megaflow cache (OVS coverage: masked hit)."),
		slowpath: reg.Counter("tse_pmd_slowpath_total",
			"Packets resolved through the slow path, upcall-resolved included."),
		probes: reg.Counter("tse_pmd_probes_total",
			"Mask probes spent by PMD workers — the per-core scan cost the attack inflates."),
		upcalls: reg.Counter("tse_pmd_upcalls_total",
			"Flow misses submitted to the upcall subsystem."),
		upcallDrops: reg.Counter("tse_pmd_upcall_drops_total",
			"Flow misses refused at upcall admission."),
		upcallShed: reg.Counter("tse_pmd_upcall_shed_total",
			"Refused misses fast-failed by an open SLO circuit breaker."),
	}
}

// record flushes one burst's worth of counter movement (after minus
// before) into the worker's registry shard.
func (m *poolMetrics) record(shard int, before, after WorkerStats) {
	add := func(c *telemetry.Counter, b, a uint64) {
		if a > b {
			c.Add(shard, a-b)
		}
	}
	add(m.packets, before.Packets, after.Packets)
	add(m.emcHits, before.EMCHits, after.EMCHits)
	add(m.emcBypassed, before.EMCBypassed, after.EMCBypassed)
	add(m.megaflowHits, before.MegaflowHits, after.MegaflowHits)
	add(m.slowpath, before.SlowPath, after.SlowPath)
	add(m.probes, before.Probes, after.Probes)
	add(m.upcalls, before.Upcalls, after.Upcalls)
	add(m.upcallDrops, before.UpcallDrops, after.UpcallDrops)
	add(m.upcallShed, before.UpcallShed, after.UpcallShed)
}

// worker is one PMD: a private EMC, a private classifier handle (lock-free
// snapshot reads with per-worker statistic shards), plus reusable burst
// buffers. Only its own goroutine (or the serial driver) touches it during
// a dispatch; it reads the caller's headers and ports and writes only its
// own packets' verdicts.
type worker struct {
	id    int
	emc   *microflow.Cache
	mfc   *tss.Handle
	stats WorkerStats // Allowed and Dropped stay 0: snapshot sums portStats
	// portStats is indexed by port id; ports are worker-pinned.
	portStats []PortStats

	// The EMC step-aside state (probeEMC): bursts left to skip the EMC
	// lookup, and the probed packets and hits of the current window.
	emcAside, emcProbed, emcHits int

	// The worker's share of the latest dispatch (shard): all of it, or
	// the indices of its headers.
	whole bool
	idx   []int

	// Per-burst scratch buffers, reused across calls to keep the hot path
	// allocation-free: the gathered burst (gHs, gPorts, gOut), the EMC
	// prepass results, and the misses with their burst positions.
	gHs      []bitvec.Vec
	gPorts   []int
	gOut     []vswitch.Verdict
	emcRes   []microflow.Result
	emcOK    []bool
	missHs   []bitvec.Vec
	missIdx  []int
	verdicts []vswitch.Verdict
}

// New builds a pool over the shared switch.
func New(cfg Config) (*Pool, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("datapath: config needs a switch")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Ports <= 0 {
		cfg.Ports = cfg.Workers
	}
	p := &Pool{sw: cfg.Switch, batch: DefaultBatchSize, ports: cfg.Ports}
	if cfg.Metrics != nil {
		p.tm = newPoolMetrics(cfg.Metrics)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{id: i, mfc: cfg.Switch.MFC().NewHandle(),
			portStats: make([]PortStats, cfg.Ports)}
		if !cfg.DisableEMC {
			w.emc = microflow.New(microflow.DefaultCapacity)
		}
		p.workers = append(p.workers, w)
	}
	if cfg.Upcall != nil {
		up, err := upcall.New(cfg.Switch, cfg.Ports, *cfg.Upcall)
		if err != nil {
			return nil, err
		}
		p.up = up
	}
	return p, nil
}

// Upcalls returns the pool's upcall subsystem, nil for inline-slow-path
// pools.
func (p *Pool) Upcalls() *upcall.Subsystem { return p.up }

// Close resolves every upcall still queued — fire-and-forget dispatches
// leave theirs for a later drain — so no pending upcall outlives the pool.
// It is a no-op for inline pools.
func (p *Pool) Close() {
	if p.up != nil {
		p.up.DrainAll()
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Ports returns the ingress vport count.
func (p *Pool) Ports() int { return p.ports }

// Switch returns the shared switch.
func (p *Pool) Switch() *vswitch.Switch { return p.sw }

// PortWorker returns the worker vport port is pinned to: p % Workers, the
// round-robin rxq-to-PMD assignment. All of a port's packets run on this
// worker.
func (p *Pool) PortWorker(port int) int { return port % len(p.workers) }

// PortOf returns the vport dispatch without explicit ports derives for
// header h from its RSS hash. With Ports == Workers (the default) the
// resulting PortWorker mapping is identical to the pre-vport RSS dispatch.
func (p *Pool) PortOf(h bitvec.Vec) int {
	return int(h.Hash() % uint64(p.ports))
}

// ProcessBatchPorts dispatches a batch of headers across the workers and
// runs the workers concurrently against the shared switch, returning one
// verdict per header in input order (writing into out when it has
// sufficient capacity; pass nil to allocate). ports[i] is the vport hs[i]
// arrived on (nil derives ports from the RSS hash). Packets run on their
// port's pinned worker, per-port counters accrue, and — in async mode —
// upcalls are admitted against the port's own queue and quota.
//
// Verdicts are deterministic per worker stream, but when concurrent
// slow-path installs interleave, the Probes field of megaflow hits can
// vary run to run (a mask installed by another core shifts scan
// positions). Use ProcessBatchSerialPorts where bit-exact reproducibility
// matters, e.g. the paper-figure simulations. A dispatch that one worker
// takes whole runs on the caller's goroutine: nothing to wait for, and
// nothing allocated.
func (p *Pool) ProcessBatchPorts(ports []int, hs []bitvec.Vec, now int64, out []vswitch.Verdict) []vswitch.Verdict {
	ports, out = p.shard(ports, hs, out)
	for _, w := range p.workers {
		if w.whole {
			w.run(p, hs, ports, now, out, false)
			return out
		}
	}
	var wg sync.WaitGroup
	for _, w := range p.workers {
		if w.idle() {
			continue
		}
		wg.Add(1)
		go func(w *worker, ports []int, out []vswitch.Verdict) {
			defer wg.Done()
			w.run(p, hs, ports, now, out, false)
		}(w, ports, out)
	}
	wg.Wait()
	return out
}

// ProcessBatchSerialPorts is ProcessBatchPorts with the workers executed
// one after the other in index order: the deterministic drive mode. The
// simulator models per-core parallelism through per-core CPU budgets, so
// it does not need (and cannot afford, reproducibility-wise) real
// concurrency.
func (p *Pool) ProcessBatchSerialPorts(ports []int, hs []bitvec.Vec, now int64, out []vswitch.Verdict) []vswitch.Verdict {
	ports, out = p.shard(ports, hs, out)
	for _, w := range p.workers {
		if !w.idle() {
			w.run(p, hs, ports, now, out, false)
		}
	}
	return out
}

// ProcessBatchDeferredPorts is the fire-and-forget dispatch of the
// asynchronous slow path: like ProcessBatchSerialPorts, but a miss's upcall
// is only submitted, never waited for. The corresponding verdicts report
// PathUpcallPending (queued; the decision arrives when a later HandleN
// drains it) or PathUpcallDrop (refused at admission). The
// dataplane simulator drives this mode and drains with the modelled
// per-second handler budget via Upcalls().HandleN. On an inline pool it
// falls back to ProcessBatchSerialPorts.
func (p *Pool) ProcessBatchDeferredPorts(ports []int, hs []bitvec.Vec, now int64, out []vswitch.Verdict) []vswitch.Verdict {
	if p.up == nil {
		return p.ProcessBatchSerialPorts(ports, hs, now, out)
	}
	ports, out = p.shard(ports, hs, out)
	for _, w := range p.workers {
		if !w.idle() {
			w.run(p, hs, ports, now, out, true)
		}
	}
	return out
}

// shard checks a dispatch and divides it among the workers, returning the
// ports its headers arrived on and out resized to len(hs). ports names each
// header's ingress vport; nil derives ports from the RSS hash (flow-sticky
// dispatch, the port-oblivious legacy shape) into the pool's scratch. When
// every header maps to one worker — always on a one-worker pool — that
// worker takes the whole dispatch and reads hs and ports in place; otherwise
// shard writes each worker the indices of its headers, and nothing else. It
// never writes hs or ports.
func (p *Pool) shard(ports []int, hs []bitvec.Vec, out []vswitch.Verdict) ([]int, []vswitch.Verdict) {
	if ports != nil && len(ports) != len(hs) {
		panic("datapath: ports and headers length mismatch")
	}
	if cap(out) < len(hs) {
		out = make([]vswitch.Verdict, len(hs))
	}
	out = out[:len(hs)]
	if ports == nil {
		p.rss = growInts(p.rss, len(hs))
		for i, h := range hs {
			p.rss[i] = p.PortOf(h)
		}
		ports = p.rss
	}
	// one is the worker of the first header; mixed is whether another
	// header maps elsewhere, which a one-worker pool need not ask.
	one, mixed := 0, false
	if len(ports) > 0 {
		one = p.PortWorker(ports[0])
	}
	for _, port := range ports {
		if port < 0 || port >= p.ports {
			panic(fmt.Sprintf("datapath: port %d out of range [0,%d)", port, p.ports))
		}
		if len(p.workers) > 1 && p.PortWorker(port) != one {
			mixed = true
		}
	}
	for _, w := range p.workers {
		w.whole, w.idx = false, w.idx[:0]
	}
	if !mixed {
		p.workers[one].whole = len(hs) > 0
		return ports, out
	}
	for i, port := range ports {
		w := p.workers[p.PortWorker(port)]
		w.idx = append(w.idx, i)
	}
	return ports, out
}

// idle reports whether the latest shard gave the worker no headers.
func (w *worker) idle() bool { return !w.whole && len(w.idx) == 0 }

// run drains the worker's share of the dispatch (hs, ports, out, the
// caller's slices) in bursts of at most p.batch. A worker that took the
// whole dispatch runs each burst on sub-slices of them; otherwise each burst
// gathers its headers and ports by index into the worker's scratch and
// scatters the verdicts back. deferred selects the fire-and-forget upcall
// mode (see ProcessBatchDeferredPorts).
func (w *worker) run(p *Pool, hs []bitvec.Vec, ports []int, now int64, out []vswitch.Verdict, deferred bool) {
	batch := p.batch
	if w.whole {
		for start := 0; start < len(hs); start += batch {
			end := min(start+batch, len(hs))
			w.burst(p, hs[start:end], ports[start:end], now, out[start:end], deferred)
		}
		return
	}
	for start := 0; start < len(w.idx); start += batch {
		idx := w.idx[start:min(start+batch, len(w.idx))]
		w.gHs, w.gPorts = w.gHs[:0], w.gPorts[:0]
		for _, i := range idx {
			w.gHs = append(w.gHs, hs[i])
			w.gPorts = append(w.gPorts, ports[i])
		}
		w.gOut = growVerdicts(w.gOut, len(idx))
		w.burst(p, w.gHs, w.gPorts, now, w.gOut, deferred)
		for k, i := range idx {
			out[i] = w.gOut[k]
		}
	}
}

// burst processes one receive burst: EMC prepass, then the shared switch's
// batched path for the misses, then EMC priming — the emc_processing /
// fast_path_processing split of OVS's dpif-netdev. hs, ports and out are
// parallel: out[i] receives hs[i]'s verdict. With an upcall subsystem
// configured, full-scan misses become upcalls instead of inline slow-path
// calls: each is drained synchronously, or, in deferred mode, submitted
// without waiting.
//
// The EMC follows three rules (burstRun). Two are the microflow cache's
// own. Priming is probabilistic: every decided miss is offered, and the
// cache admits one offer in 100 by its seeded draw. And the cache is keyed
// to the switch's table generation (vswitch.Switch.CacheGen, through
// microflow.Cache.Sync): a burst that sees it move flushes the EMC before
// its lookup, and no verdict is inserted while a swap awaits
// revalidation, so an EMC entry never outlives a megaflow the revalidator
// deletes. The third is the worker's: it steps aside from a full EMC that
// hit fewer than 1 in 32 of a 64-packet window, skipping the lookup (not
// the sync or the offers) for the next 30 bursts (probeEMC).
func (w *worker) burst(p *Pool, hs []bitvec.Vec, ports []int, now int64, out []vswitch.Verdict, deferred bool) {
	if p.tm != nil {
		// Snapshot-diff telemetry: one struct copy before, a few padded
		// atomic adds after, nothing per packet. (The Ports slice header is
		// copied, not the elements; record only diffs scalar fields.)
		before := w.stats
		w.burstRun(p, hs, ports, now, out, deferred)
		p.tm.record(w.id, before, w.stats)
		return
	}
	w.burstRun(p, hs, ports, now, out, deferred)
}

// burstRun is burst without the telemetry diff: the EMC's generation
// sync, the EMC prepass unless the worker stands aside from the EMC, the
// batched megaflow path, and the offer of every decided miss to the EMC,
// which admits one in 100 (none while a table swap awaits revalidation).
// Each packet is tallied once, on its port: Packets as it arrives, Allowed
// or Dropped when decided.
func (w *worker) burstRun(p *Pool, hs []bitvec.Vec, ports []int, now int64, out []vswitch.Verdict, deferred bool) {
	w.stats.Packets += uint64(len(hs))
	var gen microflow.Gen
	probed := false
	if w.emc != nil {
		gen = w.emc.Sync(p.sw.CacheGen())
		probed = w.probeEMC(hs)
	}
	w.missHs, w.missIdx = w.missHs[:0], w.missIdx[:0]
	for i, port := range ports {
		ps := &w.portStats[port]
		ps.Packets++
		if probed && w.emcOK[i] {
			r := w.emcRes[i]
			out[i] = vswitch.Verdict{Action: r.Action, OutPort: r.OutPort, Path: vswitch.PathMicroflow}
			w.stats.EMCHits++
			ps.tally(r.Action)
			continue
		}
		w.missHs = append(w.missHs, hs[i])
		w.missIdx = append(w.missIdx, i)
	}
	if len(w.missHs) == 0 {
		return
	}
	w.verdicts = growVerdicts(w.verdicts, len(w.missHs))
	p.sw.ProcessBatchOn(w.mfc, w.missHs, now, w.verdicts, func(k, probes int) vswitch.Verdict {
		return w.miss(p, w.missHs[k], ports[w.missIdx[k]], now, probes, deferred)
	})
	for k, v := range w.verdicts[:len(w.missHs)] {
		i := w.missIdx[k]
		out[i] = v
		w.stats.Probes += uint64(v.Probes)
		switch v.Path {
		case vswitch.PathMegaflow:
			w.stats.MegaflowHits++
		case vswitch.PathSlow:
			w.stats.SlowPath++
		case vswitch.PathUpcallPending:
			// Decision deferred: neither verdict partition counts it, and
			// there is nothing to prime the EMC with.
			continue
		case vswitch.PathUpcallDrop:
			// Refused at admission: the packet is dropped on the floor.
			w.portStats[ports[i]].tally(v.Action)
			continue
		}
		w.portStats[ports[i]].tally(v.Action)
		if w.emc != nil {
			// The EMC clones internally; no per-packet Clone here.
			w.emc.InsertAt(gen, hs[i],
				microflow.Result{Action: v.Action, OutPort: v.OutPort})
		}
	}
}

// probeEMC runs the burst's EMC lookup into emcRes and emcOK, unless the
// worker stands aside from its EMC, and reports whether it ran. A worker
// steps aside for the next emcAsideBursts bursts when a window of at least
// emcWindow probed packets ends with the EMC full and fewer than 1 in
// emcHitShareInv of them hits; the burst after the last skipped one probes
// again and opens a new window. A skipped burst counts its packets as
// EMCBypassed.
func (w *worker) probeEMC(hs []bitvec.Vec) bool {
	if w.emcAside > 0 {
		w.emcAside--
		w.stats.EMCBypassed += uint64(len(hs))
		return false
	}
	w.emcRes = growRes(w.emcRes, len(hs))
	w.emcOK = growOK(w.emcOK, len(hs))
	w.emcHits += w.emc.LookupBatch(hs, w.emcRes, w.emcOK)
	w.emcProbed += len(hs)
	if w.emcProbed >= emcWindow {
		if w.emcHits*emcHitShareInv < w.emcProbed && w.emc.Len() == microflow.DefaultCapacity {
			w.emcAside = emcAsideBursts
		}
		w.emcProbed, w.emcHits = 0, 0
	}
	return true
}

// miss resolves one full-scan megaflow miss from ingress vport port.
// Without an upcall subsystem it runs the slow path inline, the switch's
// HandleMissBatch with a burst of one; with one it turns the miss into an
// upcall, admitted against the port's queue and quota, and drains it
// synchronously — or, deferred, returns a pending placeholder.
func (w *worker) miss(p *Pool, h bitvec.Vec, port int, now int64, probes int, deferred bool) vswitch.Verdict {
	if p.up == nil {
		ms := []vswitch.Miss{{Port: port, Header: h, Probes: probes}}
		return p.sw.HandleMissBatch(ms, now, make([]vswitch.Verdict, 1))[0]
	}
	v := vswitch.Verdict{Path: vswitch.PathUpcallPending, Probes: probes}
	var o upcall.Outcome
	if deferred {
		_, o = p.up.Submit(port, h, now)
	} else {
		v, o = p.up.SubmitSync(port, h, now)
		v.Probes = probes // what this lookup spent, not the handler's recount
	}
	if o.Dropped() {
		w.stats.UpcallDrops++
		w.portStats[port].UpcallDrops++
		if o == upcall.DroppedBreaker {
			w.stats.UpcallShed++
			w.portStats[port].UpcallShed++
		}
		return vswitch.Verdict{Action: flowtable.Drop, Path: vswitch.PathUpcallDrop, Probes: probes}
	}
	w.stats.Upcalls++
	w.portStats[port].Upcalls++
	return v
}

// tally counts one decided packet of the port by its action.
func (ps *PortStats) tally(a flowtable.Action) {
	if a == flowtable.Drop {
		ps.Dropped++
	} else {
		ps.Allowed++
	}
}

// Stats returns a snapshot of each worker's counters, indexed by worker,
// with each worker's private EMC cache counters folded in.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.snapshot()
	}
	return out
}

// Totals sums the per-worker stats, EMC cache counters and per-port
// splits included, so multicore runs report aggregate cache behaviour and
// the per-vport ledger without poking each worker.
func (p *Pool) Totals() WorkerStats {
	t := WorkerStats{Ports: make([]PortStats, p.ports)}
	for _, w := range p.workers {
		s := w.snapshot()
		t.Packets += s.Packets
		t.EMCHits += s.EMCHits
		t.EMCBypassed += s.EMCBypassed
		t.MegaflowHits += s.MegaflowHits
		t.SlowPath += s.SlowPath
		t.Dropped += s.Dropped
		t.Allowed += s.Allowed
		t.Probes += s.Probes
		t.StageSkips += s.StageSkips
		t.Upcalls += s.Upcalls
		t.UpcallDrops += s.UpcallDrops
		t.UpcallShed += s.UpcallShed
		t.EMC.Hits += s.EMC.Hits
		t.EMC.Misses += s.EMC.Misses
		t.EMC.Evictions += s.EMC.Evictions
		for i, ps := range s.Ports {
			t.Ports[i].Packets += ps.Packets
			t.Ports[i].Allowed += ps.Allowed
			t.Ports[i].Dropped += ps.Dropped
			t.Ports[i].Upcalls += ps.Upcalls
			t.Ports[i].UpcallDrops += ps.UpcallDrops
			t.Ports[i].UpcallShed += ps.UpcallShed
		}
	}
	return t
}

// snapshot copies the worker's counters with the live EMC stats, the
// classifier handle's stage-skip count, and the per-port split attached.
// Allowed and Dropped are the sums of the per-port split, the only place
// a burst counts them.
func (w *worker) snapshot() WorkerStats {
	s := w.stats
	if w.emc != nil {
		s.EMC = w.emc.Stats()
	}
	s.StageSkips = w.mfc.Stats().StageSkips
	s.Ports = append([]PortStats(nil), w.portStats...)
	for _, ps := range s.Ports {
		s.Allowed += ps.Allowed
		s.Dropped += ps.Dropped
	}
	return s
}

func growRes(s []microflow.Result, n int) []microflow.Result {
	if cap(s) < n {
		return make([]microflow.Result, n)
	}
	return s[:n]
}

func growOK(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growVerdicts(s []vswitch.Verdict, n int) []vswitch.Verdict {
	if cap(s) < n {
		return make([]vswitch.Verdict, n)
	}
	return s[:n]
}
