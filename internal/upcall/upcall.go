// Package upcall implements the asynchronous slow path of the simulated
// switch: the subsystem that, in OVS, carries flow misses from the
// datapath up to ovs-vswitchd and megaflow installs back down (§2.2 of the
// paper). It is the architectural layer the Tuple Space Explosion attack
// saturates — every attack packet is a flow miss, so the attack's cost is
// paid here first — and its queue bounds and fairness quotas are where the
// slow-path defenses live.
//
// The shape follows OVS:
//
//   - Bounded per-source upcall queues. Each upcall source (a PMD worker in
//     the datapath pool, a vport in the kernel datapath) owns a FIFO queue
//     with a configurable bound. A full queue refuses the miss: the packet
//     is dropped without ever reaching the slow path, which is exactly the
//     loss mode of slow-path saturation.
//
//   - Flow-miss deduplication. A pending table keyed by the exact header
//     coalesces a burst of same-flow misses onto one in-flight upcall, so
//     the burst installs one megaflow and pays one classification — OVS's
//     ukey handling does the same to keep a hot new flow from flooding the
//     handlers.
//
//   - Per-source fairness quotas. An OVS-style upcall rate limit: each
//     source may admit at most QuotaPerSource upcalls per virtual second.
//     Together with round-robin draining this keeps one flooding source
//     (the TSE attacker's receive queue) from monopolising the handlers —
//     a first-class mitigation knob alongside MFCGuard.
//
//   - Handler drains. HandleNAt pops the queues round-robin in bursts;
//     SubmitSync pops one upcall at a time until its own resolves. Either
//     way each popped burst, of one upcall or of HandlerBurst, resolves
//     through the switch's one slow path, vswitch.HandleMissBatch. The
//     drains are the handlers: they run the flow-table classification and
//     install into the tss.Classifier through its writer lock, preserving
//     the concurrent-reader/single-writer design of the megaflow cache.
//
//   - A revalidator (revalidator.go) that periodically dumps the megaflow
//     cache, expires idle entries, and re-checks the survivors against the
//     current flow table.
//
//   - A modelled supervisor (supervisor.go): handlers crash and stall on
//     the fault schedule, so the subsystem models each death against the
//     virtual clock, detects a stall after one virtual second, respawns the
//     slot, and returns its orphaned in-flight upcalls to the queues
//     instead of leaking pending entries.
//
//   - An SLO circuit breaker (breaker.go): when a source's backlog
//     residence p99 violates BreakerSLOSec for three consecutive
//     intervals, the source trips open and new submissions fast-fail
//     (shed) instead of queueing behind work that will miss its SLO
//     anyway; after 3 s half-open probes a trickle of two a tick and
//     closes on recovery.
//
// Faults are injected through an optional faults.Plan hook (handler
// panics/stalls, delayed or duplicated delivery); a nil plan costs one
// pointer comparison per Submit/drain.
//
// The subsystem starts no goroutines. The datapath either drains
// each admitted upcall synchronously (SubmitSync), which still exercises
// the queue/pending/quota machinery but stays deterministic — with
// unbounded queues and no quota it is verdict-for-verdict equivalent to
// the inline slow path (the datapath equivalence tests assert this) — or
// submits without waiting and leaves the drain to the simulator's
// per-second HandleNAt budget.
package upcall

import (
	"fmt"
	"math"
	"sync"

	"tse/internal/bitvec"
	"tse/internal/faults"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/vswitch"
)

// Options tunes a Subsystem.
type Options struct {
	// QueueCap bounds each per-source queue; 0 means unbounded (the
	// deterministic drive mode of the equivalence tests).
	QueueCap int
	// QuotaPerSource is the OVS-style upcall rate limit: the number of
	// upcalls each source may admit per virtual second; 0 disables the
	// quota. Deduplicated misses consume no quota. Sources are ingress
	// vports in the port-aware datapath (OVS rate-limits upcalls at vport
	// granularity), so a victim port never shares its bucket with a
	// flooding port that happens to land on the same PMD worker. SetQuota
	// overrides the value per source — the seam the adaptive controller
	// (AdaptiveQuota, driven by the revalidator) tunes at runtime.
	QuotaPerSource int
	// ModelledHandlers is the handler count the fault model spreads service
	// capacity across (a dead handler removes its 1/N share of the
	// per-tick drain budget); <= 0 selects 1.
	ModelledHandlers int
	// DisableSupervisor is the chaos ablation: a dead handler is never
	// respawned and its orphaned in-flight upcalls are dropped on the
	// floor — the pending-table wedge the supervisor exists to prevent.
	DisableSupervisor bool
	// BreakerSLOSec is the backlog-residence p99 SLO of the per-source
	// circuit breaker (breaker.go), in virtual seconds: an interval whose
	// p99 exceeds it is a violation. <= 0 disables the breaker.
	BreakerSLOSec int64
	// Injector is the optional fault-injection schedule; nil (the normal
	// case) injects nothing and costs one pointer comparison on the paths
	// it guards.
	Injector *faults.Plan
	// Metrics, when non-nil, registers the subsystem with the registry:
	// pull views over Stats() for the admission/service counters, read at
	// snapshot time only, plus the residence histogram, observed once per
	// pop under u.mu (allocation-free, telemetry's AllocsPerRun assertions).
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives tick-stamped control-plane events:
	// handler panics/stalls/restarts, orphan requeues, pending reaps, and
	// breaker phase transitions. Nil costs one nil check per event site.
	Journal *telemetry.Journal
	// Tracer, when non-nil, samples every Nth admitted upcall into a
	// flow-setup span (enqueue→admit→pop→install→publish ticks). Sampled
	// spans allocate, so tracing is opt-in; a nil tracer costs one nil
	// check per admission.
	Tracer *telemetry.Tracer
}

// HandlerBurst is the number of queued upcalls a HandleN drain pops and
// resolves as one batch, matching the datapath's NETDEV_MAX_BURST-sized
// receive bursts: the burst shares one flow-table classification pass and
// ONE megaflow-install transaction (vswitch.HandleMissBatch →
// tss.InsertBatch), so the classifier's copy-on-write publish is paid once
// per burst instead of once per megaflow. SubmitSync's drains resolve
// bursts of one through the same path.
const HandlerBurst = 32

// stallTimeoutSec is the modelled supervisor's stall-detection horizon:
// one virtual second, i.e. it notices a frozen handler at the next
// per-second drain.
const stallTimeoutSec int64 = 1

// Outcome classifies what Submit did with one flow miss.
type Outcome int

const (
	// Enqueued: the miss became a new upcall in its source's queue.
	Enqueued Outcome = iota
	// Coalesced: an upcall for the same flow is already pending; the miss
	// was deduplicated onto it, consuming no queue slot and no quota.
	Coalesced
	// DroppedQueueFull: the source's queue is at QueueCap; the packet is
	// dropped without reaching the slow path.
	DroppedQueueFull
	// DroppedQuota: the source exhausted its per-second admission quota.
	DroppedQuota
	// DroppedBreaker: the source's SLO circuit breaker is open; the miss
	// is fast-failed (shed) at admission without queueing.
	DroppedBreaker
)

// Dropped reports whether the outcome refused the miss at admission.
func (o Outcome) Dropped() bool {
	return o == DroppedQueueFull || o == DroppedQuota || o == DroppedBreaker
}

// String names the outcome for diagnostics.
func (o Outcome) String() string {
	switch o {
	case Enqueued:
		return "enqueued"
	case Coalesced:
		return "coalesced"
	case DroppedQueueFull:
		return "dropped-queue-full"
	case DroppedQuota:
		return "dropped-quota"
	case DroppedBreaker:
		return "dropped-breaker-open"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats aggregates subsystem activity. Together with
// vswitch.Counters.Installs these are the enqueued/dropped/deduped/
// installed counters of the miss-to-install path.
type Stats struct {
	// Enqueued counts upcalls admitted to a queue; Deduped counts misses
	// coalesced onto an already-pending upcall of the same flow.
	Enqueued, Deduped uint64
	// QueueDrops and QuotaDrops count refused misses by reason.
	QueueDrops, QuotaDrops uint64
	// Handled counts upcalls resolved by a handler; each one is one
	// slow-path classification (installs appear in
	// vswitch.Counters.Installs).
	Handled uint64
	// Backlog is the current total queue depth and PendingFlows the
	// current pending-table size (snapshot fields); MaxBacklog is the
	// backlog high-water mark.
	Backlog, PendingFlows, MaxBacklog int
	// Residence aggregates flow-setup latency across all sources: how many
	// virtual seconds each handled upcall sat queued between admission and
	// handler pop (see LatencyHist).
	Residence LatencyHist
	// HandlerPanics counts modelled handler deaths by panic; StallsDetected
	// counts handlers the supervisor declared dead after stallTimeoutSec;
	// HandlerRestarts counts respawns (after either).
	HandlerPanics, StallsDetected, HandlerRestarts uint64
	// Requeued counts orphaned in-flight upcalls returned to their queues
	// by the supervisor; PendingReaped counts aged-out pending entries
	// swept by the revalidator's orphan reaper.
	Requeued, PendingReaped uint64
	// Delayed and Duplicated count fault-injected deliveries (upcalls held
	// in limbo / enqueued twice).
	Delayed, Duplicated uint64
	// BreakerTrips and BreakerCloses count circuit-breaker transitions to
	// open and (from half-open) back to closed; BreakerShed counts
	// submissions fast-failed by a non-closed breaker.
	BreakerTrips, BreakerCloses, BreakerShed uint64
}

// pendingFlow is one in-flight upcall: the cell every waiter of the flow
// shares. Its fields are guarded by Subsystem.mu; verdict is written once,
// when resolved is set, and resolved makes resolution idempotent, so a
// fault-duplicated delivery resolving the flow a second time is a no-op.
type pendingFlow struct {
	h        bitvec.Vec   // the flow's header: one clone, shared by its queued items
	tie      *pendingFlow // the next pending flow under the same flowKey
	verdict  vswitch.Verdict
	born     int64 // virtual time of admission (orphan-reap age base)
	queued   int   // queued item copies referencing this flow
	resolved bool
}

// flowKey files one in-flight flow in the pending table: the header's
// fingerprint (bitvec.Vec.Hash) scoped by its source. Scoping by
// source mirrors OVS, where the ingress port is part of the flow key — the
// same header arriving on two vports is two flows, and deduplicating them
// together would let one port's pending upcall mask another port's
// distinct miss. Two headers of one source may share a fingerprint: the
// table chains their flows (pendingFlow.tie) and a lookup confirms the
// header (pendingLocked).
type flowKey struct {
	src int
	fp  uint64
}

// item is one queued upcall.
type item struct {
	h   bitvec.Vec
	now int64
	src int
	key flowKey
	p   *pendingFlow
	// span is the sampled flow-setup trace record; nil for the (vast)
	// unsampled majority.
	span *telemetry.Span
}

// SourceStats is one source's (vport's) share of the admission counters.
type SourceStats struct {
	// Enqueued and Deduped count admitted misses; QueueDrops and
	// QuotaDrops count refusals by reason.
	Enqueued, Deduped, QueueDrops, QuotaDrops uint64
	// BreakerShed counts misses fast-failed because the source's SLO
	// circuit breaker was open (or out of half-open probe budget).
	BreakerShed uint64
	// Residence is the port's flow-setup latency histogram: the virtual
	// seconds each of its handled upcalls spent queued between admission
	// (the enqueue stamp, shared by every miss coalesced onto the upcall)
	// and handler pop. Residence.P50()/P99() are the per-port flow-setup
	// percentiles; the revalidator reads the same histogram as the
	// backlog-residence input of the adaptive quota controller.
	Residence LatencyHist
}

// Ticket is a handle on a submitted upcall. The zero Ticket (returned for
// admission drops) is invalid.
type Ticket struct {
	u *Subsystem
	p *pendingFlow
}

// Resolved returns the verdict without blocking; ok is false while the
// upcall is still queued or being handled.
func (t Ticket) Resolved() (v vswitch.Verdict, ok bool) {
	t.u.mu.Lock()
	defer t.u.mu.Unlock()
	return t.p.verdict, t.p.resolved
}

// Subsystem is the upcall machinery for one switch. It is safe for
// concurrent use: any number of sources may Submit and SubmitSync while
// another caller drains.
type Subsystem struct {
	sw   *vswitch.Switch
	opts Options

	mu sync.Mutex
	// resolved is broadcast on every resolution; a SubmitSync whose upcall
	// another caller's drain popped waits here.
	resolved *sync.Cond
	queues   [][]item // per-source FIFO, heads[i] is the pop position
	heads    []int
	// pending holds the first flow of each key, and its ties chain from
	// it; npending counts them all.
	pending  map[flowKey]*pendingFlow
	npending int
	limbo    []limboItem // fault-delayed deliveries, nil unless injected
	tokens   []int       // per-source quota tokens for the current second
	tokenAt  []int64     // virtual second the tokens were refilled at
	quota    []int       // per-source quota overrides; -1 = Options.QuotaPerSource
	srcStats []SourceStats
	next     int   // round-robin drain cursor
	depth    int   // total queued items
	clock    int64 // latest virtual time observed (Submit / HandleNAt)
	stats    Stats

	// headerHash, when set, replaces bitvec.Vec.Hash as the pending
	// table's header fingerprint, so tests can plant fingerprint ties.
	headerHash func(bitvec.Vec) uint64

	// Modelled handler fault state (supervisor.go).
	driveH []driveHandler

	// Per-source circuit breakers (breaker.go); nil when disabled.
	brk []breakerPort

	// residence is the registered residence histogram; nil without a
	// registry.
	residence *telemetry.Histogram
}

// registerMetrics exposes the subsystem on reg. The counter families are
// pull views over Stats(), read at snapshot time, so /metrics equals
// Stats() by construction; the residence histogram is the one push
// observation (popLocked, under u.mu, so shard 0 is uncontended). The names
// shadow OVS coverage counters (upcall_*, handler_*) — see the README
// catalog.
func (u *Subsystem) registerMetrics(reg *telemetry.Registry) {
	for _, f := range []struct {
		name, help string
		get        func(Stats) uint64
	}{
		{"tse_upcall_enqueued_total", "Flow misses admitted to an upcall queue.",
			func(s Stats) uint64 { return s.Enqueued }},
		{"tse_upcall_coalesced_total", "Misses deduplicated onto an in-flight upcall of the same flow.",
			func(s Stats) uint64 { return s.Deduped }},
		{"tse_upcall_queue_drops_total", "Misses refused because the source queue was at capacity.",
			func(s Stats) uint64 { return s.QueueDrops }},
		{"tse_upcall_quota_drops_total", "Misses refused by the per-source admission quota.",
			func(s Stats) uint64 { return s.QuotaDrops }},
		{"tse_upcall_breaker_shed_total", "Misses fast-failed by an open SLO circuit breaker.",
			func(s Stats) uint64 { return s.BreakerShed }},
		{"tse_upcall_handled_total", "Upcalls resolved by a handler (one slow-path classification each).",
			func(s Stats) uint64 { return s.Handled }},
		{"tse_upcall_requeued_total", "Orphaned in-flight upcalls returned to their queues by the supervisor.",
			func(s Stats) uint64 { return s.Requeued }},
		{"tse_upcall_pending_reaped_total", "Aged-out pending-table entries failed by the orphan reaper.",
			func(s Stats) uint64 { return s.PendingReaped }},
		{"tse_handler_panics_total", "Handler deaths by panic.",
			func(s Stats) uint64 { return s.HandlerPanics }},
		{"tse_handler_stalls_total", "Handlers declared stalled past the heartbeat deadline.",
			func(s Stats) uint64 { return s.StallsDetected }},
		{"tse_handler_restarts_total", "Handler slots respawned after a panic or stall.",
			func(s Stats) uint64 { return s.HandlerRestarts }},
		{"tse_breaker_trips_total", "SLO circuit-breaker transitions to open.",
			func(s Stats) uint64 { return s.BreakerTrips }},
		{"tse_breaker_closes_total", "SLO circuit-breaker recoveries from half-open to closed.",
			func(s Stats) uint64 { return s.BreakerCloses }},
	} {
		reg.CounterFunc(f.name, f.help, func() uint64 { return f.get(u.Stats()) })
	}
	u.residence = reg.Histogram("tse_upcall_residence_seconds",
		"Virtual seconds an upcall sat queued between admission and handler pop.",
		[]int64{0, 1, 2, 4, 8, 15})
	reg.GaugeFunc("tse_upcall_backlog", "Total queued upcalls right now.",
		func() int64 { return int64(u.Stats().Backlog) })
	reg.GaugeFunc("tse_upcall_pending_flows", "Pending-table entries (in-flight deduplicated flows).",
		func() int64 { return int64(u.Stats().PendingFlows) })
}

// limboItem is one fault-delayed upcall: admitted (quota and queue checks
// already paid) but invisible to handlers until the virtual clock reaches
// readyAt.
type limboItem struct {
	it      item
	readyAt int64
}

// New builds a subsystem over the switch with one queue per source;
// sources <= 0 selects 1.
func New(sw *vswitch.Switch, sources int, opts Options) (*Subsystem, error) {
	if sw == nil {
		return nil, fmt.Errorf("upcall: subsystem needs a switch")
	}
	if sources <= 0 {
		sources = 1
	}
	u := &Subsystem{
		sw:       sw,
		opts:     opts,
		queues:   make([][]item, sources),
		heads:    make([]int, sources),
		pending:  make(map[flowKey]*pendingFlow),
		tokens:   make([]int, sources),
		tokenAt:  make([]int64, sources),
		quota:    make([]int, sources),
		srcStats: make([]SourceStats, sources),
	}
	u.resolved = sync.NewCond(&u.mu)
	for i := range u.tokenAt {
		u.tokenAt[i] = math.MinInt64 // force a refill on the first Submit
		u.quota[i] = -1              // no override: Options.QuotaPerSource
	}
	if opts.BreakerSLOSec > 0 {
		u.brk = make([]breakerPort, sources)
	}
	if opts.Metrics != nil {
		u.registerMetrics(opts.Metrics)
	}
	return u, nil
}

// SetQuota overrides one source's per-second admission quota, with
// Options.QuotaPerSource semantics (0 disables the quota for the source);
// a negative value removes the override. The adaptive controller calls
// this from the revalidator's sweep; it takes effect at the source's next
// token refill (the next virtual second).
func (u *Subsystem) SetQuota(src, quota int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if quota < 0 {
		quota = -1
	}
	u.quota[src] = quota
}

// QuotaFor returns the source's effective per-second admission quota
// (0 = unlimited).
func (u *Subsystem) QuotaFor(src int) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.quotaForLocked(src)
}

func (u *Subsystem) quotaForLocked(src int) int {
	if q := u.quota[src]; q >= 0 {
		return q
	}
	return u.opts.QuotaPerSource
}

// PerSource returns a snapshot of each source's admission counters — the
// per-vport fairness ledger (who was admitted, who was refused, and why).
func (u *Subsystem) PerSource() []SourceStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]SourceStats, len(u.srcStats))
	copy(out, u.srcStats)
	return out
}

// Switch returns the subsystem's switch.
func (u *Subsystem) Switch() *vswitch.Switch { return u.sw }

// Sources returns the number of per-source queues.
func (u *Subsystem) Sources() int { return len(u.queues) }

// Submit offers one flow miss from source src at virtual time now. The
// outcome says what happened: a new upcall was enqueued, the miss was
// coalesced onto a pending upcall of the same flow, or it was refused
// (queue full / quota). The ticket is valid for Enqueued and Coalesced and
// resolves when a handler drains the upcall.
func (u *Subsystem) Submit(src int, h bitvec.Vec, now int64) (Ticket, Outcome) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if now > u.clock {
		u.clock = now
		if u.limbo != nil {
			u.matureLocked()
		}
	}
	fp := h.Hash()
	if u.headerHash != nil {
		fp = u.headerHash(h)
	}
	key := flowKey{src: src, fp: fp}
	if p := u.pendingLocked(key, h); p != nil {
		u.stats.Deduped++
		u.srcStats[src].Deduped++
		return Ticket{u, p}, Coalesced
	}
	// Breaker before the queue bound: an open breaker means queued work is
	// already missing its SLO, so new submissions are shed without
	// consuming queue space or quota.
	if u.brk != nil && !u.breakerAdmitLocked(src, now) {
		u.stats.BreakerShed++
		u.srcStats[src].BreakerShed++
		return Ticket{}, DroppedBreaker
	}
	// Queue bound before quota: a miss refused for lack of queue space
	// must not burn the source's admission budget, or a flooding-induced
	// full queue would eat the quota that later same-second misses (the
	// victim's own flow setup) are entitled to.
	if u.opts.QueueCap > 0 && len(u.queues[src])-u.heads[src] >= u.opts.QueueCap {
		u.stats.QueueDrops++
		u.srcStats[src].QueueDrops++
		return Ticket{}, DroppedQueueFull
	}
	if q := u.quotaForLocked(src); q > 0 {
		if u.tokenAt[src] != now {
			u.tokenAt[src] = now
			u.tokens[src] = q
		}
		if u.tokens[src] == 0 {
			u.stats.QuotaDrops++
			u.srcStats[src].QuotaDrops++
			return Ticket{}, DroppedQuota
		}
		u.tokens[src]--
	}
	// Clone: the caller's header buffer may be reused before a handler
	// gets to the upcall. The queued item shares the pending cell's clone.
	p := &pendingFlow{h: h.Clone(), tie: u.pending[key], born: now, queued: 1}
	u.pending[key] = p
	u.npending++
	it := item{h: p.h, now: now, src: src, key: key, p: p}
	if sp := u.opts.Tracer.Sample(src); sp != nil {
		sp.Enqueue = now
		it.span = sp
	}
	u.stats.Enqueued++
	u.srcStats[src].Enqueued++
	if u.opts.Injector != nil {
		if d := u.opts.Injector.DeliverDelayAt(src, now); d > 0 {
			// Delivery fault: admitted, but held in limbo until readyAt.
			// The enqueue stamp stays `now`, so the delay shows up as
			// residence when the upcall is finally popped.
			u.limbo = append(u.limbo, limboItem{it: it, readyAt: now + d})
			u.stats.Delayed++
			return Ticket{u, p}, Enqueued
		}
	}
	u.enqueueLocked(it)
	if u.opts.Injector != nil && u.opts.Injector.DeliverDuplicateAt(src, now) {
		// Delivery fault: at-least-once semantics. The copy shares the
		// pending cell; whichever pop resolves first wins and the other
		// becomes a no-op.
		p.queued++
		u.enqueueLocked(it)
		u.stats.Duplicated++
	}
	return Ticket{u, p}, Enqueued
}

// enqueueLocked appends one upcall to its source queue. Callers hold u.mu
// and account Enqueued themselves (requeued orphans and fault duplicates
// are not new admissions).
func (u *Subsystem) enqueueLocked(it item) {
	if it.span != nil && it.span.Admit < 0 {
		// First time the upcall becomes visible to handlers (later than
		// the enqueue stamp only under injected delivery delay).
		it.span.Admit = u.clock
	}
	u.queues[it.src] = append(u.queues[it.src], it)
	u.depth++
	if u.depth > u.stats.MaxBacklog {
		u.stats.MaxBacklog = u.depth
	}
}

// matureLocked moves limbo items whose delivery delay has elapsed into
// their source queues. Callers hold u.mu.
func (u *Subsystem) matureLocked() {
	kept := u.limbo[:0]
	for _, li := range u.limbo {
		if li.readyAt <= u.clock {
			u.enqueueLocked(li.it)
		} else {
			kept = append(kept, li)
		}
	}
	for i := len(kept); i < len(u.limbo); i++ {
		u.limbo[i] = limboItem{} // release header/pending references
	}
	u.limbo = kept
	if len(u.limbo) == 0 {
		u.limbo = nil
	}
}

// matureEarliest force-advances the clock to the earliest limbo maturity
// and delivers everything due, reporting whether limbo held anything. The
// drive-mode SubmitSync loop is the only clock source while it spins on a
// delayed ticket, so without this a delayed delivery would deadlock it.
func (u *Subsystem) matureEarliest() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.limbo) == 0 {
		return false
	}
	min := u.limbo[0].readyAt
	for _, li := range u.limbo[1:] {
		if li.readyAt < min {
			min = li.readyAt
		}
	}
	if min > u.clock {
		u.clock = min
	}
	u.matureLocked()
	return true
}

// SubmitSync is the synchronous slow path: it submits the miss and, when
// admitted, drains upcalls (the source's own queue first) until the ticket
// resolves. The upcall still traverses the full queue/pending/quota
// machinery, so runs exercise the same code HandleNAt's drains do while
// staying deterministic. An admission drop is reported by the outcome; the
// verdict is then zero.
func (u *Subsystem) SubmitSync(src int, h bitvec.Vec, now int64) (vswitch.Verdict, Outcome) {
	t, out := u.Submit(src, h, now)
	if out.Dropped() {
		return vswitch.Verdict{}, out
	}
	for {
		if v, ok := t.Resolved(); ok {
			return v, out
		}
		if u.handleOne(src) {
			continue
		}
		if u.matureEarliest() {
			// The upcall (or its queue's work) is in fault-injected
			// delivery limbo; advance to its maturity and drain again.
			continue
		}
		// Nothing queued anywhere, yet the ticket is unresolved: a
		// concurrent caller's drain popped the upcall and is resolving it.
		u.mu.Lock()
		for !t.p.resolved {
			u.resolved.Wait()
		}
		v := t.p.verdict
		u.mu.Unlock()
		return v, out
	}
}

// HandleN drains and handles up to max queued upcalls, visiting the
// per-source queues round-robin — the fairness discipline that keeps one
// flooding source from monopolising the handler budget. It returns the
// number handled. The dataplane simulator calls this once per virtual
// second with the modelled handler service rate; math.MaxInt drains
// everything.
//
// Draining proceeds in bursts of HandlerBurst: the round-robin pop
// order is unchanged (fairness is decided at pop time, item by item), but
// each burst is resolved through one vswitch.HandleMissBatch, so a K-item
// burst installs its megaflows in one classifier transaction with one
// snapshot publish.
func (u *Subsystem) HandleN(max int) int {
	n := 0
	burst := HandlerBurst
	items := make([]item, 0, burst)
	ms := make([]vswitch.Miss, burst)
	vs := make([]vswitch.Verdict, burst)
	for n < max {
		size := burst
		if left := max - n; left < size {
			size = left
		}
		u.mu.Lock()
		items = u.popBurstLocked(items[:0], size)
		u.mu.Unlock()
		if len(items) == 0 {
			break
		}
		u.handleBatch(items, ms, vs)
		n += len(items)
	}
	return n
}

// HandleNAt is HandleN with an explicit drain time: the subsystem clock
// advances to now before the pops, so the residence recorded for each
// drained upcall is measured against the drain tick even when no Submit
// has advanced the clock (a backlog draining after a flood stops). The
// dataplane simulator's per-second drain uses this entry point; it is also
// where the drive-mode fault model applies scheduled handler deaths and
// stalls (see driveFaultsLocked) and delivers matured limbo items.
func (u *Subsystem) HandleNAt(max int, now int64) int {
	u.mu.Lock()
	if now > u.clock {
		u.clock = now
	}
	if u.limbo != nil {
		u.matureLocked()
	}
	if u.opts.Injector != nil {
		max = u.driveFaultsLocked(max, now)
	}
	u.mu.Unlock()
	return u.HandleN(max)
}

// popBurstLocked pops up to max queued upcalls round-robin into items.
// Callers hold u.mu.
func (u *Subsystem) popBurstLocked(items []item, max int) []item {
	for len(items) < max {
		it, ok := u.popAnyLocked()
		if !ok {
			break
		}
		items = append(items, it)
	}
	return items
}

// DrainAll handles every queued upcall and returns the number handled.
func (u *Subsystem) DrainAll() int { return u.HandleN(math.MaxInt) }

// Stats returns a snapshot of the activity counters.
func (u *Subsystem) Stats() Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.stats
	st.Backlog = u.depth
	st.PendingFlows = u.npending
	return st
}

// handleBatch resolves one drained burst — SubmitSync's single upcall or
// up to HandlerBurst of HandleN's — through vswitch.HandleMissBatch: one
// flow-table classification pass and ONE megaflow-install transaction
// (single snapshot publish), stamped at the burst's latest miss time. Each
// megaflow is attributed to its upcall's ingress port, and each verdict
// carries as its Probes what its miss spends on the cache at burst entry
// (tss.Classifier.MissProbes). Every waiter of every flow in the burst is
// released. ms and vs are the caller's scratch, at least as long as items.
func (u *Subsystem) handleBatch(items []item, ms []vswitch.Miss, vs []vswitch.Verdict) {
	now := items[0].now
	for i, it := range items {
		now = max(now, it.now)
		ms[i] = vswitch.Miss{Port: it.src, Header: it.h, Probes: u.sw.MFC().MissProbes(it.h)}
	}
	for i, v := range u.sw.HandleMissBatch(ms[:len(items)], now, vs) {
		u.resolve(items[i], v)
	}
}

// resolve retires one handled upcall's pending entry and releases its
// waiters. Resolution is idempotent: the first resolver wins, and a
// fault-duplicated delivery or a reaped entry resolving the same flow
// again is a no-op.
func (u *Subsystem) resolve(it item, v vswitch.Verdict) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if it.p.resolved {
		return
	}
	u.resolveLocked(it.key, it.p, v)
	u.stats.Handled++
	if it.span != nil {
		// The burst's megaflows were installed and its one COW snapshot
		// published just before resolution, so at burst granularity both
		// stamps are the resolve tick.
		it.span.Install = u.clock
		it.span.Publish = u.clock
	}
}

// pendingLocked returns the pending flow of header h under key k, or nil:
// the chain of k's flows, confirmed on the header. Callers hold u.mu.
func (u *Subsystem) pendingLocked(k flowKey, h bitvec.Vec) *pendingFlow {
	for p := u.pending[k]; p != nil; p = p.tie {
		if p.h.Equal(h) {
			return p
		}
	}
	return nil
}

// resolveLocked settles pending flow p with verdict v: it leaves the
// pending table's chain of key k and every waiter is released. Callers
// hold u.mu and have checked p.resolved, so p is still in the table.
func (u *Subsystem) resolveLocked(k flowKey, p *pendingFlow, v vswitch.Verdict) {
	p.resolved = true
	p.verdict = v
	switch first := u.pending[k]; {
	case first == p && p.tie == nil:
		delete(u.pending, k)
	case first == p:
		u.pending[k] = p.tie
	default:
		for q := first; q != nil; q = q.tie {
			if q.tie == p {
				q.tie = p.tie
				break
			}
		}
	}
	p.tie = nil
	u.npending--
	u.resolved.Broadcast()
}

// ReapPending sweeps the pending table for orphaned entries — flows whose
// upcall is neither queued nor in limbo (a modelled handler died between
// pop and resolve, unsupervised) — and fails every entry older than age
// with the error verdict, releasing its waiters: the packet is dropped on
// the upcall path, the same loss mode as an admission refusal. It returns
// the number reaped. The revalidator calls this on its Tick cadence so a
// leaked entry cannot outlive the sweep horizon.
func (u *Subsystem) ReapPending(now, age int64) int {
	if age <= 0 {
		return 0
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if now > u.clock {
		u.clock = now
	}
	n := 0
	for k, first := range u.pending {
		for p, tie := first, (*pendingFlow)(nil); p != nil; p = tie {
			tie = p.tie
			if p.resolved || p.queued > 0 || now-p.born < age {
				continue
			}
			u.resolveLocked(k, p, vswitch.Verdict{Action: flowtable.Drop, Path: vswitch.PathUpcallDrop})
			u.stats.PendingReaped++
			n++
		}
	}
	if n > 0 {
		u.opts.Journal.Record(now, telemetry.EvPendingReaped, -1, int64(n))
	}
	return n
}

// handleOne pops and handles one upcall — the oldest of source src, else
// the next one round-robin — reporting whether there was one.
func (u *Subsystem) handleOne(src int) bool {
	u.mu.Lock()
	it, ok := u.popLocked(src)
	if !ok {
		it, ok = u.popAnyLocked()
	}
	u.mu.Unlock()
	if !ok {
		return false
	}
	var ms [1]vswitch.Miss
	var vs [1]vswitch.Verdict
	u.handleBatch([]item{it}, ms[:], vs[:])
	return true
}

// popLocked removes the oldest upcall of source src and records its
// residence — the virtual seconds between its enqueue stamp and the
// subsystem clock at pop time, the queueing-delay component of flow-setup
// latency. Callers hold u.mu.
func (u *Subsystem) popLocked(src int) (item, bool) {
	q := u.queues[src]
	h := u.heads[src]
	if h >= len(q) {
		return item{}, false
	}
	it := q[h]
	q[h] = item{} // release the header and pending references
	h++
	it.p.queued--
	if !it.p.resolved {
		// Zombie-duplicate pops (the flow was already resolved by another
		// copy of the item) do no flow setup and record no residence. A
		// requeued orphan records once per service attempt: the aborted
		// wait and the full wait are both real queueing delay.
		res := u.clock - it.now
		u.srcStats[src].Residence.Observe(res)
		u.stats.Residence.Observe(res)
		if u.residence != nil {
			u.residence.Observe(0, res)
		}
		if it.span != nil {
			it.span.Pop = u.clock
		}
	}
	switch {
	case h == len(q):
		// Queue drained: rewind so the backing array is reused.
		u.queues[src] = q[:0]
		u.heads[src] = 0
	case h >= 32 && h*2 >= len(q):
		// Mostly-consumed head: compact so a standing backlog (pops and
		// pushes balanced, queue never empty) keeps the backing array at
		// O(live items), not O(items ever enqueued). Amortised O(1).
		n := copy(q, q[h:])
		for i := n; i < len(q); i++ {
			q[i] = item{} // drop references from the vacated tail
		}
		u.queues[src] = q[:n]
		u.heads[src] = 0
	default:
		u.heads[src] = h
	}
	u.depth--
	return it, true
}

// popAnyLocked removes the oldest upcall of the next non-empty queue in
// round-robin order. Callers hold u.mu.
func (u *Subsystem) popAnyLocked() (item, bool) {
	for i := 0; i < len(u.queues); i++ {
		src := (u.next + i) % len(u.queues)
		if it, ok := u.popLocked(src); ok {
			u.next = (src + 1) % len(u.queues)
			return it, true
		}
	}
	return item{}, false
}
