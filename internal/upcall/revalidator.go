package upcall

import (
	"fmt"
	"sync"

	"tse/internal/faults"
	"tse/internal/telemetry"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// AdaptiveQuota parameterises revalidator-fed per-port quota adaptation:
// OVS sizes its upcall rate limiter from observed load, and this is that
// feedback loop for the simulated switch. Each revalidator sweep measures
// every port's slow-path pressure — its live megaflow footprint plus the
// entries expired, invalidated or monitor-deleted since the last sweep
// (churn: TSE megaflows are installed once and never hit again, so they
// die in bulk at the idle horizon, and MFCGuard suppressions kill them
// earlier) — and re-tunes the port's admission quota: at or below
// TargetFootprint the port keeps BaseQuota untouched, beyond it the quota
// shrinks inversely with pressure down to MinQuota. A flooding port
// throttles itself within a few sweeps while victim ports, whose
// footprint is a handful of megaflows, keep their full budget — and the
// flooding port's quota recovers to BaseQuota once its state expires.
//
// With only the three footprint fields set the controller is the original
// raw single-input map: QuotaFor(pressure) applied verbatim every sweep.
// That controller visibly flaps (±1 quota steps sweep to sweep, and
// bounces to BaseQuota whenever a policy-churn event briefly empties the
// cache). Setting any of the smoothing fields switches Next to the
// two-input de-flapped controller: both signals — megaflow pressure and
// the backlog residence the subsystem's latency histograms measure — are
// EWMA-smoothed, the more restrictive of the two implied quotas wins, and
// the quota only moves when that candidate leaves a hysteresis band
// around the current value (rails excepted: a candidate at BaseQuota or
// the MinQuota floor always snaps exactly). The raw controller remains
// available as the ablation the `portfairness` experiment's adaptiveraw
// mode measures against.
type AdaptiveQuota struct {
	// BaseQuota is the per-port per-second admission budget at rest, and
	// the adaptive maximum. Required > 0.
	BaseQuota int
	// MinQuota floors the adapted quota so a throttled port can still
	// install the occasional megaflow (and so recover); <= 0 selects 1.
	MinQuota int
	// TargetFootprint is the megaflow pressure a port may reach before
	// its quota shrinks; <= 0 selects BaseQuota.
	TargetFootprint int

	// TargetResidenceSec enables the second control input: the smoothed
	// backlog residence (mean virtual seconds a port's handled upcalls
	// spent queued, per sweep interval) a port may reach before its quota
	// shrinks. Beyond it the implied quota shrinks inversely with
	// residence down to MinQuota, exactly as pressure does beyond
	// TargetFootprint. <= 0 disables the residence input.
	TargetResidenceSec float64
	// EWMAAlpha is the smoothing weight of the newest sweep's signals,
	// in (0, 1]; <= 0 selects DefaultEWMAAlpha when the smoothed
	// controller is active.
	EWMAAlpha float64
	// HysteresisPct is the half-width of the hold band as a fraction of
	// the current quota: the quota moves only when the candidate falls
	// outside [quota*(1-h), quota*(1+h)] (or hits a rail). <= 0 selects
	// DefaultHysteresisPct when the smoothed controller is active.
	HysteresisPct float64
}

// DefaultEWMAAlpha is the smoothing weight of the de-flapped controller:
// heavy enough that a real regime shift converges within ~3 sweeps, light
// enough that one churn-emptied sweep cannot bounce the quota.
const DefaultEWMAAlpha = 0.5

// DefaultHysteresisPct is the hold band: the candidate quota must leave
// ±50% of the current value to move it, so the ±1-step jitter of a noisy
// plateau (and the slow tail of EWMA convergence) holds still.
const DefaultHysteresisPct = 0.5

// Smoothed reports whether any smoothing field selects the two-input
// de-flapped controller; false means Next degenerates to the raw
// per-sweep QuotaFor ablation.
func (a AdaptiveQuota) Smoothed() bool {
	return a.TargetResidenceSec > 0 || a.EWMAAlpha > 0 || a.HysteresisPct > 0
}

// QuotaFor maps one port's measured pressure to its next admission quota —
// the raw single-input controller, kept verbatim as the ablation baseline
// and as the pressure half of the smoothed controller.
func (a AdaptiveQuota) QuotaFor(pressure int) int {
	target := a.TargetFootprint
	if target <= 0 {
		target = a.BaseQuota
	}
	if pressure <= target {
		return a.BaseQuota
	}
	return max(a.BaseQuota*target/pressure, a.floor())
}

// floor is the lowest quota the controller hands out: MinQuota, at least 1.
func (a AdaptiveQuota) floor() int { return max(a.MinQuota, 1) }

// quotaForResidence maps the smoothed backlog residence to its implied
// quota: BaseQuota at or below the target, inverse shrink beyond it,
// floored at MinQuota. Disabled (BaseQuota) when TargetResidenceSec <= 0.
func (a AdaptiveQuota) quotaForResidence(resSec float64) int {
	if a.TargetResidenceSec <= 0 || resSec <= a.TargetResidenceSec {
		return a.BaseQuota
	}
	return max(int(float64(a.BaseQuota)*a.TargetResidenceSec/resSec), a.floor())
}

// QuotaState is one port's controller memory across sweeps: the smoothed
// signals and the quota currently in force. The zero value is an unseeded
// state; the first Next seeds the EWMAs from the raw signals and starts
// from BaseQuota.
type QuotaState struct {
	// EWMAPressure and EWMAResidence are the smoothed control inputs.
	EWMAPressure, EWMAResidence float64
	// Quota is the admission quota currently in force.
	Quota int
	// Seeded marks a state that has absorbed at least one sweep.
	Seeded bool
}

// Next advances one port's controller state by one sweep's raw signals —
// megaflow pressure (dumped entries + churn) and mean backlog residence
// over the sweep interval — and returns the quota to apply. Without
// smoothing fields set this is exactly QuotaFor(pressure), preserving the
// original single-input behaviour as the ablation.
func (a AdaptiveQuota) Next(st *QuotaState, pressure int, resSec float64) int {
	if !a.Smoothed() {
		st.Quota = a.QuotaFor(pressure)
		st.EWMAPressure, st.EWMAResidence = float64(pressure), resSec
		st.Seeded = true
		return st.Quota
	}
	alpha := a.EWMAAlpha
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	if !st.Seeded {
		st.Seeded = true
		st.Quota = a.BaseQuota
		st.EWMAPressure = float64(pressure)
		st.EWMAResidence = resSec
	} else {
		st.EWMAPressure = alpha*float64(pressure) + (1-alpha)*st.EWMAPressure
		st.EWMAResidence = alpha*resSec + (1-alpha)*st.EWMAResidence
	}
	// Two inputs, most restrictive wins: a churn event that empties the
	// cache (pressure gone) cannot bounce the quota while the backlog
	// residence still shows the handlers under water, and vice versa.
	cand := a.QuotaFor(int(st.EWMAPressure + 0.5))
	if qr := a.quotaForResidence(st.EWMAResidence); qr < cand {
		cand = qr
	}
	band := a.HysteresisPct
	if band <= 0 {
		band = DefaultHysteresisPct
	}
	switch {
	case cand == a.BaseQuota || cand == a.floor():
		// Rails snap exactly: recovery lands on BaseQuota, a saturating
		// flood lands on the floor.
		st.Quota = cand
	case float64(cand) < float64(st.Quota)*(1-band) ||
		float64(cand) > float64(st.Quota)*(1+band):
		st.Quota = cand
	}
	return st.Quota
}

// Revalidator is the megaflow-lifecycle loop of the asynchronous slow
// path, modelled on OVS's revalidator threads: on each sweep it dumps the
// megaflow cache, expires entries idle past the timeout, and re-checks the
// survivors against the current flow table (so a SwapTable becomes
// effective in the fast path at revalidator cadence, not synchronously).
// Monitor deletions — MFCGuard's sweeps — route through the same dump
// machinery via DeleteMegaflows, so the repository has exactly one
// megaflow-lifecycle path: vswitch.SweepMegaflows.
//
// With a Subsystem and an AdaptiveQuota configured, each sweep also
// aggregates its dump per ingress port (tss.Entry.Port) and feeds the
// per-port pressure back into the subsystem's admission quotas.
type Revalidator struct {
	sw         *vswitch.Switch
	sub        *Subsystem
	adapt      *AdaptiveQuota
	timeout    int64 // the switch's megaflow idle horizon
	pendingAge int64
	inj        *faults.Plan
	journal    *telemetry.Journal

	mu      sync.Mutex
	lastRun int64
	ran     bool
	stats   RevalidatorStats
	// states is the per-port controller memory of the adaptive loop and
	// prevRes the per-port residence-histogram snapshots the last sweep
	// read (the residence signal is the delta mean between sweeps). Both
	// are sized lazily to the subsystem's source count.
	states  []QuotaState
	prevRes []LatencyHist
	// carry accumulates per-port megaflow deletions routed through
	// DeleteMegaflows between sweeps (MFCGuard churn), so monitor
	// suppressions feed the same pressure sensor the sweep's own dump
	// does instead of being invisible to the adaptive controller.
	carry map[int]int
}

// RevalidatorConfig parameterises a Revalidator.
type RevalidatorConfig struct {
	// Switch is the device whose megaflow cache is maintained.
	Switch *vswitch.Switch
	// Subsystem, with Adapt, receives per-port quota updates derived from
	// each sweep's dump statistics. Ports are the subsystem's sources.
	Subsystem *Subsystem
	// Adapt enables the adaptive per-port quota feedback loop.
	Adapt *AdaptiveQuota
	// PendingAgeSec is the orphaned-pending-entry reap horizon: each sweep
	// fails pending-table entries (Subsystem.ReapPending) that have no
	// queued or delayed upcall behind them and are at least this
	// old. 0 selects three idle timeouts (a leaked entry outlives the
	// megaflows it should have installed, but not by much); negative
	// disables the reaper (the chaos ablation that lets the wedge show).
	PendingAgeSec int64
	// Injector is the optional fault-injection schedule; a
	// RevalidatorStall window suppresses Tick's sweeps entirely.
	Injector *faults.Plan
	// Journal, when non-nil, receives sweep / sweep-stall / quota-retune
	// events (a retune is journalled only when a port's quota actually
	// moves, so the de-flapped controller's timeline stays quiet).
	Journal *telemetry.Journal
	// Metrics, when non-nil, registers pull-model collectors over the
	// revalidator counters — evaluated at snapshot time, never on the
	// sweep path.
	Metrics *telemetry.Registry
}

// RevalidatorStats aggregates revalidator activity.
type RevalidatorStats struct {
	// Sweeps counts dump passes.
	Sweeps uint64
	// Dumped counts entries examined across sweeps; Expired and
	// Invalidated count deletions by cause; Suppressed counts monitor
	// deletions routed through DeleteMegaflows.
	Dumped, Expired, Invalidated, Suppressed uint64
	// OrphanPressure counts dumped entries whose ingress port has no
	// admission source behind it (tss.Entry.Port >= Subsystem.Sources()):
	// their pressure is measured but cannot be fed back into any quota.
	// Nonzero means the datapath is installing megaflows for ports the
	// upcall subsystem was not sized for — surfaced here instead of being
	// silently dropped on the floor.
	OrphanPressure uint64
	// SweepStalls counts sweeps suppressed by an injected revalidator
	// stall: ticks where the cadence owed a sweep that never ran.
	SweepStalls uint64
}

// NewRevalidator validates the configuration and returns a Revalidator.
func NewRevalidator(cfg RevalidatorConfig) (*Revalidator, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("upcall: revalidator needs a switch")
	}
	timeout := cfg.Switch.IdleTimeout()
	if cfg.Adapt != nil {
		if cfg.Subsystem == nil {
			return nil, fmt.Errorf("upcall: adaptive quotas need a subsystem to tune")
		}
		if cfg.Adapt.BaseQuota <= 0 {
			return nil, fmt.Errorf("upcall: adaptive quotas need BaseQuota > 0")
		}
		if a := cfg.Adapt.EWMAAlpha; a < 0 || a > 1 {
			return nil, fmt.Errorf("upcall: EWMAAlpha %v outside [0, 1]", a)
		}
		if cfg.Adapt.HysteresisPct < 0 {
			return nil, fmt.Errorf("upcall: negative HysteresisPct %v", cfg.Adapt.HysteresisPct)
		}
		if cfg.Adapt.TargetResidenceSec < 0 {
			return nil, fmt.Errorf("upcall: negative TargetResidenceSec %v", cfg.Adapt.TargetResidenceSec)
		}
	}
	pendingAge := cfg.PendingAgeSec
	switch {
	case pendingAge < 0:
		pendingAge = 0 // reaper disabled
	case pendingAge == 0:
		pendingAge = 3 * timeout
	}
	rv := &Revalidator{sw: cfg.Switch, sub: cfg.Subsystem, adapt: cfg.Adapt, timeout: timeout,
		pendingAge: pendingAge, inj: cfg.Injector, journal: cfg.Journal}
	if reg := cfg.Metrics; reg != nil {
		stat := func(get func(RevalidatorStats) uint64) func() uint64 {
			return func() uint64 { return get(rv.Stats()) }
		}
		reg.CounterFunc("tse_revalidator_sweeps_total",
			"Revalidator dump-expire-revalidate passes.",
			stat(func(s RevalidatorStats) uint64 { return s.Sweeps }))
		reg.CounterFunc("tse_megaflow_expired_total",
			"Megaflows expired at the idle horizon by revalidator sweeps.",
			stat(func(s RevalidatorStats) uint64 { return s.Expired }))
		reg.CounterFunc("tse_megaflow_invalidated_total",
			"Megaflows deleted because the flow table no longer regenerates them.",
			stat(func(s RevalidatorStats) uint64 { return s.Invalidated }))
		reg.CounterFunc("tse_megaflow_suppressed_total",
			"Megaflows deleted by monitor sweeps routed through the revalidator.",
			stat(func(s RevalidatorStats) uint64 { return s.Suppressed }))
		reg.CounterFunc("tse_revalidator_orphan_pressure_total",
			"Dumped entries whose ingress port has no admission source to tune.",
			stat(func(s RevalidatorStats) uint64 { return s.OrphanPressure }))
		reg.CounterFunc("tse_revalidator_sweep_stalls_total",
			"Sweeps suppressed by an injected revalidator stall.",
			stat(func(s RevalidatorStats) uint64 { return s.SweepStalls }))
	}
	return rv, nil
}

// Tick runs a sweep at virtual time now unless one already ran at this
// tick, returning the sweep result (zero when none ran): the cadence is
// one sweep per virtual second (OVS revalidators wake sub-second; the
// simulator's clock is one-second grained). An injected revalidator stall
// suppresses the sweep without advancing the cadence, so the first
// un-stalled tick sweeps immediately (catch-up).
func (r *Revalidator) Tick(now int64) vswitch.SweepResult {
	r.mu.Lock()
	if r.ran && now <= r.lastRun {
		r.mu.Unlock()
		return vswitch.SweepResult{}
	}
	r.mu.Unlock()
	if r.inj != nil && r.inj.RevalidatorStalledAt(now) {
		r.mu.Lock()
		r.stats.SweepStalls++
		r.mu.Unlock()
		r.journal.Record(now, telemetry.EvSweepStall, -1, 0)
		return vswitch.SweepResult{}
	}
	return r.Sweep(now) // records the run time
}

// Sweep performs one dump-expire-revalidate pass immediately: idle entries
// are expired exactly as Switch.Tick would, and entries the current flow
// table no longer regenerates are deleted (the asynchronous counterpart of
// ReplaceTable's inline revalidation).
//
// The per-entry regenerate check runs only while the switch reports an
// unsettled table swap: on a quiet table a cached megaflow can never fail
// revalidation, so the routine sweep stays a cheap timestamp walk instead
// of regenerating the whole (possibly attack-inflated) cache under the
// classifier's writer lock every interval. After a full regenerate pass
// the swap is marked settled, restoring the switch's strict
// overlap-is-a-bug invariant.
func (r *Revalidator) Sweep(now int64) vswitch.SweepResult {
	// Record the run time whether the caller is Tick or a direct Sweep:
	// without this a direct Sweep(now) followed by a Tick inside the same
	// interval double-swept (double-counting Dumped and re-tuning quotas
	// twice per interval).
	r.mu.Lock()
	r.lastRun, r.ran = now, true
	r.mu.Unlock()
	// With adaptive quotas on, the sweep doubles as the per-port load
	// sensor: pressure[p] counts port p's dumped entries — its live
	// megaflow footprint, whatever this sweep deletes (the churn of a
	// flood whose megaflows die unhit at the idle horizon), plus the
	// monitor deletions (DeleteMegaflows) carried over since the last
	// sweep.
	var pressure map[int]int
	if r.adapt != nil {
		pressure = make(map[int]int)
		r.mu.Lock()
		for p, n := range r.carry {
			pressure[p] += n
		}
		r.carry = nil
		r.mu.Unlock()
	}
	track := func(e *tss.Entry) {
		if pressure != nil {
			pressure[int(e.Port)]++
		}
	}
	var res vswitch.SweepResult
	if !r.sw.NeedsRevalidation() {
		res = r.sw.SweepMegaflows(func(e *tss.Entry) vswitch.SweepDecision {
			track(e)
			if now-e.LastUsedAt() >= r.timeout {
				return vswitch.SweepExpire
			}
			return vswitch.SweepKeep
		})
	} else {
		seq := r.sw.GenSeq()
		gen := r.sw.Generator()
		res = r.sw.SweepMegaflows(func(e *tss.Entry) vswitch.SweepDecision {
			track(e)
			if now-e.LastUsedAt() >= r.timeout {
				return vswitch.SweepExpire
			}
			if !vswitch.Revalidate(gen, e) {
				return vswitch.SweepInvalidate
			}
			return vswitch.SweepKeep
		})
		r.sw.MarkRevalidated(seq)
	}
	if r.adapt != nil {
		r.retune(now, pressure)
	}
	// The sweep doubles as the pending-table janitor: entries orphaned by
	// an unsupervised handler death (popped, never resolved, never
	// requeued) are failed once they outlive the reap horizon, releasing
	// their waiters and unwedging the dedup key.
	if r.sub != nil && r.pendingAge > 0 {
		r.sub.ReapPending(now, r.pendingAge)
	}
	r.record(res)
	// A sweep that actually deleted something is a control-plane event: the
	// cache shrank without the data path's involvement.
	if n := res.Expired + res.Invalidated; n > 0 {
		r.journal.Record(now, telemetry.EvSweep, -1, int64(n))
	}
	return res
}

// retune feeds one sweep's per-port pressure (and the subsystem's
// residence histograms) through the adaptive controller and applies the
// resulting quotas. Pressure attributed to ports outside the subsystem's
// source range cannot be tuned; it is surfaced via
// RevalidatorStats.OrphanPressure instead of being silently dropped.
func (r *Revalidator) retune(now int64, pressure map[int]int) {
	sources := r.sub.Sources()
	per := r.sub.PerSource()
	r.mu.Lock()
	if len(r.states) < sources {
		r.states = append(r.states, make([]QuotaState, sources-len(r.states))...)
		r.prevRes = append(r.prevRes, make([]LatencyHist, sources-len(r.prevRes))...)
	}
	for p, n := range pressure {
		if p < 0 || p >= sources {
			r.stats.OrphanPressure += uint64(n)
		}
	}
	type tuned struct {
		src, quota int
		moved      bool
	}
	quotas := make([]tuned, 0, sources)
	for src := 0; src < sources; src++ {
		// The residence signal is the mean flow-setup latency of the
		// upcalls this port had handled since the last sweep.
		delta := per[src].Residence.Delta(r.prevRes[src])
		r.prevRes[src] = per[src].Residence
		seeded, prev := r.states[src].Seeded, r.states[src].Quota
		q := r.adapt.Next(&r.states[src], pressure[src], delta.Mean())
		// A retune is journalled only when an already-seeded quota actually
		// moves: the first sweep's seeding of every port is setup, not news,
		// and a de-flapped controller's timeline should stay quiet.
		quotas = append(quotas, tuned{src, q, seeded && q != prev})
	}
	r.mu.Unlock()
	// Apply outside r.mu: SetQuota takes the subsystem lock.
	for _, t := range quotas {
		r.sub.SetQuota(t.src, t.quota)
		if t.moved {
			r.journal.Record(now, telemetry.EvQuotaRetune, t.src, int64(t.quota))
		}
	}
}

// DeleteMegaflows routes a monitor deletion (an MFCGuard sweep) through
// the revalidator's dump machinery, with the quirk ledger semantics of
// vswitch.DeleteMegaflows, and records it in the revalidator stats. It
// satisfies mitigation.Sweeper, so a guard and a revalidator share one
// lifecycle path.
//
// With adaptive quotas on, each suppressed entry is also fed into the
// per-port pressure sensor (carried into the next sweep's pressure map):
// guard-driven churn is slow-path load exactly like idle expiry, and
// leaving it out made MFCGuard sweeps invisible to AdaptiveQuota — a
// flooding port whose megaflows the guard kept deleting looked idle.
func (r *Revalidator) DeleteMegaflows(pred func(*tss.Entry) bool) int {
	var suppressed map[int]int
	if r.adapt != nil {
		suppressed = make(map[int]int)
	}
	res := r.sw.SweepMegaflows(func(e *tss.Entry) vswitch.SweepDecision {
		if pred(e) {
			if suppressed != nil {
				suppressed[int(e.Port)]++
			}
			return vswitch.SweepSuppress
		}
		return vswitch.SweepKeep
	})
	if len(suppressed) > 0 {
		r.mu.Lock()
		if r.carry == nil {
			r.carry = make(map[int]int)
		}
		for p, n := range suppressed {
			r.carry[p] += n
		}
		r.mu.Unlock()
	}
	r.record(res)
	return res.Suppressed
}

// Stats returns a snapshot of the revalidator counters.
func (r *Revalidator) Stats() RevalidatorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Revalidator) record(res vswitch.SweepResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Sweeps++
	r.stats.Dumped += uint64(res.Dumped)
	r.stats.Expired += uint64(res.Expired)
	r.stats.Invalidated += uint64(res.Invalidated)
	r.stats.Suppressed += uint64(res.Suppressed)
}
