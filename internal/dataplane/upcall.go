package dataplane

import (
	"tse/internal/faults"
	"tse/internal/telemetry"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// This file implements the asynchronous-slow-path scenario dimension: the
// time-stepped simulator driven over the upcall subsystem, regenerating
// the slow-path saturation regime the paper's attack creates (every attack
// packet is a flow miss; the queue bounds, fairness quotas and handler
// service rate decide who gets slow-path service and whose megaflows get
// installed). Queues and quotas are keyed by ingress vport — the
// granularity OVS rate-limits upcalls at — so per-port traffic mixes
// (attacker port vs victim ports) exercise the fairness story exactly.

// UpcallParams switches a scenario to the asynchronous slow path. The
// subsystem and revalidator knobs are upcall's own structs, declared once
// there; the engine fills in what it owns — the switch, the subsystem, the
// telemetry hub and the fault plan.
type UpcallParams struct {
	// Options are the subsystem knobs, keyed by ingress vport (QueueCap,
	// QuotaPerSource, ModelledHandlers, DisableSupervisor, BreakerSLOSec,
	// ...). The engine owns the drain (HandleNAt), so runs are
	// deterministic. QuotaPerSource is ignored when Revalidator.Adapt is
	// set: the controller owns the quota and re-tunes it within
	// [MinQuota, BaseQuota] every sweep, so Adapt.BaseQuota is
	// authoritative.
	upcall.Options
	// Revalidator are the knobs of the loop that replaces the inline
	// Switch.Tick idle expiry and additionally re-checks entries against
	// the current flow table, so mid-run ACL injections take effect at its
	// once-a-second cadence (Adapt, PendingAgeSec, ...).
	Revalidator upcall.RevalidatorConfig
	// HandledPerSec is the handler service rate: how many upcalls the
	// slow-path daemon classifies per virtual second (<= 0 = unlimited —
	// the whole backlog drains every second). This is the saturation
	// knob: the paper's testbed saturates ovs-vswitchd towards 50k
	// upcalls/s (Fig. 9c). Drained upcalls resolve through the switch's
	// one slow path (vswitch.HandleMissBatch) in bursts that share one
	// megaflow-install transaction (upcall.HandlerBurst).
	HandledPerSec int
	// Faults is the optional deterministic fault schedule, threaded into
	// the upcall subsystem (handler panics/stalls, delivery faults), the
	// revalidator (sweep stalls) and the switch (install errors).
	Faults *faults.Plan
}

// UpcallSample is the per-second queue/handler/revalidator series of an
// asynchronous run.
type UpcallSample struct {
	// Enqueued, Deduped, QueueDrops and QuotaDrops are this second's
	// admission outcomes; Handled is the number of upcalls the handler
	// budget served and Installed the megaflows that produced.
	Enqueued, Deduped, QueueDrops, QuotaDrops, Handled, Installed int
	// Backlog is the queue depth left at the end of the second.
	Backlog int
	// Expired and Invalidated are the revalidator's deletions this second.
	Expired, Invalidated int
	// HandlerCost is the CPU this second's handler work consumed, in the
	// same units as Sample.AttackCost. Handler threads are separate from
	// the PMD cores (as ovs-vswitchd is), so it is reported, not
	// subtracted from the per-core budgets.
	HandlerCost float64
	// PortQuota is each upcall source's admission quota in effect at the
	// end of the second (after any adaptive re-tune), and PortQuotaDrops
	// the second's quota refusals per source. Sources are vports.
	PortQuota      []int
	PortQuotaDrops []int
	// FlowSetupP50 and FlowSetupP99 are this second's flow-setup latency
	// percentiles in virtual seconds: how long the upcalls handled this
	// second sat queued between admission and handler pop (the queueing
	// delay a cache miss pays behind a flooded backlog before its
	// megaflow installs). -1 when no upcall was handled this second.
	FlowSetupP50, FlowSetupP99 int
	// PortFlowSetupP50/P99 split the same percentiles per upcall source,
	// aligned with PortQuota; -1 for sources that handled nothing this
	// second.
	PortFlowSetupP50, PortFlowSetupP99 []int
	// PendingFlows is the pending-table size at the end of the second: a
	// value that stays elevated after the backlog drains is the leak
	// signature the supervisor/reaper exist to prevent.
	PendingFlows int
	// HandlerPanics, StallsDetected and HandlerRestarts are this second's
	// supervisor events; Requeued counts orphaned in-flight upcalls
	// returned to the queues and PendingReaped aged-out pending entries
	// failed by the revalidator's reaper.
	HandlerPanics, StallsDetected, HandlerRestarts, Requeued, PendingReaped int
	// BreakerTrips counts breakers tripping open this second and
	// BreakerShed submissions fast-failed by non-closed breakers;
	// PortBreaker is each source's breaker phase at the end of the second
	// ("closed"/"open"/"half-open"), nil when the breaker is disabled.
	BreakerTrips, BreakerShed int
	PortBreaker               []string
	// InstallErrors counts megaflow installs failed by the injected
	// install fault this second; SweepStalls counts revalidator sweeps an
	// injected stall suppressed.
	InstallErrors, SweepStalls int
	// OrphanPressure is this second's dumped-entry count attributed to
	// ingress ports outside the upcall subsystem's source range
	// (upcall.RevalidatorStats.OrphanPressure delta): megaflow footprint
	// the adaptive controller measured but could not feed back into any
	// quota.
	OrphanPressure int
}

// options completes the subsystem knobs with what the engine owns: the
// fault plan and the hub.
func (up *UpcallParams) options(hub telemetry.Hub) *upcall.Options {
	o := up.Options
	if a := up.Revalidator.Adapt; a != nil {
		o.QuotaPerSource = a.BaseQuota
	}
	o.Injector = up.Faults
	o.Metrics, o.Journal, o.Tracer = hub.Reg, hub.Journal, hub.Tracer
	return &o
}

// revalidator builds the loop that replaces the inline Switch.Tick idle
// expiry for sub's switch, and arms the switch's side of the fault
// schedule.
func (up *UpcallParams) revalidator(sw *vswitch.Switch, sub *upcall.Subsystem, hub telemetry.Hub) (*upcall.Revalidator, error) {
	if up.Faults != nil {
		// Install errors are the switch's side of the fault schedule: a
		// window during which the slow path refuses to install megaflows,
		// so every packet of the affected flows keeps missing.
		sw.SetInstallFault(up.Faults.InstallErrorAt)
	}
	cfg := up.Revalidator
	cfg.Switch, cfg.Subsystem = sw, sub // quota re-tunes and the pending reaper
	cfg.Injector = up.Faults
	cfg.Journal, cfg.Metrics = hub.Journal, hub.Reg
	return upcall.NewRevalidator(cfg)
}

// journalFaults records tick now's scheduled fault injections, so the
// timeline shows cause (injection) strictly before effect (panic, stall,
// shed). Delivery faults get their own kind.
func (up *UpcallParams) journalFaults(journal *telemetry.Journal, now int64) {
	if journal == nil || up.Faults == nil {
		return
	}
	for _, ev := range up.Faults.ScheduledAt(now) {
		kind, actor := telemetry.EvFaultInjected, ev.Handler
		switch ev.Kind {
		case faults.DeliverDelay, faults.DeliverDuplicate:
			kind, actor = telemetry.EvDeliveryFault, ev.Source
		case faults.RevalidatorStall, faults.InstallError:
			actor = -1
		}
		journal.RecordNote(now, kind, actor, ev.Duration, ev.Kind.String())
	}
}

// upcallTotals is the cumulative slow-path state one sample is diffed
// against the next from.
type upcallTotals struct {
	stats                 upcall.Stats
	per                   []upcall.SourceStats
	installs, installErrs uint64
	rv                    upcall.RevalidatorStats
}

func (e *Engine) upcallTotals() upcallTotals {
	c := e.pool.Switch().Counters()
	return upcallTotals{
		stats:       e.pool.Upcalls().Stats(),
		per:         e.pool.Upcalls().PerSource(),
		installs:    c.Installs,
		installErrs: c.InstallErrors,
		rv:          e.rv.Stats(),
	}
}

// upcallSample folds the second's slow-path activity — everything since
// the previous sample — into the per-second series.
func (e *Engine) upcallSample(now int64, handled int, swept vswitch.SweepResult) *UpcallSample {
	sub := e.pool.Upcalls()
	prev, cur := e.prev, e.upcallTotals()
	e.prev = cur
	st, per := cur.stats, cur.per
	// The residence histograms are cumulative, so this second's flow-setup
	// latency distribution is the delta against the previous snapshot.
	resDelta := st.Residence.Delta(prev.stats.Residence)
	u := &UpcallSample{
		Enqueued:         int(st.Enqueued - prev.stats.Enqueued),
		Deduped:          int(st.Deduped - prev.stats.Deduped),
		QueueDrops:       int(st.QueueDrops - prev.stats.QueueDrops),
		QuotaDrops:       int(st.QuotaDrops - prev.stats.QuotaDrops),
		Handled:          handled,
		Installed:        int(cur.installs - prev.installs),
		Backlog:          st.Backlog,
		Expired:          swept.Expired,
		Invalidated:      swept.Invalidated,
		HandlerCost:      float64(handled) * e.nic.SlowPathCost,
		PortQuota:        make([]int, len(per)),
		PortQuotaDrops:   make([]int, len(per)),
		FlowSetupP50:     int(resDelta.P50()),
		FlowSetupP99:     int(resDelta.P99()),
		PortFlowSetupP50: make([]int, len(per)),
		PortFlowSetupP99: make([]int, len(per)),
		PendingFlows:     st.PendingFlows,
		HandlerPanics:    int(st.HandlerPanics - prev.stats.HandlerPanics),
		StallsDetected:   int(st.StallsDetected - prev.stats.StallsDetected),
		HandlerRestarts:  int(st.HandlerRestarts - prev.stats.HandlerRestarts),
		Requeued:         int(st.Requeued - prev.stats.Requeued),
		PendingReaped:    int(st.PendingReaped - prev.stats.PendingReaped),
		BreakerTrips:     int(st.BreakerTrips - prev.stats.BreakerTrips),
		BreakerShed:      int(st.BreakerShed - prev.stats.BreakerShed),
		InstallErrors:    int(cur.installErrs - prev.installErrs),
		SweepStalls:      int(cur.rv.SweepStalls - prev.rv.SweepStalls),
		OrphanPressure:   int(cur.rv.OrphanPressure - prev.rv.OrphanPressure),
	}
	if u.InstallErrors > 0 {
		e.journal.Record(now, telemetry.EvInstallError, -1, int64(u.InstallErrors))
	}
	if phases := sub.BreakerPhases(); phases != nil {
		u.PortBreaker = make([]string, len(phases))
		for p, ph := range phases {
			u.PortBreaker[p] = ph.String()
		}
	}
	for p := range per {
		u.PortQuota[p] = sub.QuotaFor(p)
		u.PortQuotaDrops[p] = int(per[p].QuotaDrops - prev.per[p].QuotaDrops)
		d := per[p].Residence.Delta(prev.per[p].Residence)
		u.PortFlowSetupP50[p] = int(d.P50())
		u.PortFlowSetupP99[p] = int(d.P99())
	}
	return u
}
