package experiments

import (
	"fmt"
	"io"

	"tse/internal/dataplane"
	"tse/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Chaos — slow-path fault injection: unsupervised wedge vs supervised self-healing under attack",
		Run:   RunChaos,
	})
}

// chaosSummary condenses one chaos run into the table row the experiment
// prints.
type chaosSummary struct {
	Mode dataplane.ChaosMode
	// LateUnderGbps is the mid-attack victim's throughput averaged over
	// [20, 35) — the fault schedule lands at t=23..33, squarely on this
	// window. UnderGbps and PostGbps mirror the fairness experiment.
	LateUnderGbps, UnderGbps, PostGbps float64
	// PeakBacklog is the worst end-of-second queue depth; PendingLeaked is
	// the pending-table size at the end of the run — nonzero means upcalls
	// whose waiters never got a verdict (the leak the supervisor and the
	// reaper exist to prevent).
	PeakBacklog, PendingLeaked int
	// Supervisor ledger: injected panics observed, stalls detected,
	// respawns, orphaned in-flight upcalls requeued, aged pending entries
	// reaped.
	Panics, Stalls, Restarts, Requeued, Reaped int
	// Breaker ledger: trips open and submissions shed while non-closed.
	BreakerTrips, BreakerShed int
	// Fault-plan side effects observed: failed megaflow installs and
	// revalidator sweeps suppressed.
	InstallErrors, SweepStalls int
	// FaultSec is the second the first fault landed (-1 if none did);
	// RecoverySec is how many seconds after FaultSec the victims were back
	// inside 1.5x their pre-fault flow-setup p99 envelope (-1 = never).
	FaultSec, RecoverySec int
	// WorstVictimP99 is the worst per-second victim flow-setup p99 during
	// the attack window, the damage the fault schedule adds on top of the
	// flood (-1 when no victim upcall was handled under attack).
	WorstVictimP99 int
}

// victimP99 is the worst victim-port flow-setup p99 of one sample (-1 when
// neither victim port handled an upcall that second). The victim vports of
// PortFairnessScenario, and so of ChaosScenario, are 1 (present from t=0)
// and 2 (joins at 15).
func victimP99(u *dataplane.UpcallSample) int {
	p99 := -1
	for _, port := range []int{1, 2} {
		if port < len(u.PortFlowSetupP99) && u.PortFlowSetupP99[port] > p99 {
			p99 = u.PortFlowSetupP99[port]
		}
	}
	return p99
}

// worstVictimP99 is the worst victimP99 over seconds [from, to) (-1 when
// no victim upcall was handled in the window).
func worstVictimP99(samples []dataplane.Sample, from, to int) int {
	worst := -1
	for _, smp := range samples {
		if smp.Sec >= from && smp.Sec < to && smp.Upcall != nil {
			worst = max(worst, victimP99(smp.Upcall))
		}
	}
	return worst
}

// lateVictimGbps averages the mid-attack victim's throughput over
// [20, 35): the flow that tries to establish while the flood rages.
func lateVictimGbps(samples []dataplane.Sample) float64 {
	sum, n := 0.0, 0
	for _, smp := range samples {
		if smp.Sec >= 20 && smp.Sec < 35 && smp.Upcall != nil && len(smp.VictimGbps) > 1 {
			sum += smp.VictimGbps[1]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// foldChaos summarises one run. Recovery is measured against the victims'
// own flow-setup latency: preP99 is the worst victim p99 in the 5 seconds
// before the first fault, and the run has recovered at the first second >=
// FaultSec where the victims are healthy again — either their setup p99 is
// back inside max(1, 1.5*preP99), or no victim upcall was needed at all
// *and* both victims are moving traffic (their megaflows are installed and
// serving, the steady state the slow path exists to reach).
func foldChaos(mode dataplane.ChaosMode, samples []dataplane.Sample) chaosSummary {
	s := chaosSummary{Mode: mode, FaultSec: -1, RecoverySec: -1}
	for _, smp := range samples {
		u := smp.Upcall
		if u == nil {
			continue
		}
		if u.Backlog > s.PeakBacklog {
			s.PeakBacklog = u.Backlog
		}
		s.PendingLeaked = u.PendingFlows // last sample wins
		s.Panics += u.HandlerPanics
		s.Stalls += u.StallsDetected
		s.Restarts += u.HandlerRestarts
		s.Requeued += u.Requeued
		s.Reaped += u.PendingReaped
		s.BreakerTrips += u.BreakerTrips
		s.BreakerShed += u.BreakerShed
		s.InstallErrors += u.InstallErrors
		s.SweepStalls += u.SweepStalls
		if s.FaultSec < 0 && (u.HandlerPanics > 0 || u.StallsDetected > 0 ||
			u.InstallErrors > 0 || u.SweepStalls > 0) {
			s.FaultSec = smp.Sec
		}
	}
	s.WorstVictimP99 = worstVictimP99(samples, 5, 35)
	s.LateUnderGbps = lateVictimGbps(samples)
	s.UnderGbps = avgVictimGbps(samples, 20, 35)
	s.PostGbps = avgVictimGbps(samples, 40, 45)
	if s.FaultSec >= 0 {
		s.RecoverySec = chaosRecovery(samples, s.FaultSec)
	}
	return s
}

// chaosRecovery finds the first healthy second at or after faultSec and
// returns its distance from faultSec, or -1 if the run never recovers.
func chaosRecovery(samples []dataplane.Sample, faultSec int) int {
	pre := worstVictimP99(samples, faultSec-5, faultSec)
	thresh := 1
	if t := pre + pre/2; t > thresh { // 1.5x pre-fault, integer seconds
		thresh = t
	}
	for _, smp := range samples {
		if smp.Sec < faultSec || smp.Upcall == nil {
			continue
		}
		p := victimP99(smp.Upcall)
		healthy := p >= 0 && p <= thresh
		if p < 0 && len(smp.VictimGbps) > 1 {
			healthy = smp.VictimGbps[0] > 0 && smp.VictimGbps[1] > 0
		}
		if healthy {
			return smp.Sec - faultSec
		}
	}
	return -1
}

// runChaos builds and runs one chaos mode, returning the run's slice of
// the control-plane event journal alongside the summary.
func runChaos(mode dataplane.ChaosMode) (chaosSummary, []dataplane.Sample, []telemetry.Event, error) {
	samples, events, err := runJournaled(dataplane.ChaosScenario(mode))
	return foldChaos(mode, samples), samples, events, err
}

// RunChaos replays the port-fairness attack under the deterministic fault
// schedule (handler panic at flood peak, wedged revalidator, failing
// installs, delivery faults, a stalled handler) in three configurations:
// fault-free baseline, unsupervised (the ablation that wedges), and
// supervised self-healing with the SLO breaker.
func RunChaos(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %11s %8s %7s %7s %7s %7s %7s %7s %6s %6s %8s %8s\n",
		"chaos mode", "late victim", "backlog", "pending",
		"panics", "stalls", "respawn", "requeue", "reaped",
		"trips", "shed", "recovery", "vfct-p99")
	var supSamples []dataplane.Sample
	var supEvents []telemetry.Event
	for _, mode := range []dataplane.ChaosMode{
		dataplane.ChaosFaultFree,
		dataplane.ChaosUnsupervised,
		dataplane.ChaosSupervised,
	} {
		s, samples, events, err := runChaos(mode)
		if err != nil {
			return err
		}
		if mode == dataplane.ChaosSupervised {
			supSamples, supEvents = samples, events
		}
		rec := "-"
		if s.RecoverySec >= 0 {
			rec = fmt.Sprintf("%ds", s.RecoverySec)
		}
		fmt.Fprintf(w, "%-12s %10.2fG %8d %7d %7d %7d %7d %7d %7d %6d %6d %8s %7ds\n",
			s.Mode, s.LateUnderGbps, s.PeakBacklog, s.PendingLeaked,
			s.Panics, s.Stalls, s.Restarts, s.Requeued, s.Reaped,
			s.BreakerTrips, s.BreakerShed, rec, s.WorstVictimP99)
	}
	fmt.Fprintln(w, "\nThe fault schedule lands at attack peak: a handler panics at t=23")
	fmt.Fprintln(w, "(one tick after a policy-churn event, so its in-flight burst holds the")
	fmt.Fprintln(w, "victims' re-establishment upcalls), the revalidator wedges for 3 s,")
	fmt.Fprintln(w, "megaflow installs fail for 1 s, the flooding port's deliveries are")
	fmt.Fprintln(w, "delayed then duplicated, and a second handler stalls for 4 s at t=30.")
	fmt.Fprintln(w, "Unsupervised, the dead handlers never come back: service halves, the")
	fmt.Fprintln(w, "orphaned upcalls leak in the pending table (the pending column), and")
	fmt.Fprintln(w, "the backlog outlives the attack. Supervised, the panic respawns the")
	fmt.Fprintln(w, "handler on the next drain, the stall is detected within the 1 s")
	fmt.Fprintln(w, "timeout, orphans are requeued and served, the revalidator's reaper")
	fmt.Fprintln(w, "fails any pending entry that still slipped through, and the per-port")
	fmt.Fprintln(w, "SLO breaker sheds the flooding port's submissions while its backlog")
	fmt.Fprintln(w, "residence violates the 2 s SLO — so victim flow setup returns to its")
	fmt.Fprintln(w, "pre-fault envelope within the recovery column's bound while the flood")
	fmt.Fprintln(w, "still rages.")

	// The causal timeline: the supervised run's control-plane journal,
	// filtered to injections and the self-healing reactions, so cause
	// (fault fires) reads strictly above effect (respawn, trip, close).
	fmt.Fprintln(w, "\ncausal timeline — supervised run (control-plane event journal):")
	telemetry.RenderTimeline(w, telemetry.FilterEvents(supEvents,
		telemetry.EvFaultInjected, telemetry.EvDeliveryFault,
		telemetry.EvHandlerPanic, telemetry.EvOrphanRequeue,
		telemetry.EvHandlerStall, telemetry.EvHandlerRestart,
		telemetry.EvBreakerTrip, telemetry.EvBreakerHalfOpen,
		telemetry.EvBreakerClose, telemetry.EvInstallError,
		telemetry.EvSweepStall, telemetry.EvPendingReaped))
	return renderFCTPanel(w, "chaos supervised", supSamples)
}
