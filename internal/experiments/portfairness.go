package experiments

import (
	"fmt"
	"io"

	"tse/internal/dataplane"
	"tse/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "portfairness",
		Title: "Per-port slow-path fairness — worker-keyed vs port-keyed vs adaptive (raw/smoothed) quotas",
		Run:   RunPortFairness,
	})
}

// fairnessSummary condenses one port-fairness run into the table row the
// experiment prints.
type fairnessSummary struct {
	Mode       dataplane.PortFairnessMode
	PeakMasks  int
	Enqueued   int
	QuotaDrops int
	// LateUnderGbps is the mid-attack victim's throughput averaged over
	// [20, 35) — the flow that tries to establish while the flood rages,
	// the paper's newly-established-flow casualty. UnderGbps is all
	// victims' total over the same window, PostGbps after recovery.
	LateUnderGbps, UnderGbps, PostGbps float64
	// FloodQuotaEnd is the flooding source's admission quota at the end
	// of the attack window (BaseQuota unless the adaptive loop shrank it).
	FloodQuotaEnd int
	// VictimFctP99 is the worst per-second flow-setup latency p99 either
	// victim port pays during the attack window, in virtual seconds of
	// upcall residence (-1 when no victim upcall was handled under attack).
	VictimFctP99 int
	// QuotaChanges counts the seconds in the steady mid-attack window
	// [15, 35) where the flooding port's quota differs from the previous
	// second — the oscillation figure the de-flapped controller exists to
	// drive to zero.
	QuotaChanges int
	// OrphanPressure totals the revalidator's dumped-entry count for
	// ingress ports outside the upcall subsystem's source range over the
	// run: slow-path load the adaptive controller measured but had no
	// quota to feed it back into. Nonzero means the scenario drives ports
	// the admission layer was not sized for.
	OrphanPressure int
}

// foldPortFairness summarises one run; the attack window of
// PortFairnessScenario is [5, 35) with the late victim joining at 15.
func foldPortFairness(mode dataplane.PortFairnessMode, samples []dataplane.Sample) fairnessSummary {
	s := fairnessSummary{Mode: mode}
	prevQuota := -1
	for _, smp := range samples {
		if smp.Masks > s.PeakMasks {
			s.PeakMasks = smp.Masks
		}
		u := smp.Upcall
		if u == nil {
			continue
		}
		s.Enqueued += u.Enqueued
		s.QuotaDrops += u.QuotaDrops
		s.OrphanPressure += u.OrphanPressure
		if smp.Sec == 34 && len(u.PortQuota) > 0 {
			s.FloodQuotaEnd = u.PortQuota[0]
		}
		if smp.Sec >= 15 && smp.Sec < 35 && len(u.PortQuota) > 0 {
			if prevQuota >= 0 && u.PortQuota[0] != prevQuota {
				s.QuotaChanges++
			}
			prevQuota = u.PortQuota[0]
		}
	}
	s.VictimFctP99 = worstVictimP99(samples, 5, 35)
	s.LateUnderGbps = lateVictimGbps(samples)
	s.UnderGbps = avgVictimGbps(samples, 20, 35)
	s.PostGbps = avgVictimGbps(samples, 40, 45)
	return s
}

// runPortFairness builds and runs one port-fairness mode, returning the
// run's slice of the control-plane event journal alongside the summary.
func runPortFairness(mode dataplane.PortFairnessMode) (fairnessSummary, []dataplane.Sample, []telemetry.Event, error) {
	samples, events, err := runJournaled(dataplane.PortFairnessScenario(mode))
	return foldPortFairness(mode, samples), samples, events, err
}

// RunPortFairness regenerates the victim-throughput-under-flood comparison
// across the quota keyings: one PMD worker shared by an attacking vport
// and two victim vports, with the second victim joining mid-flood. The
// adaptiveraw row is the ablation — the single-input controller retuning
// on raw per-sweep pressure, whose quota wanders every second — against
// which the smoothed two-input controller's flat quota line reads.
func RunPortFairness(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %10s %9s %11s %11s %10s %8s %11s %9s %8s %9s\n",
		"quota mode", "peak masks", "enqueued", "quota-drops",
		"late victim", "under-atk", "post", "flood quota",
		"q-changes", "vfct-p99", "orphan-pr")
	var adaptiveSamples []dataplane.Sample
	var rawEvents, adaptiveEvents []telemetry.Event
	for _, mode := range []dataplane.PortFairnessMode{
		dataplane.FairnessWorkerKeyed,
		dataplane.FairnessPortKeyed,
		dataplane.FairnessAdaptiveRaw,
		dataplane.FairnessAdaptive,
	} {
		s, samples, events, err := runPortFairness(mode)
		if err != nil {
			return err
		}
		switch mode {
		case dataplane.FairnessAdaptiveRaw:
			rawEvents = events
		case dataplane.FairnessAdaptive:
			adaptiveSamples, adaptiveEvents = samples, events
		}
		fmt.Fprintf(w, "%-12s %10d %9d %11d %10.2fG %10.2fG %7.2fG %11d %9d %7ds %9d\n",
			s.Mode, s.PeakMasks, s.Enqueued, s.QuotaDrops,
			s.LateUnderGbps, s.UnderGbps, s.PostGbps, s.FloodQuotaEnd,
			s.QuotaChanges, s.VictimFctP99, s.OrphanPressure)
	}
	fmt.Fprintln(w, "\nAll three vports share ONE PMD worker. Worker-keyed (the pre-vport")
	fmt.Fprintln(w, "shape), the flood drains the shared admission bucket every second, so")
	fmt.Fprintln(w, "the victim joining mid-attack cannot even install its megaflow: its")
	fmt.Fprintln(w, "setup packets are refused at admission and it moves nothing until the")
	fmt.Fprintln(w, "attack ends. Port-keyed, the victim owns its bucket and establishes")
	fmt.Fprintln(w, "immediately — but the flood still installs its full per-port quota of")
	fmt.Fprintln(w, "masks, taxing every lookup. Adaptive quotas close the loop: the")
	fmt.Fprintln(w, "revalidator sees the flooding port's megaflow footprint explode and")
	fmt.Fprintln(w, "throttles that port toward the floor, so mask growth — and with it")
	fmt.Fprintln(w, "both victims' scan cost — stays an order of magnitude lower while the")
	fmt.Fprintln(w, "victims keep their full budgets. OVS sizes its vport-granular upcall")
	fmt.Fprintln(w, "rate limiter from observed load for exactly this reason.")
	fmt.Fprintln(w, "The q-changes column counts mid-attack quota moves for the flooding")
	fmt.Fprintln(w, "port: raw single-input retuning chases every sweep's footprint sample")
	fmt.Fprintln(w, "up and down (churn empties the cache, the quota bounces, the flood")
	fmt.Fprintln(w, "refills it), while the EWMA+hysteresis controller settles once per")
	fmt.Fprintln(w, "regime shift and holds. vfct-p99 is the victims' worst flow-setup")
	fmt.Fprintln(w, "latency under attack — the metric the whole quota exercise protects.")
	fmt.Fprintln(w, "orphan-pr totals revalidator pressure from ports outside the")
	fmt.Fprintln(w, "admission layer's source range: load measured but untunable.")

	// The flap story, straight from the journal: every quota move the two
	// adaptive controllers made. The raw ablation's timeline is dense
	// (one retune per churn bounce); the smoothed controller's is a few
	// lines — the whole de-flapping argument in two ASCII rails.
	fmt.Fprintln(w, "\nquota-retune timeline — adaptiveraw (every move is a flap):")
	telemetry.RenderTimeline(w, telemetry.FilterEvents(rawEvents, telemetry.EvQuotaRetune))
	fmt.Fprintln(w, "\nquota-retune timeline — adaptive (EWMA + hysteresis):")
	telemetry.RenderTimeline(w, telemetry.FilterEvents(adaptiveEvents, telemetry.EvQuotaRetune))
	return renderFCTPanel(w, "portfairness adaptive", adaptiveSamples)
}
