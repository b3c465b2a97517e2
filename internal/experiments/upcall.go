package experiments

import (
	"fmt"
	"io"

	"tse/internal/ascii"
	"tse/internal/dataplane"
)

func init() {
	register(Experiment{
		ID:    "saturation",
		Title: "Slow-path saturation — SipSpDp upcall flood vs bounded queues/quotas",
		Run:   func(w io.Writer) error { return RunSaturation(w, 2) },
	})
}

// satSummary condenses one saturation run into the table row the
// experiment prints.
type satSummary struct {
	PeakMasks, PeakBacklog                             int
	Enqueued, Deduped, QueueDrops, QuotaDrops, Handled int
	PreGbps, UnderGbps, PostGbps                       float64
	// FctP50Under/FctP99Under are the worst per-second flow-setup latency
	// percentiles during the attack window, in virtual seconds of upcall
	// residence — the queueing delay a new flow's first packet pays behind
	// the backlog before its megaflow installs. -1 when the configuration
	// handled no upcalls that window (the inline slow path has no queue).
	FctP50Under, FctP99Under int
}

// summarise folds a sample series into a satSummary. The attack window of
// SaturationScenario is [5, 35) over 45 seconds.
func summarise(samples []dataplane.Sample) satSummary {
	s := satSummary{FctP50Under: -1, FctP99Under: -1}
	for _, smp := range samples {
		if smp.Masks > s.PeakMasks {
			s.PeakMasks = smp.Masks
		}
		if u := smp.Upcall; u != nil {
			if u.Backlog > s.PeakBacklog {
				s.PeakBacklog = u.Backlog
			}
			s.Enqueued += u.Enqueued
			s.Deduped += u.Deduped
			s.QueueDrops += u.QueueDrops
			s.QuotaDrops += u.QuotaDrops
			s.Handled += u.Handled
			if smp.Sec >= 5 && smp.Sec < 35 {
				if u.FlowSetupP50 > s.FctP50Under {
					s.FctP50Under = u.FlowSetupP50
				}
				if u.FlowSetupP99 > s.FctP99Under {
					s.FctP99Under = u.FlowSetupP99
				}
			}
		}
	}
	s.PreGbps = avgVictimGbps(samples, 0, 5)
	s.UnderGbps = avgVictimGbps(samples, 15, 35)
	s.PostGbps = avgVictimGbps(samples, 40, 45)
	return s
}

// renderFCTPanel charts the per-second flow-setup latency series (p50 and
// p99 of upcall residence) for one scenario run — the FCT time series the
// paper's victim plots imply but never show. Seconds with no handled
// upcalls chart as zero. The panel is skipped when the run recorded no
// residence at all (inline mode).
func renderFCTPanel(w io.Writer, title string, samples []dataplane.Sample) error {
	p50 := make([]float64, len(samples))
	p99 := make([]float64, len(samples))
	any := false
	for i, smp := range samples {
		u := smp.Upcall
		if u == nil {
			continue
		}
		if u.FlowSetupP99 >= 0 {
			any = true
			p50[i] = float64(u.FlowSetupP50)
			p99[i] = float64(u.FlowSetupP99)
		}
	}
	if !any {
		return nil
	}
	chart := &ascii.Chart{
		Title: title + " — flow-setup latency", YLabel: "sec", XLabel: "t[s]",
		Series: []ascii.Series{
			{Name: "flow-setup p50", Values: p50, Marker: '5'},
			{Name: "flow-setup p99", Values: p99, Marker: '9'},
		},
	}
	fmt.Fprintln(w)
	return chart.Render(w)
}

// runSaturationConfig builds and runs one saturation configuration.
// mode "inline" strips the upcall dimension (the synchronous slow path on
// the PMD cores); "unbounded" and "bounded" run the async subsystem.
func runSaturationConfig(workers int, mode string) (satSummary, []dataplane.Sample, error) {
	sc, err := dataplane.SaturationScenario(workers, mode == "bounded")
	if err != nil {
		return satSummary{}, nil, err
	}
	if mode == "inline" {
		sc.Upcall = nil
	}
	sc.Telemetry = runHub()
	samples, err := sc.Run()
	if err != nil {
		return satSummary{}, nil, err
	}
	return summarise(samples), samples, nil
}

// RunSaturation tabulates the saturation scenario under three slow-path
// configurations: the synchronous inline pipeline, the asynchronous
// subsystem with no bounds (the paper's overload regime — handlers install
// every attack megaflow and the mask count runs to the SipSpDp maximum of
// ~8.2k), and the bounded configuration in which per-source quotas, queue
// caps and a finite handler service rate refuse most of the flood and cap
// MFC mask growth.
func RunSaturation(w io.Writer, workers int) error {
	fmt.Fprintf(w, "%-16s %10s %8s %9s %8s %8s %11s %8s %10s %10s %10s %8s %8s\n",
		"slow path", "peak masks", "backlog", "enqueued", "deduped",
		"q-drops", "quota-drops", "handled", "pre-attack", "under-atk", "post",
		"fct-p50", "fct-p99")
	var boundedSamples []dataplane.Sample
	for _, mode := range []string{"inline", "unbounded", "bounded"} {
		s, samples, err := runSaturationConfig(workers, mode)
		if err != nil {
			return err
		}
		if mode == "bounded" {
			boundedSamples = samples
		}
		fmt.Fprintf(w, "%-16s %10d %8d %9d %8d %8d %11d %8d %9.2fG %9.2fG %9.2fG %7ds %7ds\n",
			mode, s.PeakMasks, s.PeakBacklog, s.Enqueued, s.Deduped,
			s.QueueDrops, s.QuotaDrops, s.Handled,
			s.PreGbps, s.UnderGbps, s.PostGbps,
			s.FctP50Under, s.FctP99Under)
	}
	fmt.Fprintln(w, "\nEvery attack packet is a flow miss, so the whole flood lands on the")
	fmt.Fprintln(w, "upcall path. Unbounded, the handlers install each spawned megaflow and")
	fmt.Fprintln(w, "the mask count reaches the SipSpDp maximum (~8.2k, §5.2): victim")
	fmt.Fprintln(w, "lookups pay the full linear scan and throughput collapses. Bounded,")
	fmt.Fprintln(w, "the per-source quota refuses the bulk of the flood, the backlog hits")
	fmt.Fprintln(w, "the queue cap, and installs are limited to the handler service rate —")
	fmt.Fprintln(w, "MFC mask growth is capped an order of magnitude below the unbounded")
	fmt.Fprintln(w, "run while the round-robin drain keeps the victims' own upcalls served.")
	fmt.Fprintln(w, "The fct columns are the price of that cap: an admitted upcall waits")
	fmt.Fprintln(w, "queue-cap/service-rate seconds behind the standing backlog before its")
	fmt.Fprintln(w, "megaflow installs (Little's law), so bounded queues trade mask growth")
	fmt.Fprintln(w, "for flow-setup latency — the unbounded run sets up flows instantly")
	fmt.Fprintln(w, "and pays in masks instead.")
	return renderFCTPanel(w, "saturation bounded", boundedSamples)
}
