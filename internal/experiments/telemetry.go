package experiments

import (
	"tse/internal/dataplane"
	"tse/internal/telemetry"
)

// liveHub, when set via SetTelemetry, is the process-wide hub the -serve
// flag installs: experiment runs thread it through their scenarios so the
// live /metrics, /journal and pprof endpoints observe the runs as they
// happen (runJournaled keeps the runs' events apart).
var liveHub *telemetry.Hub

// SetTelemetry installs the live hub (nil restores private per-run hubs).
func SetTelemetry(h *telemetry.Hub) { liveHub = h }

// runHub returns the hub an experiment run should thread through its
// scenario: the live hub when one is serving, otherwise a private hub
// with just a journal — enough for the causal timelines the experiments
// print, without the registry registration churn.
func runHub() *telemetry.Hub {
	if liveHub != nil {
		return liveHub
	}
	return &telemetry.Hub{Journal: telemetry.NewJournal(0)}
}

// runJournaled runs a freshly built scenario on the run hub and returns its
// samples with the run's own slice of the control-plane journal: the
// sequence is marked before the run and sliced after it, so several runs
// can share one live journal without seeing each other's events. It takes
// the scenario constructor's (scenario, error) pair.
func runJournaled(sc *dataplane.Scenario, err error) ([]dataplane.Sample, []telemetry.Event, error) {
	if err != nil {
		return nil, nil, err
	}
	hub := runHub()
	sc.Telemetry = hub
	mark := hub.Journal.Seq()
	samples, err := sc.Run()
	if err != nil {
		return nil, nil, err
	}
	return samples, hub.Journal.EventsSince(mark), nil
}
