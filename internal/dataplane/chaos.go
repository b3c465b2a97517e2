package dataplane

import (
	"fmt"

	"tse/internal/faults"
)

// The chaos experiment: the port-fairness attack replayed while the slow
// path itself fails. The paper's attack degrades victims by *loading* the
// slow path; this scenario asks what happens when the slow path
// additionally *breaks* at the worst moment — a handler dies at attack
// peak, the revalidator wedges, installs fail — and measures whether the
// supervisor (panic respawn, stall detection), the pending-table reaper
// and the SLO circuit breaker return flow-setup latency to its pre-fault
// envelope within a bounded number of seconds.

// ChaosMode selects the self-healing configuration under the fault
// schedule.
type ChaosMode string

const (
	// ChaosFaultFree runs the full self-healing stack with no fault plan:
	// the baseline every recovery claim is measured against.
	ChaosFaultFree ChaosMode = "faultfree"
	// ChaosUnsupervised injects the fault schedule with the supervisor
	// disabled, the pending reaper off and no breaker: dead handlers stay
	// dead, their in-flight upcalls leak in the pending table, and the
	// backlog grows behind a halved service rate — the ablation that shows
	// what the machinery exists to prevent.
	ChaosUnsupervised ChaosMode = "unsupervised"
	// ChaosSupervised injects the same schedule with the supervisor, the
	// reaper and the SLO breaker on: panics respawn, stalls are detected
	// within one virtual second, orphans are requeued, aged pending entries
	// are reaped, and overloaded ports shed at admission instead of
	// queueing past the SLO.
	ChaosSupervised ChaosMode = "supervised"
)

// chaosPlan builds the deterministic fault schedule, timed against the
// port-fairness timeline (flood [5, 35), churn at 12/17/22/27/32, late
// victim joins at 15):
//
//   - t=23: handler 0 panics — one tick after the t=22 churn, so the
//     orphaned burst holds the victims' re-establishment upcalls.
//   - t=24..26: the revalidator stalls for 3 ticks — no expiry, no
//     invalidation, no reaping, no adaptive retune while the flood rages.
//   - t=26: megaflow installs fail for a tick — handled upcalls produce no
//     cache entries, so the same flows miss again.
//   - t=28: the flooding port's deliveries are delayed 2 ticks, and at
//     t=29 duplicated — the delivery faults dedup and idempotent resolve
//     must absorb.
//   - t=30..33: handler 1 wedges for 4 ticks; supervised runs detect the
//     stall after one virtual second and respawn.
//
// Every event lands inside the flood window so recovery is measured under
// sustained attack, not in the quiet tail.
func chaosPlan() *faults.Plan {
	return faults.NewPlan(
		faults.Event{Tick: 23, Kind: faults.HandlerPanic, Handler: 0},
		faults.Event{Tick: 24, Kind: faults.RevalidatorStall, Duration: 3},
		faults.Event{Tick: 26, Kind: faults.InstallError, Duration: 1},
		faults.Event{Tick: 28, Kind: faults.DeliverDelay, Source: 0, Duration: 2},
		faults.Event{Tick: 29, Kind: faults.DeliverDuplicate, Source: 0},
		faults.Event{Tick: 30, Kind: faults.HandlerStall, Handler: 1, Duration: 4},
	)
}

// ChaosScenario builds the chaos experiment for one mode. It derives from
// the port-keyed fairness scenario (static per-port quotas, so breaker and
// supervisor effects are not confounded with adaptive quota motion) with
// the handler budget halved to 32/s across 2 modelled handlers: tight
// enough service that the flood builds real backlog residence, which is
// what makes a dead handler hurt and gives the breaker a signal worth
// tripping on.
func ChaosScenario(mode ChaosMode) (*Scenario, error) {
	sc, err := PortFairnessScenario(FairnessPortKeyed)
	if err != nil {
		return nil, err
	}
	up := sc.Upcall
	up.HandledPerSec = 32
	up.ModelledHandlers = 2
	switch mode {
	case ChaosFaultFree:
		up.BreakerSLOSec = 2
	case ChaosUnsupervised:
		up.Faults = chaosPlan()
		up.DisableSupervisor = true
		up.Revalidator.PendingAgeSec = -1 // reaper off: let the leak show
	case ChaosSupervised:
		up.Faults = chaosPlan()
		up.BreakerSLOSec = 2
	default:
		return nil, fmt.Errorf("dataplane: unknown chaos mode %q", mode)
	}
	sc.Name = fmt.Sprintf("Chaos-SipSpDp-%s", mode)
	return sc, nil
}
