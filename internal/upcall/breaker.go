package upcall

// The SLO circuit breaker: the admission-side complement of the adaptive
// quota. The quota tunes *how much* a source may submit; the breaker
// decides *whether* submitting is useful at all. When a source's
// backlog-residence p99 (the per-port LatencyHist the adaptive controller
// already reads) violates Options.BreakerSLOSec for breakerTripAfter
// consecutive intervals, queued work is already missing its flow-setup
// SLO — so the source trips open and new submissions fast-fail (shed)
// instead of joining a queue whose wait already exceeds the deadline.
// After breakerCooldownSec the breaker goes half-open and admits a
// per-tick trickle of breakerProbes probes; if their residence meets the
// SLO it closes, if not it re-opens.
//
// The signal is the AdaptiveQuota's: per-interval histogram deltas off
// SourceStats.Residence, compared raw, with the breakerTripAfter streak
// playing the hysteresis role so a single noisy interval cannot flap the
// breaker.

import (
	"fmt"

	"tse/internal/telemetry"
)

// BreakerPhase is the circuit-breaker state.
type BreakerPhase int

const (
	// BreakerClosed: admission flows normally (modulo queue/quota).
	BreakerClosed BreakerPhase = iota
	// BreakerOpen: every submission is shed with DroppedBreaker.
	BreakerOpen
	// BreakerHalfOpen: a per-tick trickle of breakerProbes submissions is
	// admitted to test whether the backlog recovered.
	BreakerHalfOpen
)

// String names the phase for diagnostics and samples.
func (p BreakerPhase) String() string {
	switch p {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerPhase(%d)", int(p))
	}
}

// The breaker's fixed shape.
const (
	// breakerTripAfter is the consecutive SLO-violating intervals required
	// to trip: the flap-immunity streak.
	breakerTripAfter = 3
	// breakerCooldownSec is how long an open breaker sheds before probing
	// (half-open).
	breakerCooldownSec int64 = 3
	// breakerProbes is the per-tick probe trickle while half-open.
	breakerProbes = 2
)

// BreakerState is one source's breaker position, advanced once per
// interval by Next.
type BreakerState struct {
	// Phase is the current position; BadStreak counts consecutive
	// violating intervals while closed; OpenedAt is the interval the
	// breaker last tripped (cooldown base).
	Phase     BreakerPhase
	BadStreak int
	OpenedAt  int64
}

// Next advances one source's breaker by one interval against the
// residence SLO sloSec. now is the interval tick; p99 is the interval's
// backlog-residence p99 in virtual seconds, with a negative value meaning
// no upcalls were handled this interval (no signal: a closed breaker stays
// closed, a half-open breaker keeps probing). It reports whether the
// breaker tripped open or closed from half-open this interval.
func (st *BreakerState) Next(sloSec, now, p99 int64) (tripped, closed bool) {
	over := p99 >= 0 && p99 > sloSec
	switch st.Phase {
	case BreakerClosed:
		if !over {
			st.BadStreak = 0
			break
		}
		st.BadStreak++
		if st.BadStreak >= breakerTripAfter {
			st.Phase = BreakerOpen
			st.OpenedAt = now
			st.BadStreak = 0
			return true, false
		}
	case BreakerOpen:
		if now-st.OpenedAt >= breakerCooldownSec {
			st.Phase = BreakerHalfOpen
		}
	case BreakerHalfOpen:
		switch {
		case over:
			// Probes still violate: back to shedding, cooldown restarts.
			st.Phase = BreakerOpen
			st.OpenedAt = now
		case p99 >= 0:
			// Probes met the SLO: recovered.
			st.Phase = BreakerClosed
			st.BadStreak = 0
			return false, true
		}
	}
	return false, false
}

// breakerPort is one source's breaker runtime state inside the subsystem:
// the state machine plus the histogram snapshot the per-interval delta is
// taken against and the half-open probe budget for the current tick.
type breakerPort struct {
	st      BreakerState
	prev    LatencyHist
	probeAt int64
	probes  int
}

// breakerAdmitLocked decides admission for one submission under the
// source's breaker. Callers hold u.mu and have checked u.brk != nil.
func (u *Subsystem) breakerAdmitLocked(src int, now int64) bool {
	bp := &u.brk[src]
	switch bp.st.Phase {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return false
	default: // half-open: admit the probe trickle, shed the rest
		if bp.probeAt != now {
			bp.probeAt = now
			bp.probes = breakerProbes
		}
		if bp.probes <= 0 {
			return false
		}
		bp.probes--
		return true
	}
}

// TickBreakers advances every source's breaker by one interval against its
// residence histogram delta. The dataplane loop calls this once per
// virtual second, after the handler drain, mirroring the revalidator's
// retune cadence.
func (u *Subsystem) TickBreakers(now int64) {
	if u.brk == nil {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if now > u.clock {
		u.clock = now
	}
	for src := range u.brk {
		bp := &u.brk[src]
		delta := u.srcStats[src].Residence.Delta(bp.prev)
		bp.prev = u.srcStats[src].Residence
		before := bp.st.Phase
		tripped, closed := bp.st.Next(u.opts.BreakerSLOSec, now, delta.P99())
		if tripped {
			u.stats.BreakerTrips++
		}
		if closed {
			u.stats.BreakerCloses++
		}
		// Journal every phase transition (trip, cooldown→half-open,
		// half-open→re-open, close) with the p99 signal that drove it.
		if bp.st.Phase != before {
			p99 := delta.P99()
			switch bp.st.Phase {
			case BreakerOpen:
				u.opts.Journal.Record(now, telemetry.EvBreakerTrip, src, p99)
			case BreakerHalfOpen:
				u.opts.Journal.Record(now, telemetry.EvBreakerHalfOpen, src, p99)
			case BreakerClosed:
				u.opts.Journal.Record(now, telemetry.EvBreakerClose, src, p99)
			}
		}
	}
}

// BreakerPhases snapshots each source's breaker phase; nil when the
// breaker is disabled.
func (u *Subsystem) BreakerPhases() []BreakerPhase {
	if u.brk == nil {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]BreakerPhase, len(u.brk))
	for i := range u.brk {
		out[i] = u.brk[i].st.Phase
	}
	return out
}
