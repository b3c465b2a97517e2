package upcall

// The handler supervisor: the self-healing layer of the slow path.
//
// The drains (HandleNAt, SubmitSync) are the handlers, so their failures
// are modelled against the virtual clock. A scheduled
// panic orphans one round-robin burst and removes the handler's
// 1/ModelledHandlers service share for a tick; a scheduled stall removes the
// share until the stall ends or the supervisor's stallTimeoutSec detection
// fires, whichever is first. Orphans go back to their queues (or, under
// DisableSupervisor, are dropped for the revalidator's reaper). This keeps
// chaos runs bit-for-bit deterministic.

import (
	"math"

	"tse/internal/telemetry"
)

// handlerDownLocked books one modelled handler death: the cause's counter,
// then — journalled in causal order at now — the cause (EvHandlerPanic or
// EvHandlerStall), the requeue of the dead handler's popped-but-unresolved
// upcalls at their source queues' tails (original enqueue stamps kept, so
// the extra wait is visible as residence), and the restart. It reports
// whether the slot comes back: never under DisableSupervisor — the chaos
// ablation, which also drops the orphans on the floor, the deliberate
// pending-table wedge only ReapPending cleans up. Callers hold u.mu.
func (u *Subsystem) handlerDownLocked(slot int, cause telemetry.EventKind, now int64, orphans []item) bool {
	held := int64(0) // only a panic's journal entry carries the burst size
	if cause == telemetry.EvHandlerPanic {
		u.stats.HandlerPanics++
		held = int64(len(orphans))
	} else {
		u.stats.StallsDetected++
	}
	u.opts.Journal.Record(now, cause, slot, held)
	if u.opts.DisableSupervisor {
		return false
	}
	n := 0
	for _, it := range orphans {
		if it.p == nil || it.p.resolved {
			continue
		}
		it.p.queued++
		u.enqueueLocked(it)
		u.stats.Requeued++
		n++
	}
	if n > 0 {
		u.opts.Journal.Record(now, telemetry.EvOrphanRequeue, slot, int64(n))
	}
	u.stats.HandlerRestarts++
	u.opts.Journal.Record(now, telemetry.EvHandlerRestart, slot, 0)
	return true
}

// driveHandler is one modelled handler's fault state.
type driveHandler struct {
	// deadUntil suspends the handler's service share for ticks < deadUntil;
	// detectAt is the tick the modelled supervisor's stall detection fires
	// at (0 = none pending).
	deadUntil, detectAt int64
}

// driveFaultsLocked applies the injector's schedule to the modelled
// handler fleet at drain tick now and returns the per-tick budget scaled
// by the surviving service capacity (alive/ModelledHandlers). A scheduled
// panic orphans one round-robin burst (the dying handler's in-flight work)
// and costs its share for the current tick; a scheduled stall costs the
// share until the stall ends or — supervised — stallTimeoutSec elapses and
// the slot is respawned. Callers hold u.mu.
func (u *Subsystem) driveFaultsLocked(max int, now int64) int {
	h := u.opts.ModelledHandlers
	if h <= 0 {
		h = 1
	}
	if u.driveH == nil {
		u.driveH = make([]driveHandler, h)
	}
	inj := u.opts.Injector
	alive := 0
	for slot := range u.driveH {
		d := &u.driveH[slot]
		if until, ok := inj.HandlerStallAt(slot, now); ok {
			if detect := now + stallTimeoutSec; !u.opts.DisableSupervisor && detect < until {
				// The stall outlasts the detection horizon: the supervisor
				// declares the handler dead at detect and respawns it.
				d.deadUntil, d.detectAt = detect, detect
			} else {
				// Nobody watching, or a short stall that is over before
				// detection would fire: dead for the whole stall.
				d.deadUntil, d.detectAt = until, 0
			}
		}
		if inj.HandlerPanicAt(slot, now) {
			// The dying handler's in-flight work is one round-robin burst.
			burst := u.popBurstLocked(nil, HandlerBurst)
			if !u.handlerDownLocked(slot, telemetry.EvHandlerPanic, now, burst) {
				d.deadUntil = math.MaxInt64 // never respawned
			} else if now+1 > d.deadUntil {
				d.deadUntil = now + 1 // back next tick
			}
		}
		if d.detectAt != 0 && now >= d.detectAt {
			// deadUntil already ends at detectAt: the respawn is this tick.
			d.detectAt = 0
			u.handlerDownLocked(slot, telemetry.EvHandlerStall, now, nil)
		}
		if now >= d.deadUntil {
			alive++
		}
	}
	switch {
	case alive == h:
		return max
	case alive == 0:
		return 0
	case max == math.MaxInt:
		return max // unbounded drains stay unbounded while anyone lives
	default:
		return max / h * alive
	}
}
