package upcall

// The handler supervisor: the self-healing layer of the slow path.
//
// Goroutine mode — every handler goroutine is wrapped in panic recovery
// and tracked by a handlerRun carrying heartbeat/busy timestamps. A panic
// kills only that handler: its popped-but-unresolved burst is orphaned
// (requeued, or failed with the orphan verdict) and the slot respawned.
// When StallTimeout > 0 a supervisor goroutine additionally watches the
// busy timestamps and declares a handler dead once a single burst has been
// in flight longer than StallTimeout: the wedged goroutine is abandoned as
// a zombie (it may still finish — resolution is idempotent, so whichever
// of zombie and requeued copy lands first wins), its orphans returned, and
// a fresh handler spawned in its slot. Stop's drain is bounded by
// StopTimeout: past it, still-wedged handlers are abandoned and counted
// rather than hanging shutdown forever.
//
// Drive mode — no goroutines exist, so the same failure modes are modelled
// against the virtual clock: a scheduled panic orphans one round-robin
// burst and removes the handler's 1/ModelledHandlers service share for a
// tick; a scheduled stall removes the share until the stall ends or the
// modelled supervisor's StallTimeoutSec detection fires, whichever is
// first. This keeps chaos runs bit-for-bit deterministic.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tse/internal/telemetry"
)

// handlerRun is one spawn of one handler slot. A slot can be respawned
// many times (generations); abandoned marks a zombie whose slot has been
// handed to a newer generation.
type handlerRun struct {
	slot      int
	gen       uint64
	heartbeat atomic.Int64 // wall nanos of the last liveness beat
	busySince atomic.Int64 // wall nanos the in-flight burst started; 0 = idle
	abandoned atomic.Bool
	exited    atomic.Bool
}

// Start launches the handler goroutines (Options.Handlers, default 1)
// under supervision, and — when StallTimeout > 0 — the stall-detection
// watchdog. Handlers drain the queues round-robin, blocking while idle,
// until Stop.
func (u *Subsystem) Start() {
	u.mu.Lock()
	if u.started {
		u.mu.Unlock()
		return
	}
	u.started = true
	u.stopped = false
	n := u.opts.Handlers
	if n <= 0 {
		n = 1
	}
	u.wg = &sync.WaitGroup{}
	u.runs = make([]*handlerRun, n)
	u.inflight = make(map[*handlerRun][]item)
	for i := 0; i < n; i++ {
		u.runs[i] = u.spawnLocked(i)
	}
	var supStop chan struct{}
	if u.opts.StallTimeout > 0 {
		supStop = make(chan struct{})
		u.supStop = supStop
	}
	u.mu.Unlock()
	if supStop != nil {
		go u.superviseLoop(supStop)
	}
}

// spawnLocked launches a fresh handler generation into slot. Callers hold
// u.mu.
func (u *Subsystem) spawnLocked(slot int) *handlerRun {
	u.gen++
	r := &handlerRun{slot: slot, gen: u.gen}
	r.heartbeat.Store(time.Now().UnixNano())
	u.wg.Add(1)
	go u.handlerLoop(r, u.wg)
	return r
}

// Stop wakes the handlers, lets them drain the remaining backlog, and
// joins them; outstanding tickets resolve before Stop returns. The drain
// is bounded: a handler still wedged mid-handle after StopTimeout is
// abandoned (Stats.HandlersAbandoned) with its in-flight upcalls failed by
// the orphan verdict — so Stop always returns and no waiter blocks
// forever on a dead handler. A stopped subsystem can be Started again.
func (u *Subsystem) Stop() {
	u.mu.Lock()
	if !u.started {
		u.mu.Unlock()
		return
	}
	u.stopped = true
	u.started = false
	wg := u.wg
	supStop := u.supStop
	u.supStop = nil
	u.cond.Broadcast()
	u.mu.Unlock()
	if supStop != nil {
		close(supStop)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timeout := u.opts.StopTimeout
	if timeout <= 0 {
		timeout = DefaultStopTimeout
	}
	select {
	case <-done:
		return
	case <-time.After(timeout):
	}
	// Bounded drain expired: at least one handler is wedged inside
	// handleBatch. Abandon the stuck generations — failing their in-flight
	// upcalls so every waiter unblocks and no pending entry leaks — count
	// them, and return. The zombies exit whenever they unwedge (their
	// abandoned flag short-circuits the loop; resolution idempotence makes
	// their late verdicts no-ops).
	u.mu.Lock()
	for _, r := range u.runs {
		if r == nil || r.exited.Load() || r.abandoned.Load() {
			continue
		}
		r.abandoned.Store(true)
		u.stats.HandlersAbandoned++
		u.opts.Journal.Record(u.clock, telemetry.EvHandlerAbandoned, r.slot, 0)
		u.failOrphansLocked(u.inflight[r])
		delete(u.inflight, r)
	}
	u.cond.Broadcast()
	u.mu.Unlock()
}

// handlerLoop is one supervised handler goroutine: block while idle,
// otherwise pop a round-robin burst, register it in-flight, and resolve it
// as one batch (one classifier transaction per burst, see HandleN). On
// panic the loop exits through the supervisor path: orphans returned,
// slot respawned.
func (u *Subsystem) handlerLoop(r *handlerRun, wg *sync.WaitGroup) {
	defer func() {
		r.exited.Store(true)
		wg.Done()
	}()
	burst := u.burstSize()
	items := make([]item, 0, burst)
	for {
		u.mu.Lock()
		for u.depth == 0 && !u.stopped && !r.abandoned.Load() {
			u.cond.Wait()
		}
		if r.abandoned.Load() {
			u.mu.Unlock()
			return
		}
		items = u.popBurstLocked(items[:0], burst)
		if len(items) == 0 {
			u.mu.Unlock()
			return // stopped and drained
		}
		// Register the burst so a death between pop and resolve orphans
		// it instead of leaking its pending entries. Copied: items is the
		// loop's reusable buffer.
		owned := make([]item, len(items))
		copy(owned, items)
		u.inflight[r] = owned
		u.mu.Unlock()
		wall := time.Now().UnixNano()
		r.heartbeat.Store(wall)
		r.busySince.Store(wall)
		panicked := u.safeHandleBatch(r, items)
		r.busySince.Store(0)
		r.heartbeat.Store(time.Now().UnixNano())
		u.mu.Lock()
		owned = u.inflight[r]
		delete(u.inflight, r)
		if !panicked {
			if r.abandoned.Load() {
				// A zombie that just unwedged: its batch resolved (or was
				// already resolved by the replacement); exit quietly.
				u.mu.Unlock()
				return
			}
			u.mu.Unlock()
			continue
		}
		// The handler died mid-batch.
		if r.abandoned.Load() {
			u.mu.Unlock()
			return
		}
		if u.handlerDownLocked(r.slot, telemetry.EvHandlerPanic, u.clock, owned) {
			u.runs[r.slot] = u.spawnLocked(r.slot)
		}
		u.mu.Unlock()
		return
	}
}

// safeHandleBatch runs one burst under panic recovery, applying the
// goroutine-mode fault hooks first: an injected stall blocks here (a real
// wedged goroutine, released by Plan.Release or abandoned by the
// supervisor), an injected panic dies here.
func (u *Subsystem) safeHandleBatch(r *handlerRun, items []item) (panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			panicked = true
		}
	}()
	if inj := u.opts.Injector; inj != nil {
		u.mu.Lock()
		now := u.clock
		u.mu.Unlock()
		if gate := inj.HandlerGate(r.slot, now); gate != nil {
			<-gate
		}
		if inj.HandlerPanicAt(r.slot, now) {
			panic(fmt.Sprintf("faults: injected panic in handler slot %d", r.slot))
		}
	}
	u.handleBatch(items)
	return false
}

// superviseLoop is the stall watchdog: every StallTimeout/4 it scans the
// handler runs for one whose current burst has been in flight longer than
// StallTimeout and replaces it.
func (u *Subsystem) superviseLoop(stop <-chan struct{}) {
	interval := u.opts.StallTimeout / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			u.checkStalls(time.Now().UnixNano())
		}
	}
}

// checkStalls declares dead every handler whose in-flight burst is older
// than StallTimeout: the zombie is abandoned, its orphans returned, and a
// fresh generation spawned into the slot.
func (u *Subsystem) checkStalls(wallNow int64) {
	limit := u.opts.StallTimeout.Nanoseconds()
	u.mu.Lock()
	defer u.mu.Unlock()
	if !u.started {
		return
	}
	for slot, r := range u.runs {
		if r == nil || r.abandoned.Load() || r.exited.Load() {
			continue
		}
		busy := r.busySince.Load()
		if busy == 0 || wallNow-busy < limit {
			continue
		}
		r.abandoned.Store(true)
		respawn := u.handlerDownLocked(slot, telemetry.EvHandlerStall, u.clock, u.inflight[r])
		delete(u.inflight, r)
		if respawn {
			u.runs[slot] = u.spawnLocked(slot)
		}
	}
}

// handlerDownLocked books one handler death, the same way for a goroutine
// and for a modelled handler: the cause's counter, then — journalled in
// causal order at now — the cause (EvHandlerPanic or EvHandlerStall), the
// requeue of the dead handler's popped-but-unresolved upcalls at their
// source queues' tails (original enqueue stamps kept, so the extra wait is
// visible as residence), and the restart. It reports whether the caller is
// to bring the slot back: never under DisableSupervisor — the chaos
// ablation, which also drops the orphans on the floor, the deliberate
// pending-table wedge only ReapPending cleans up — and not while stopping.
// Callers hold u.mu.
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
	if u.stopped {
		return false
	}
	u.stats.HandlerRestarts++
	u.opts.Journal.Record(now, telemetry.EvHandlerRestart, slot, 0)
	return true
}

// failOrphansLocked resolves orphaned upcalls with the orphan verdict,
// releasing their waiters. Callers hold u.mu.
func (u *Subsystem) failOrphansLocked(items []item) {
	for _, it := range items {
		if it.p == nil || it.p.resolved {
			continue
		}
		it.p.resolved = true
		if u.pending[it.key] == it.p {
			delete(u.pending, it.key)
		}
		it.p.verdict = orphanVerdict()
		close(it.p.done)
		u.stats.OrphanFailed++
	}
}

// driveHandler is one modelled handler's fault state in drive mode.
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
// share until the stall ends or — supervised — StallTimeoutSec elapses and
// the slot is respawned. Callers hold u.mu.
func (u *Subsystem) driveFaultsLocked(max int, now int64) int {
	h := u.opts.ModelledHandlers
	if h <= 0 {
		h = 1
	}
	if u.driveH == nil {
		u.driveH = make([]driveHandler, h)
	}
	stallTO := u.opts.StallTimeoutSec
	if stallTO <= 0 {
		stallTO = DefaultStallTimeoutSec
	}
	inj := u.opts.Injector
	alive := 0
	for slot := range u.driveH {
		d := &u.driveH[slot]
		if until, ok := inj.HandlerStallAt(slot, now); ok {
			if detect := now + stallTO; !u.opts.DisableSupervisor && detect < until {
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
			burst := u.popBurstLocked(nil, u.burstSize())
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
