package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// EventKind classifies a control-plane journal event.
type EventKind uint8

const (
	// EvHandlerPanic: an upcall handler panicked (actor = handler slot,
	// value = orphaned in-flight items requeued on its behalf).
	EvHandlerPanic EventKind = iota
	// EvHandlerStall: the supervisor (or drive-mode model) detected a
	// wedged handler past its heartbeat deadline (actor = handler slot).
	EvHandlerStall
	// EvHandlerRestart: a handler slot was respawned (actor = slot).
	EvHandlerRestart
	// EvOrphanRequeue: a dead handler's in-flight items went back to the
	// head of their queues (actor = handler slot, value = item count).
	EvOrphanRequeue
	// EvPendingReaped: the pending-table reaper expired stuck dedup
	// entries (value = entries reaped).
	EvPendingReaped
	// EvBreakerTrip: a source's SLO breaker opened (actor = port,
	// value = the violating residence p99 in virtual seconds).
	EvBreakerTrip
	// EvBreakerHalfOpen: cooldown elapsed, probe trickle admitted
	// (actor = port).
	EvBreakerHalfOpen
	// EvBreakerClose: probes met the SLO, admission restored
	// (actor = port, value = the passing p99).
	EvBreakerClose
	// EvQuotaRetune: the adaptive controller moved a port's admission
	// quota (actor = port, value = the new quota).
	EvQuotaRetune
	// EvSweep: a revalidator sweep deleted megaflows (value = expired +
	// invalidated).
	EvSweep
	// EvSweepStall: an injected revalidator wedge skipped a due sweep.
	EvSweepStall
	// EvInstallError: megaflow installs failed this interval
	// (value = failure count).
	EvInstallError
	// EvACLSwap: the control plane swapped the ACL table mid-run
	// (actor = port the phase targets, -1 for all).
	EvACLSwap
	// EvDeliveryFault: injected delivery faults (delays/duplicates)
	// touched submissions this interval (value = count).
	EvDeliveryFault
	// EvFaultInjected: a scheduled fault from internal/faults fired
	// (note names the fault kind, actor = its target).
	EvFaultInjected
	// EvNodeSuspect: the fleet failure detector saw a node miss enough
	// consecutive heartbeats to suspect it (actor = node, value = missed
	// heartbeats). No failover yet — a short partition heals from here.
	EvNodeSuspect
	// EvNodeDead: the failure detector declared a node dead (actor =
	// node, value = missed heartbeats); tenant failover follows.
	EvNodeDead
	// EvNodeRejoin: a suspected node answered heartbeats again (actor =
	// node, value = the ACL generations it fell behind while unreachable).
	EvNodeRejoin
	// EvNodeStale: a node is serving on an old ACL generation (actor =
	// node, value = generations behind) — graceful degradation, reported
	// once per widening of the gap instead of stalling the dataplane.
	EvNodeStale
	// EvTenantFailover: the scheduler re-placed a dead node's tenant
	// (actor = destination node, note names the tenant and origin).
	EvTenantFailover
	// EvACLPush: the fleet controller applied an ACL generation on a node
	// (actor = node, value = generation).
	EvACLPush
	// EvACLPushRetry: a push attempt failed (partition or push fault) and
	// was rescheduled with backoff (actor = node, value = attempt count).
	EvACLPushRetry
	// EvACLConverged: every live node reached the target ACL generation
	// (value = generation).
	EvACLConverged
)

// String names the kind for timelines.
func (k EventKind) String() string {
	switch k {
	case EvHandlerPanic:
		return "handler-panic"
	case EvHandlerStall:
		return "handler-stall"
	case EvHandlerRestart:
		return "handler-restart"
	case EvOrphanRequeue:
		return "orphan-requeue"
	case EvPendingReaped:
		return "pending-reaped"
	case EvBreakerTrip:
		return "breaker-trip"
	case EvBreakerHalfOpen:
		return "breaker-half-open"
	case EvBreakerClose:
		return "breaker-close"
	case EvQuotaRetune:
		return "quota-retune"
	case EvSweep:
		return "revalidator-sweep"
	case EvSweepStall:
		return "sweep-stall"
	case EvInstallError:
		return "install-error"
	case EvACLSwap:
		return "acl-swap"
	case EvDeliveryFault:
		return "delivery-fault"
	case EvFaultInjected:
		return "fault-injected"
	case EvNodeSuspect:
		return "node-suspect"
	case EvNodeDead:
		return "node-dead"
	case EvNodeRejoin:
		return "node-rejoin"
	case EvNodeStale:
		return "node-stale"
	case EvTenantFailover:
		return "tenant-failover"
	case EvACLPush:
		return "acl-push"
	case EvACLPushRetry:
		return "acl-push-retry"
	case EvACLConverged:
		return "acl-converged"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// actorNoun names what Actor indexes for a kind ("" when Actor is
// meaningless and -1).
func (k EventKind) actorNoun() string {
	switch k {
	case EvHandlerPanic, EvHandlerStall, EvHandlerRestart, EvOrphanRequeue:
		return "handler"
	case EvBreakerTrip, EvBreakerHalfOpen, EvBreakerClose, EvQuotaRetune, EvACLSwap:
		return "port"
	case EvNodeSuspect, EvNodeDead, EvNodeRejoin, EvNodeStale, EvTenantFailover,
		EvACLPush, EvACLPushRetry:
		return "node"
	default:
		return ""
	}
}

// Event is one tick-stamped control-plane occurrence. Seq is the global
// record index (survives ring wrap-around, so ordering is provable even
// after old events are evicted).
type Event struct {
	Seq   uint64
	Tick  int64
	Kind  EventKind
	Actor int
	Value int64
	Note  string
}

// String renders one timeline line: "t=23  handler-panic      handler=0 n=5".
func (e Event) String() string {
	return fmt.Sprintf("t=%-4d %s", e.Tick, e.body())
}

// body is the line sans tick column, shared with RenderTimeline.
func (e Event) body() string {
	s := fmt.Sprintf("%-18s", e.Kind.String())
	if noun := e.Kind.actorNoun(); noun != "" && e.Actor >= 0 {
		s += fmt.Sprintf(" %s=%d", noun, e.Actor)
	}
	if e.Value != 0 {
		switch e.Kind {
		case EvBreakerTrip, EvBreakerClose:
			s += fmt.Sprintf(" p99=%ds", e.Value)
		case EvQuotaRetune:
			s += fmt.Sprintf(" quota=%d", e.Value)
		case EvACLPush, EvACLConverged:
			s += fmt.Sprintf(" gen=%d", e.Value)
		case EvNodeSuspect, EvNodeDead:
			s += fmt.Sprintf(" missed=%d", e.Value)
		case EvNodeStale, EvNodeRejoin:
			s += fmt.Sprintf(" behind=%d", e.Value)
		case EvACLPushRetry:
			s += fmt.Sprintf(" attempt=%d", e.Value)
		default:
			s += fmt.Sprintf(" n=%d", e.Value)
		}
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// Journal is a fixed-capacity ring buffer of control-plane events. All
// methods are nil-receiver-safe (the faults.Plan discipline), so
// instrumented code records unconditionally and un-instrumented runs pay
// one nil check.
type Journal struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // total events ever recorded
}

// DefaultJournalCap bounds the ring when NewJournal is given <= 0.
const DefaultJournalCap = 1024

// NewJournal builds a ring holding the last capacity events.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, 0, capacity)}
}

// Record appends an event; the oldest event is evicted once the ring is
// full. Safe on a nil journal.
func (j *Journal) Record(tick int64, kind EventKind, actor int, value int64) {
	j.RecordNote(tick, kind, actor, value, "")
}

// RecordNote is Record with a free-form annotation (fault kind names,
// ACL table tags). Control-plane events are rare, so the string is
// affordable.
func (j *Journal) RecordNote(tick int64, kind EventKind, actor int, value int64, note string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	e := Event{Seq: j.seq, Tick: tick, Kind: kind, Actor: actor, Value: value, Note: note}
	j.seq++
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
		return
	}
	copy(j.buf, j.buf[1:])
	j.buf[len(j.buf)-1] = e
}

// Seq reports the total number of events ever recorded (the next
// event's Seq). Safe on a nil journal.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped reports how many events the ring has evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(len(j.buf))
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event { return j.EventsSince(0) }

// EventsSince returns retained events with Seq >= since, oldest first.
// Experiments mark the journal's Seq before a run and slice their own
// events out afterwards, so several runs can share one live journal.
func (j *Journal) EventsSince(since uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := 0
	for start < len(j.buf) && j.buf[start].Seq < since {
		start++
	}
	return append([]Event(nil), j.buf[start:]...)
}

// FilterEvents keeps only events of the given kinds, preserving order.
func FilterEvents(events []Event, kinds ...EventKind) []Event {
	keep := make(map[EventKind]bool, len(kinds))
	for _, k := range kinds {
		keep[k] = true
	}
	var out []Event
	for _, e := range events {
		if keep[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// RenderTimeline prints events as a causal ASCII timeline: one line per
// event, a tick label on the first event of each tick, a vertical rail
// tying same-tick events together.
//
//	t=23  ├ handler-panic      handler=0 n=12
//	      ├ orphan-requeue     handler=0 n=12
//	      └ handler-restart    handler=0
func RenderTimeline(w io.Writer, events []Event) {
	for i, e := range events {
		label := "     "
		if i == 0 || events[i-1].Tick != e.Tick {
			label = fmt.Sprintf("t=%-3d", e.Tick)
		}
		rail := "├"
		if i == len(events)-1 || events[i+1].Tick != e.Tick {
			rail = "└"
		}
		fmt.Fprintf(w, "  %s %s %s\n", label, rail, e.body())
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "  (no events)")
	}
}
