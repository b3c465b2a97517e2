// Package faults is the deterministic fault-injection layer of the
// simulated switch: a schedule of component failures — handler panics,
// handler stalls, revalidator sweep stalls, megaflow-install errors, and
// delayed or duplicated upcall delivery — scripted against the virtual
// clock, so a chaos run replays bit-for-bit.
//
// A Plan is either built from explicit events (the chaos experiment's
// scripted "kill handler 0 at the attack peak") or generated from a seed
// (Random), and is threaded into the upcall subsystem and the switch as an
// optional hook: a nil plan costs one pointer comparison on the paths it
// guards, and every query method is nil-receiver-safe.
//
// Handler faults are asked for in virtual ticks: HandlerPanicAt /
// HandlerStallAt model a handler dying or freezing as lost service
// capacity plus orphaned in-flight upcalls, applied by Subsystem.HandleNAt.
//
// Panic and stall events are consumed once (a handler dies once per
// event); window faults (revalidator stall, install error) hold for their
// Duration and are re-queried freely.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// HandlerPanic kills one handler: it orphans the handler's current
	// burst and removes its service share for the tick.
	HandlerPanic Kind = iota
	// HandlerStall freezes one handler for Duration ticks without killing
	// it — the failure only stall detection can see.
	HandlerStall
	// RevalidatorStall suppresses revalidator sweeps for the event window:
	// no expiry, no revalidation, no quota retune, no pending reap.
	RevalidatorStall
	// InstallError fails every megaflow install attempted during the event
	// window (the flow still gets its slow-path verdict; the cache just
	// never learns it).
	InstallError
	// DeliverDelay holds upcalls submitted at the event's tick in limbo
	// for Duration ticks before handlers can see them (netlink socket
	// delay).
	DeliverDelay
	// DeliverDuplicate enqueues upcalls submitted at the event's tick
	// twice (at-least-once delivery); the second copy resolves as a no-op
	// but costs queue space and handler budget.
	DeliverDuplicate
	// NodeCrash kills one cluster node: its dataplane stops serving, its
	// tenants go dark until the failure detector declares it dead and the
	// scheduler fails them over. Consumed once, like HandlerPanic.
	NodeCrash
	// NodePartition cuts the controller↔node control channel for the
	// event window: heartbeats are lost and ACL pushes fail, but the
	// node's dataplane keeps forwarding on its last-applied ACL
	// generation (the graceful-degradation path).
	NodePartition
	// ACLPushError fails every controller ACL push attempted against the
	// targeted node during the event window (a flaky management channel
	// rather than a full partition) — the fault the controller's
	// retry/backoff loop exists for.
	ACLPushError
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case HandlerPanic:
		return "handler-panic"
	case HandlerStall:
		return "handler-stall"
	case RevalidatorStall:
		return "revalidator-stall"
	case InstallError:
		return "install-error"
	case DeliverDelay:
		return "deliver-delay"
	case DeliverDuplicate:
		return "deliver-duplicate"
	case NodeCrash:
		return "node-crash"
	case NodePartition:
		return "node-partition"
	case ACLPushError:
		return "acl-push-error"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Forever marks a stall that never ends on its own: it lasts until the
// supervisor's stall detection replaces the handler — or forever, under
// the unsupervised ablation.
const Forever int64 = -1

// Event is one scheduled fault.
type Event struct {
	// Tick is the virtual second the fault fires (inclusive).
	Tick int64
	// Kind selects the fault.
	Kind Kind
	// Handler targets one handler slot for HandlerPanic/HandlerStall;
	// negative matches any handler (first asker wins).
	Handler int
	// Source targets one upcall source for the delivery faults; negative
	// matches every source.
	Source int
	// Node targets one cluster node for the node-level kinds
	// (NodeCrash/NodePartition/ACLPushError); negative matches every
	// node. Ignored by the single-box kinds, whose constructors leave it
	// zero.
	Node int
	// Duration is the fault length in ticks: the stall/window length for
	// HandlerStall/RevalidatorStall/InstallError (0 means one tick,
	// Forever means until released/replaced) and the delay amount for
	// DeliverDelay. Ignored by HandlerPanic and DeliverDuplicate.
	Duration int64
}

// end is the first tick past the event's active window
// [Tick, Tick+Duration): Duration <= 0 means one tick, Forever never ends.
func (e Event) end() int64 {
	if e.Duration == Forever {
		return math.MaxInt64
	}
	return e.Tick + max(e.Duration, 1)
}

// targets reports whether the event is aimed at id, read off the field its
// kind uses — Handler for the handler kinds, Source for the delivery
// faults, Node for the node kinds; a negative target matches anyone. The
// revalidator-stall and install-error windows are switch-wide.
func (e Event) targets(id int) bool {
	t := e.Handler
	switch e.Kind {
	case RevalidatorStall, InstallError:
		return true
	case DeliverDelay, DeliverDuplicate:
		t = e.Source
	case NodeCrash, NodePartition, ACLPushError:
		t = e.Node
	}
	return t < 0 || t == id
}

// scheduled is one plan entry with its runtime state.
type scheduled struct {
	Event
	consumed bool
}

// Plan is a deterministic fault schedule. It is safe for concurrent use
// (concurrent submitters query its delivery faults); a Plan holds
// per-event consumed state, so one Plan drives exactly one run.
type Plan struct {
	mu     sync.Mutex
	seed   int64
	events []scheduled
}

// NewPlan builds a plan from explicit events.
func NewPlan(events ...Event) *Plan {
	p := &Plan{}
	for _, e := range events {
		p.Add(e)
	}
	return p
}

// Add schedules one more event.
func (p *Plan) Add(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, scheduled{Event: e})
	sort.SliceStable(p.events, func(i, j int) bool {
		return p.events[i].Tick < p.events[j].Tick
	})
}

// Events returns the schedule (runtime state stripped).
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Event, len(p.events))
	for i := range p.events {
		out[i] = p.events[i].Event
	}
	return out
}

// ScheduledAt returns the events whose window opens at exactly now, in
// schedule order. It reads the schedule, not the consumed state, so the
// dataplane loop can journal "fault X fires this tick" exactly once per
// event regardless of when (or whether) a consumer picks it up.
func (p *Plan) ScheduledAt(now int64) []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Event
	for i := range p.events {
		if p.events[i].Tick == now {
			out = append(out, p.events[i].Event)
		}
	}
	return out
}

// Seed returns the seed a Random plan was generated from (0 for explicit
// plans).
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// consumeLocked fires the first unconsumed event of kind k that is due at
// now (Tick <= now) and targets id: it is marked consumed — a one-shot
// event fires once — and returned. Callers hold p.mu.
func (p *Plan) consumeLocked(k Kind, id int, now int64) (Event, bool) {
	for i := range p.events {
		e := &p.events[i]
		if !e.consumed && e.Kind == k && e.Tick <= now && e.targets(id) {
			e.consumed = true
			return e.Event, true
		}
	}
	return Event{}, false
}

// consume is consumeLocked for the queries that hold nothing.
func (p *Plan) consume(k Kind, id int, now int64) (Event, bool) {
	if p == nil {
		return Event{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consumeLocked(k, id, now)
}

// HandlerPanicAt consumes a due HandlerPanic event targeting handler:
// true means the handler dies now. Each event fires once.
func (p *Plan) HandlerPanicAt(handler int, now int64) bool {
	_, ok := p.consume(HandlerPanic, handler, now)
	return ok
}

// HandlerStallAt consumes a due HandlerStall event targeting handler and
// returns the virtual tick the stall ends at (exclusive;
// math.MaxInt64 for Forever).
func (p *Plan) HandlerStallAt(handler int, now int64) (until int64, ok bool) {
	e, ok := p.consume(HandlerStall, handler, now)
	if !ok {
		return 0, false
	}
	return e.end(), true
}

// RevalidatorStalledAt reports whether a RevalidatorStall window covers
// now. Window faults are not consumed.
func (p *Plan) RevalidatorStalledAt(now int64) bool {
	return p.active(RevalidatorStall, -1, now)
}

// InstallErrorAt reports whether an InstallError window covers now — the
// hook vswitch's install paths consult per attempted install.
func (p *Plan) InstallErrorAt(now int64) bool {
	return p.active(InstallError, -1, now)
}

// active reports whether the window [Tick, end) of some event of kind k
// targeting id covers now.
func (p *Plan) active(k Kind, id int, now int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.events {
		e := &p.events[i]
		if e.Kind == k && e.targets(id) && e.Tick <= now && now < e.end() {
			return true
		}
	}
	return false
}

// at returns the first event of kind k scheduled at exactly now that
// targets id: the delivery faults apply to submissions at their tick only.
func (p *Plan) at(k Kind, id int, now int64) (Event, bool) {
	if p == nil {
		return Event{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.events {
		e := &p.events[i]
		if e.Kind == k && e.Tick == now && e.targets(id) {
			return e.Event, true
		}
	}
	return Event{}, false
}

// DeliverDelayAt returns the limbo delay (in ticks) for an upcall
// submitted by src at now; 0 means deliver immediately. The event applies
// to submissions at exactly its Tick; Duration is the delay amount.
func (p *Plan) DeliverDelayAt(src int, now int64) int64 {
	e, ok := p.at(DeliverDelay, src, now)
	if !ok {
		return 0
	}
	return max(e.Duration, 1)
}

// DeliverDuplicateAt reports whether upcalls submitted by src at now are
// delivered twice.
func (p *Plan) DeliverDuplicateAt(src int, now int64) bool {
	_, ok := p.at(DeliverDuplicate, src, now)
	return ok
}

// NodeCrashAt consumes a due NodeCrash event targeting node: true means
// the node dies now. Each event fires once, like HandlerPanicAt.
func (p *Plan) NodeCrashAt(node int, now int64) bool {
	_, ok := p.consume(NodeCrash, node, now)
	return ok
}

// NodePartitionedAt reports whether a NodePartition window covering node
// is active at now. Window faults are not consumed; the controller asks
// every heartbeat and every push attempt.
func (p *Plan) NodePartitionedAt(node int, now int64) bool {
	return p.active(NodePartition, node, now)
}

// ACLPushErrorAt reports whether an ACLPushError window covering node is
// active at now — consulted per push attempt, so a retry after the window
// closes succeeds.
func (p *Plan) ACLPushErrorAt(node int, now int64) bool {
	return p.active(ACLPushError, node, now)
}

// RandomConfig parameterises Random's seeded schedule generation.
type RandomConfig struct {
	// HorizonSec bounds event ticks to [0, HorizonSec); <= 0 selects 60.
	HorizonSec int64
	// Handlers, Sources and Nodes are the slot/source/node ranges targets
	// are drawn from; <= 0 selects 1.
	Handlers, Sources, Nodes int
	// Panics..PushErrs are per-kind event counts.
	Panics, Stalls, SweepStalls, InstallErrs, Delays, Dups int
	Crashes, Partitions, PushErrs                          int
	// MaxStallSec caps stall/window/delay lengths; <= 0 selects 3.
	MaxStallSec int64
}

// Random generates a plan from a seed: the fuzz-style chaos schedule.
// The same (seed, cfg) always yields the same plan.
func Random(seed int64, cfg RandomConfig) *Plan {
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 60
	}
	if cfg.Handlers <= 0 {
		cfg.Handlers = 1
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 1
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.MaxStallSec <= 0 {
		cfg.MaxStallSec = 3
	}
	rng := rand.New(rand.NewSource(seed))
	tick := func() int64 { return rng.Int63n(cfg.HorizonSec) }
	dur := func() int64 { return 1 + rng.Int63n(cfg.MaxStallSec) }
	p := &Plan{seed: seed}
	emit := func(n int, k Kind, mk func() Event) {
		for i := 0; i < n; i++ {
			e := mk()
			e.Kind = k
			p.Add(e)
		}
	}
	emit(cfg.Panics, HandlerPanic, func() Event {
		return Event{Tick: tick(), Handler: rng.Intn(cfg.Handlers), Source: -1}
	})
	emit(cfg.Stalls, HandlerStall, func() Event {
		return Event{Tick: tick(), Handler: rng.Intn(cfg.Handlers), Source: -1, Duration: dur()}
	})
	emit(cfg.SweepStalls, RevalidatorStall, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: -1, Duration: dur()}
	})
	emit(cfg.InstallErrs, InstallError, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: -1, Duration: dur()}
	})
	emit(cfg.Delays, DeliverDelay, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: rng.Intn(cfg.Sources), Duration: dur()}
	})
	emit(cfg.Dups, DeliverDuplicate, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: rng.Intn(cfg.Sources)}
	})
	emit(cfg.Crashes, NodeCrash, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: -1, Node: rng.Intn(cfg.Nodes)}
	})
	emit(cfg.Partitions, NodePartition, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: -1, Node: rng.Intn(cfg.Nodes), Duration: dur()}
	})
	emit(cfg.PushErrs, ACLPushError, func() Event {
		return Event{Tick: tick(), Handler: -1, Source: -1, Node: rng.Intn(cfg.Nodes), Duration: dur()}
	})
	return p
}
