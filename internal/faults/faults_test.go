package faults_test

import (
	"math"
	"reflect"
	"testing"

	"tse/internal/faults"
)

// TestNilPlanNoOps: every query on a nil plan is a safe no-op — the
// zero-cost-when-nil contract the hooks rely on.
func TestNilPlanNoOps(t *testing.T) {
	var p *faults.Plan
	if p.HandlerPanicAt(0, 10) {
		t.Error("nil plan reported a panic")
	}
	if _, ok := p.HandlerStallAt(0, 10); ok {
		t.Error("nil plan reported a stall")
	}
	if p.RevalidatorStalledAt(10) || p.InstallErrorAt(10) {
		t.Error("nil plan reported an active window")
	}
	if p.DeliverDelayAt(0, 10) != 0 || p.DeliverDuplicateAt(0, 10) {
		t.Error("nil plan reported a delivery fault")
	}
	if p.Events() != nil || p.Seed() != 0 {
		t.Error("nil plan reported events or a seed")
	}
}

// TestConsumeOnce: panic and stall events fire exactly once, only for a
// matching handler, and not before their tick.
func TestConsumeOnce(t *testing.T) {
	p := faults.NewPlan(
		faults.Event{Tick: 5, Kind: faults.HandlerPanic, Handler: 1},
		faults.Event{Tick: 7, Kind: faults.HandlerStall, Handler: 0, Duration: 4},
	)
	if p.HandlerPanicAt(1, 4) {
		t.Error("panic fired before its tick")
	}
	if p.HandlerPanicAt(0, 5) {
		t.Error("panic fired for the wrong handler")
	}
	if !p.HandlerPanicAt(1, 5) {
		t.Error("panic did not fire at its tick")
	}
	if p.HandlerPanicAt(1, 6) {
		t.Error("panic fired twice")
	}
	// A missed event still fires late (Tick <= now, not ==): a handler that
	// was busy at the scheduled tick dies on its next query.
	p.Add(faults.Event{Tick: 8, Kind: faults.HandlerPanic, Handler: 2})
	if !p.HandlerPanicAt(2, 11) {
		t.Error("late query missed a due panic")
	}

	until, ok := p.HandlerStallAt(0, 7)
	if !ok || until != 11 {
		t.Errorf("stall = (%d, %v), want (11, true)", until, ok)
	}
	if _, ok := p.HandlerStallAt(0, 8); ok {
		t.Error("stall consumed twice")
	}
}

// TestStallForever: Duration Forever means until released/replaced.
func TestStallForever(t *testing.T) {
	p := faults.NewPlan(faults.Event{Tick: 1, Kind: faults.HandlerStall, Handler: -1, Duration: faults.Forever})
	until, ok := p.HandlerStallAt(3, 3)
	if !ok || until != math.MaxInt64 {
		t.Errorf("forever stall = (%d, %v), want (MaxInt64, true) for any handler", until, ok)
	}
}

// TestWindows: revalidator-stall and install-error windows hold for
// [Tick, Tick+Duration) and are re-queried freely.
func TestWindows(t *testing.T) {
	p := faults.NewPlan(
		faults.Event{Tick: 10, Kind: faults.RevalidatorStall, Duration: 3},
		faults.Event{Tick: 20, Kind: faults.InstallError}, // Duration 0 = one tick
	)
	for now, want := range map[int64]bool{9: false, 10: true, 12: true, 13: false} {
		if got := p.RevalidatorStalledAt(now); got != want {
			t.Errorf("RevalidatorStalledAt(%d) = %v, want %v", now, got, want)
		}
	}
	// Windows are not consumed: asking again inside the window still holds.
	if !p.RevalidatorStalledAt(11) || !p.RevalidatorStalledAt(11) {
		t.Error("window fault was consumed")
	}
	for now, want := range map[int64]bool{19: false, 20: true, 21: false} {
		if got := p.InstallErrorAt(now); got != want {
			t.Errorf("InstallErrorAt(%d) = %v, want %v", now, got, want)
		}
	}
}

// TestDelivery: delay and duplicate apply to submissions at exactly their
// tick, filtered by source.
func TestDelivery(t *testing.T) {
	p := faults.NewPlan(
		faults.Event{Tick: 4, Kind: faults.DeliverDelay, Source: 1, Duration: 2},
		faults.Event{Tick: 6, Kind: faults.DeliverDuplicate, Source: -1},
	)
	if d := p.DeliverDelayAt(1, 4); d != 2 {
		t.Errorf("delay = %d, want 2", d)
	}
	if d := p.DeliverDelayAt(0, 4); d != 0 {
		t.Errorf("delay for unmatched source = %d, want 0", d)
	}
	if d := p.DeliverDelayAt(1, 5); d != 0 {
		t.Errorf("delay outside its tick = %d, want 0", d)
	}
	if !p.DeliverDuplicateAt(3, 6) {
		t.Error("any-source duplicate did not fire")
	}
	if p.DeliverDuplicateAt(3, 7) {
		t.Error("duplicate fired outside its tick")
	}
}

// TestRandomDeterministic: the same (seed, cfg) yields the same schedule;
// a different seed yields a different one.
func TestRandomDeterministic(t *testing.T) {
	cfg := faults.RandomConfig{
		HorizonSec: 40, Handlers: 4, Sources: 3,
		Panics: 2, Stalls: 3, SweepStalls: 1, InstallErrs: 1, Delays: 2, Dups: 2,
	}
	a, b := faults.Random(42, cfg), faults.Random(42, cfg)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	if a.Seed() != 42 {
		t.Errorf("seed = %d, want 42", a.Seed())
	}
	c := faults.Random(43, cfg)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Error("different seeds produced identical schedules")
	}
	if n := len(a.Events()); n != 11 {
		t.Errorf("event count = %d, want 11", n)
	}
	for _, e := range a.Events() {
		if e.Tick < 0 || e.Tick >= 40 {
			t.Errorf("event tick %d outside horizon", e.Tick)
		}
	}
}

// TestNodeFaults: the node-level kinds follow the same mechanics as their
// single-box cousins — NodeCrash consumes once per event, partition and
// push-error windows hold for [Tick, Tick+Duration) filtered by node.
func TestNodeFaults(t *testing.T) {
	p := faults.NewPlan(
		faults.Event{Tick: 5, Kind: faults.NodeCrash, Node: 1},
		faults.Event{Tick: 10, Kind: faults.NodePartition, Node: 2, Duration: 4},
		faults.Event{Tick: 12, Kind: faults.ACLPushError, Node: -1, Duration: 2},
	)
	if p.NodeCrashAt(1, 4) {
		t.Error("crash fired before its tick")
	}
	if p.NodeCrashAt(0, 5) {
		t.Error("crash fired for the wrong node")
	}
	if !p.NodeCrashAt(1, 6) {
		t.Error("late query missed a due crash")
	}
	if p.NodeCrashAt(1, 7) {
		t.Error("crash fired twice")
	}

	for now, want := range map[int64]bool{9: false, 10: true, 13: true, 14: false} {
		if got := p.NodePartitionedAt(2, now); got != want {
			t.Errorf("NodePartitionedAt(2, %d) = %v, want %v", now, got, want)
		}
	}
	if p.NodePartitionedAt(0, 11) {
		t.Error("partition leaked onto an untargeted node")
	}
	// Windows are not consumed; node -1 matches every node.
	if !p.ACLPushErrorAt(0, 12) || !p.ACLPushErrorAt(3, 13) || !p.ACLPushErrorAt(0, 12) {
		t.Error("any-node push-error window misbehaved")
	}
	if p.ACLPushErrorAt(0, 14) {
		t.Error("push-error window held past its duration")
	}

	// Nil-plan contract extends to the node queries.
	var nilP *faults.Plan
	if nilP.NodeCrashAt(0, 1) || nilP.NodePartitionedAt(0, 1) || nilP.ACLPushErrorAt(0, 1) {
		t.Error("nil plan reported a node fault")
	}
}

// TestRandomNodeFaults: seeded generation covers the node kinds
// deterministically and respects the node range.
func TestRandomNodeFaults(t *testing.T) {
	cfg := faults.RandomConfig{
		HorizonSec: 30, Nodes: 4,
		Crashes: 2, Partitions: 2, PushErrs: 2,
	}
	a, b := faults.Random(7, cfg), faults.Random(7, cfg)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different node schedules")
	}
	if n := len(a.Events()); n != 6 {
		t.Fatalf("event count = %d, want 6", n)
	}
	for _, e := range a.Events() {
		if e.Node < 0 || e.Node >= 4 {
			t.Errorf("%v targets node %d outside [0,4)", e.Kind, e.Node)
		}
		switch e.Kind {
		case faults.NodePartition, faults.ACLPushError:
			if e.Duration <= 0 {
				t.Errorf("%v has no window duration", e.Kind)
			}
		case faults.NodeCrash:
		default:
			t.Errorf("unexpected kind %v in node-only config", e.Kind)
		}
	}
}

// TestQueriesShareTargetingAndOneShot pins what the plan's shared scan
// helpers must keep for every query: an event is matched on the target
// field of its own kind only (a -1 in another field must not widen it), a
// negative own target matches anyone, no query fires before its tick,
// one-shot kinds fire once and window kinds hold.
func TestQueriesShareTargetingAndOneShot(t *testing.T) {
	stallAt := func(p *faults.Plan, id int, now int64) bool { _, ok := p.HandlerStallAt(id, now); return ok }
	delay := func(p *faults.Plan, id int, now int64) bool { return p.DeliverDelayAt(id, now) > 0 }
	for _, tc := range []struct {
		name    string
		kind    faults.Kind
		target  func(e *faults.Event) *int
		ask     func(p *faults.Plan, id int, now int64) bool
		oneShot bool
	}{
		{"panic", faults.HandlerPanic, func(e *faults.Event) *int { return &e.Handler }, (*faults.Plan).HandlerPanicAt, true},
		{"stall", faults.HandlerStall, func(e *faults.Event) *int { return &e.Handler }, stallAt, true},
		{"crash", faults.NodeCrash, func(e *faults.Event) *int { return &e.Node }, (*faults.Plan).NodeCrashAt, true},
		{"delay", faults.DeliverDelay, func(e *faults.Event) *int { return &e.Source }, delay, false},
		{"duplicate", faults.DeliverDuplicate, func(e *faults.Event) *int { return &e.Source }, (*faults.Plan).DeliverDuplicateAt, false},
		{"partition", faults.NodePartition, func(e *faults.Event) *int { return &e.Node }, (*faults.Plan).NodePartitionedAt, false},
		{"push error", faults.ACLPushError, func(e *faults.Event) *int { return &e.Node }, (*faults.Plan).ACLPushErrorAt, false},
	} {
		ev := faults.Event{Tick: 5, Kind: tc.kind, Handler: -1, Source: -1, Node: -1}
		*tc.target(&ev) = 2
		p := faults.NewPlan(ev)
		if tc.ask(p, 2, 4) {
			t.Errorf("%s: fired before its tick", tc.name)
		}
		if tc.ask(p, 1, 5) {
			t.Errorf("%s: matched id 1, the event targets 2", tc.name)
		}
		if !tc.ask(p, 2, 5) {
			t.Errorf("%s: did not fire for its target at its tick", tc.name)
		}
		if again := tc.ask(p, 2, 5); again == tc.oneShot {
			t.Errorf("%s: second query = %v, one-shot = %v", tc.name, again, tc.oneShot)
		}
		*tc.target(&ev) = -1
		if !tc.ask(faults.NewPlan(ev), 7, 5) {
			t.Errorf("%s: target -1 did not match id 7", tc.name)
		}
	}
}

// TestStallEndAndDelayTick: HandlerStallAt returns Tick + max(Duration, 1)
// (MaxInt64 for Forever) even when asked late, and DeliverDelayAt is not a
// window — it applies at exactly its tick, for at least one tick.
func TestStallEndAndDelayTick(t *testing.T) {
	for dur, want := range map[int64]int64{0: 11, 1: 11, 4: 14, faults.Forever: math.MaxInt64} {
		p := faults.NewPlan(faults.Event{Tick: 10, Kind: faults.HandlerStall, Duration: dur})
		if until, ok := p.HandlerStallAt(0, 12); !ok || until != want {
			t.Errorf("stall Duration %d: until = (%d, %v), want %d", dur, until, ok, want)
		}
	}
	p := faults.NewPlan(
		faults.Event{Tick: 10, Kind: faults.DeliverDelay, Duration: 3},
		faults.Event{Tick: 20, Kind: faults.DeliverDelay},
	)
	for now, want := range map[int64]int64{9: 0, 10: 3, 11: 0, 12: 0, 20: 1} {
		if d := p.DeliverDelayAt(0, now); d != want {
			t.Errorf("DeliverDelayAt(0, %d) = %d, want %d", now, d, want)
		}
	}
}
