package upcall_test

import (
	"fmt"
	"sync"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// newSwitch builds the PMD-configuration switch the upcall subsystem
// fronts: slow path + megaflow cache.
func newSwitch(t testing.TB, use flowtable.UseCase) *vswitch.Switch {
	t.Helper()
	tbl := flowtable.UseCaseACL(use, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func newSub(t testing.TB, sw *vswitch.Switch, sources int, opts upcall.Options) *upcall.Subsystem {
	t.Helper()
	u, err := upcall.New(sw, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// header builds a benign web-flow header with a distinguishing source IP
// and port.
func header(sip uint32, sport uint16) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		f, _ := l.FieldIndex(name)
		h.SetField(l, f, v)
	}
	set("ip_src", uint64(sip))
	set("ip_dst", 0xc0a80002)
	set("ip_proto", 6)
	set("tp_src", uint64(sport))
	set("tp_dst", 80)
	return h
}

// TestDedupBurst is the satellite requirement verbatim: a 32-packet
// same-flow miss burst coalesces onto one upcall and installs exactly one
// megaflow.
func TestDedupBurst(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{})
	h := header(0x0a000001, 40000)

	tickets := make([]upcall.Ticket, 32)
	for i := range tickets {
		tk, out := sub.Submit(0, h, 0)
		want := upcall.Coalesced
		if i == 0 {
			want = upcall.Enqueued
		}
		if out != want {
			t.Fatalf("submit %d: outcome %v, want %v", i, out, want)
		}
		tickets[i] = tk
	}
	st := sub.Stats()
	if st.Enqueued != 1 || st.Deduped != 31 {
		t.Fatalf("stats enqueued=%d deduped=%d, want 1/31", st.Enqueued, st.Deduped)
	}
	if n := sub.DrainAll(); n != 1 {
		t.Fatalf("drained %d upcalls, want 1", n)
	}
	if got := sw.Counters().Installs; got != 1 {
		t.Errorf("installs = %d, want exactly 1 for the whole burst", got)
	}
	if got := sw.MFC().EntryCount(); got != 1 {
		t.Errorf("MFC holds %d entries, want 1", got)
	}
	first, _ := tickets[0].Resolved()
	for i, tk := range tickets {
		v, ok := tk.Resolved()
		if !ok {
			t.Fatalf("ticket %d unresolved after drain", i)
		}
		if v != first {
			t.Fatalf("ticket %d verdict %+v != ticket 0 %+v", i, v, first)
		}
	}
	if v := first; v.Path != vswitch.PathSlow || v.Action != flowtable.Allow {
		t.Errorf("burst verdict %+v, want slow-path allow", v)
	}
	if st := sub.Stats(); st.PendingFlows != 0 || st.Backlog != 0 {
		t.Errorf("pending=%d backlog=%d after drain, want 0/0", st.PendingFlows, st.Backlog)
	}
}

// TestQueueBound: a full queue refuses the miss.
func TestQueueBound(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{QueueCap: 2})
	for i := 0; i < 4; i++ {
		_, out := sub.Submit(0, header(0x0a000010+uint32(i), 40100), 0)
		want := upcall.Enqueued
		if i >= 2 {
			want = upcall.DroppedQueueFull
		}
		if out != want {
			t.Fatalf("submit %d: outcome %v, want %v", i, out, want)
		}
	}
	st := sub.Stats()
	if st.Enqueued != 2 || st.QueueDrops != 2 {
		t.Fatalf("enqueued=%d queueDrops=%d, want 2/2", st.Enqueued, st.QueueDrops)
	}
	if st.MaxBacklog != 2 {
		t.Errorf("max backlog %d, want 2", st.MaxBacklog)
	}
	// Draining frees the slots for the next burst.
	sub.DrainAll()
	if _, out := sub.Submit(0, header(0x0a000020, 40101), 0); out != upcall.Enqueued {
		t.Errorf("post-drain submit refused: %v", out)
	}
}

// TestQuotaRefill: the per-source rate limit refuses the tail of a
// same-second flood and refills on the next virtual second.
func TestQuotaRefill(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{QuotaPerSource: 2})
	for i := 0; i < 3; i++ {
		_, out := sub.Submit(0, header(0x0a000030+uint32(i), 40200), 0)
		want := upcall.Enqueued
		if i >= 2 {
			want = upcall.DroppedQuota
		}
		if out != want {
			t.Fatalf("submit %d: outcome %v, want %v", i, out, want)
		}
	}
	// A different source has its own bucket.
	if _, out := sub.Submit(1, header(0x0a000033, 40201), 0); out != upcall.Enqueued {
		t.Fatalf("source 1 refused despite its own quota: %v", out)
	}
	// Next second: source 0 refills.
	if _, out := sub.Submit(0, header(0x0a000034, 40202), 1); out != upcall.Enqueued {
		t.Fatalf("source 0 refused after refill: %v", out)
	}
	if st := sub.Stats(); st.QuotaDrops != 1 {
		t.Errorf("quota drops = %d, want 1", st.QuotaDrops)
	}
}

// TestQueueFullDoesNotBurnQuota: a miss refused for lack of queue space
// must leave the source's admission budget intact.
func TestQueueFullDoesNotBurnQuota(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{QueueCap: 1, QuotaPerSource: 2})
	if _, out := sub.Submit(0, header(0x0a000080, 40600), 0); out != upcall.Enqueued {
		t.Fatalf("first submit: %v", out)
	}
	if _, out := sub.Submit(0, header(0x0a000081, 40601), 0); out != upcall.DroppedQueueFull {
		t.Fatalf("second submit: %v, want queue-full", out)
	}
	sub.DrainAll()
	// The queue-full refusal consumed no token: the second of the two
	// quota slots is still available this second.
	if _, out := sub.Submit(0, header(0x0a000082, 40602), 0); out != upcall.Enqueued {
		t.Fatalf("post-drain submit: %v, want enqueued (token preserved)", out)
	}
	sub.DrainAll()
	if _, out := sub.Submit(0, header(0x0a000083, 40603), 0); out != upcall.DroppedQuota {
		t.Fatalf("fourth submit: %v, want quota drop (budget spent)", out)
	}
}

// TestRoundRobinDrain: HandleN alternates across source queues, so a
// flooding source cannot monopolise the handler budget.
func TestRoundRobinDrain(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{})
	var flood, victim []upcall.Ticket
	for i := 0; i < 6; i++ {
		tk, _ := sub.Submit(0, header(0x0a000040+uint32(i), 40300), 0)
		flood = append(flood, tk)
	}
	for i := 0; i < 2; i++ {
		tk, _ := sub.Submit(1, header(0x0a000050+uint32(i), 40301), 0)
		victim = append(victim, tk)
	}
	// A budget of 4 must serve both of source 1's upcalls even though
	// source 0 queued three times as many first.
	if n := sub.HandleN(4); n != 4 {
		t.Fatalf("handled %d, want 4", n)
	}
	for i, tk := range victim {
		if _, ok := tk.Resolved(); !ok {
			t.Errorf("victim upcall %d still queued behind the flood", i)
		}
	}
	resolved := 0
	for _, tk := range flood {
		if _, ok := tk.Resolved(); ok {
			resolved++
		}
	}
	if resolved != 2 {
		t.Errorf("flood got %d of the budget, want 2", resolved)
	}
}

// TestQueueCompactionPreservesFIFO drives a deep queue through the
// mid-drain compaction path (head past the compaction threshold while the
// queue stays non-empty) and checks strict FIFO resolution throughout.
func TestQueueCompactionPreservesFIFO(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{})
	var tickets []upcall.Ticket
	push := func(n int) {
		for i := 0; i < n; i++ {
			k := len(tickets)
			tk, out := sub.Submit(0, header(0x0a010000+uint32(k), uint16(41000+k)), 0)
			if out != upcall.Enqueued {
				t.Fatalf("submit %d: %v", k, out)
			}
			tickets = append(tickets, tk)
		}
	}
	checkPrefix := func(resolved int) {
		t.Helper()
		for i, tk := range tickets {
			if _, ok := tk.Resolved(); ok != (i < resolved) {
				t.Fatalf("ticket %d resolved=%v, want %v (FIFO prefix of %d)",
					i, ok, i < resolved, resolved)
			}
		}
	}
	push(100)
	sub.HandleN(60) // compaction triggers mid-drain
	checkPrefix(60)
	push(50) // appends onto the compacted backing array
	sub.HandleN(70)
	checkPrefix(130)
	sub.DrainAll()
	checkPrefix(len(tickets))
}

// TestSubmitSyncMatchesInline: the drive mode routes every miss through
// the queue/pending machinery yet stays verdict- and counter-equivalent to
// the inline pipeline.
func TestSubmitSyncMatchesInline(t *testing.T) {
	swA := newSwitch(t, flowtable.SipDp)
	swB := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, swB, 1, upcall.Options{})
	tr, err := core.CoLocated(swA.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var scratch [1]vswitch.Verdict
	for i, h := range tr.Headers {
		want := swA.Process(h, 0)
		// Fast path on swB, with the miss routed through the subsystem —
		// the seam the async datapath uses.
		got := swB.ProcessBatchOn(nil, tr.Headers[i:i+1], 0, scratch[:],
			func(_, probes int) vswitch.Verdict {
				v, out := sub.SubmitSync(0, h, 0)
				if out.Dropped() {
					t.Fatalf("packet %d dropped by an unbounded subsystem: %v", i, out)
				}
				v.Probes = probes // as the datapath stamps the miss's own probes
				return v
			})[0]
		if got != want {
			t.Fatalf("packet %d: upcall verdict %+v != inline %+v", i, got, want)
		}
	}
	if ca, cb := swA.Counters(), swB.Counters(); ca != cb {
		t.Errorf("counters diverge: inline %+v, upcall %+v", ca, cb)
	}
	ea, eb := swA.MFC().Entries(), swB.MFC().Entries()
	if len(ea) != len(eb) {
		t.Fatalf("MFC entries: inline %d, upcall %d", len(ea), len(eb))
	}
	for i := range ea {
		if !ea[i].Key.Equal(eb[i].Key) || !ea[i].Mask.Equal(eb[i].Mask) ||
			ea[i].Action != eb[i].Action {
			t.Fatalf("MFC entry %d diverges", i)
		}
	}
}

// TestSubmitSyncAllocs pins the heap allocations of one SubmitSync round
// trip — admit, queue, pop, classify, resolve — on the stationary shape
// BenchmarkRoundtripSuppressed measures (a monitor-deleted megaflow, so
// nothing installs). A per-upcall allocation added to or removed from the
// slow path moves the pin; change it only on purpose.
func TestSubmitSyncAllocs(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 1, upcall.Options{})
	h := header(0x0a000002, 40001)
	sw.Process(h, 0)
	sw.DeleteMegaflows(func(*tss.Entry) bool { return true })
	allocs := testing.AllocsPerRun(200, func() {
		if v, out := sub.SubmitSync(0, h, 0); out != upcall.Enqueued || v.Path != vswitch.PathSlow {
			t.Fatalf("round trip %v / %+v, want an enqueued slow-path verdict", out, v)
		}
	})
	if allocs != 10 {
		t.Errorf("SubmitSync round trip allocates %v times, pinned at 10", allocs)
	}
}

// TestRevalidatorExpiresIdle: the revalidator's sweep applies the same
// idle horizon Switch.Tick does.
func TestRevalidatorExpiresIdle(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	// Two headers that spawn distinct megaflows: an allowed web flow and a
	// denied port (a drop proof with a different mask).
	sw.Process(header(0x0a000060, 40400), 0)
	denied := header(0x0a000061, 40401)
	l := bitvec.IPv4Tuple
	dp, _ := l.FieldIndex("tp_dst")
	denied.SetField(l, dp, 81)
	sw.Process(denied, 5)
	if got := sw.MFC().EntryCount(); got != 2 {
		t.Fatalf("setup installed %d megaflows, want 2", got)
	}
	if res := rv.Sweep(9); res.Deleted() != 0 {
		t.Fatalf("sweep at t=9 deleted %d, want 0", res.Deleted())
	}
	if res := rv.Sweep(12); res.Expired != 1 {
		t.Fatalf("sweep at t=12 expired %d, want 1 (the t=0 entry)", res.Expired)
	}
	if res := rv.Sweep(30); res.Expired != 1 {
		t.Fatalf("sweep at t=30 expired %d, want 1 (the t=5 entry)", res.Expired)
	}
	if n := sw.MFC().EntryCount(); n != 0 {
		t.Errorf("%d entries survive full expiry", n)
	}
}

// TestRevalidatorRevalidatesAfterSwap: SwapTable defers the dump-and-check
// to the revalidator, which deletes exactly the entries the new table no
// longer regenerates.
func TestRevalidatorRevalidatesAfterSwap(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Headers {
		sw.Process(h, 0)
	}
	before := sw.MFC().EntryCount()
	if before == 0 {
		t.Fatal("attack installed nothing")
	}

	// Swapping in an identical table invalidates nothing.
	same := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	if err := sw.SwapTable(same); err != nil {
		t.Fatal(err)
	}
	if res := rv.Sweep(0); res.Invalidated != 0 {
		t.Fatalf("identical table invalidated %d entries", res.Invalidated)
	}
	if got := sw.MFC().EntryCount(); got != before {
		t.Fatalf("entry count changed %d -> %d under identical table", before, got)
	}

	// A different ACL shape invalidates the stale megaflows at the next
	// sweep — not synchronously at swap time.
	other := flowtable.UseCaseACL(flowtable.Dp, flowtable.ACLParams{})
	if err := sw.SwapTable(other); err != nil {
		t.Fatal(err)
	}
	if got := sw.MFC().EntryCount(); got != before {
		t.Fatalf("SwapTable swept synchronously: %d -> %d", before, got)
	}
	res := rv.Sweep(0)
	if res.Invalidated == 0 {
		t.Fatal("sweep after ACL change invalidated nothing")
	}
	// Whatever survived must regenerate identically under the new table.
	gen := sw.Generator()
	for _, e := range sw.MFC().Entries() {
		if !vswitch.Revalidate(gen, e) {
			t.Fatalf("stale entry survived revalidation: %+v", e)
		}
	}
}

// TestConcurrentHandlersRevalidatorReaders runs the full slow path under
// -race: four sources each draining upcalls through SubmitSync (so four
// concurrent handlers installing megaflows and popping each other's
// queues), a revalidator goroutine sweeping on a tick channel, a mid-run
// table swap, and reader goroutines running LookupBatch against the
// shared classifier throughout.
func TestConcurrentHandlersRevalidatorReaders(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 4, upcall.Options{})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan int64)
	rvDone := make(chan struct{})
	go func() {
		defer close(rvDone)
		for now := range ticks {
			rv.Tick(now)
		}
	}()

	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			out := make([]tss.BatchResult, 32)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (seed*37 + i*32) % len(tr.Headers)
				hi := lo + 32
				if hi > len(tr.Headers) {
					hi = len(tr.Headers)
				}
				sw.MFC().LookupBatch(tr.Headers[lo:hi], int64(i), out)
			}
		}(r)
	}

	var submitters sync.WaitGroup
	for src := 0; src < 4; src++ {
		submitters.Add(1)
		go func(src int) {
			defer submitters.Done()
			for i := src; i < len(tr.Headers); i += 4 {
				v, out := sub.SubmitSync(src, tr.Headers[i], int64(i%7))
				if out.Dropped() {
					t.Errorf("unbounded subsystem dropped an upcall: %v", out)
					return
				}
				if v.Path != vswitch.PathSlow && v.Path != vswitch.PathMegaflow {
					t.Errorf("upcall resolved with path %v", v.Path)
					return
				}
			}
		}(src)
	}

	// Feed revalidator ticks and swap the table mid-run.
	for now := int64(0); now < 20; now++ {
		ticks <- now
		if now == 10 {
			if err := sw.SwapTable(flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})); err != nil {
				t.Error(err)
			}
		}
	}
	submitters.Wait()
	close(stop)
	readers.Wait()
	close(ticks)
	<-rvDone

	st := sub.Stats()
	if st.Backlog != 0 || st.PendingFlows != 0 {
		t.Errorf("backlog=%d pending=%d after the drains, want 0/0", st.Backlog, st.PendingFlows)
	}
	if st.Handled != st.Enqueued {
		t.Errorf("handled %d of %d enqueued upcalls", st.Handled, st.Enqueued)
	}
}

// TestOutcomeStrings pins the diagnostic names.
func TestOutcomeStrings(t *testing.T) {
	cases := map[upcall.Outcome]string{
		upcall.Enqueued:         "enqueued",
		upcall.Coalesced:        "coalesced",
		upcall.DroppedQueueFull: "dropped-queue-full",
		upcall.DroppedQuota:     "dropped-quota",
		upcall.Outcome(99):      "Outcome(99)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
	if upcall.Enqueued.Dropped() || upcall.Coalesced.Dropped() {
		t.Error("admitted outcomes report Dropped")
	}
	if !upcall.DroppedQueueFull.Dropped() || !upcall.DroppedQuota.Dropped() {
		t.Error("drop outcomes do not report Dropped")
	}
	_ = fmt.Sprintf("%v", upcall.Enqueued)
}
