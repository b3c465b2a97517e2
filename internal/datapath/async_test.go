package datapath_test

import (
	"fmt"
	"math"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// newAsyncPool builds a pool whose misses go through the upcall subsystem.
func newAsyncPool(t testing.TB, workers int, disableEMC bool, opts upcall.Options) *datapath.Pool {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	p, err := datapath.New(datapath.Config{
		Switch: sw, Workers: workers, DisableEMC: disableEMC, Upcall: &opts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAsyncDriveMatchesInline is the drive-mode-equivalence acceptance
// criterion: with unbounded queues and deterministic draining, the async
// pool must match the inline pipeline verdict for verdict, counter for
// counter, and megaflow for megaflow — on a cold pass and on a warm one.
func TestAsyncDriveMatchesInline(t *testing.T) {
	for _, emc := range []bool{false, true} {
		t.Run(fmt.Sprintf("emc=%v", emc), func(t *testing.T) {
			inline := newPool(t, 4, !emc)
			async := newAsyncPool(t, 4, !emc, upcall.Options{})
			trace := attackMix(t, inline.Switch().FlowTable())

			for pass := int64(0); pass < 2; pass++ {
				want := inline.ProcessBatchSerialPorts(nil, trace, pass, nil)
				got := async.ProcessBatchSerialPorts(nil, trace, pass, nil)
				for i := range trace {
					if got[i] != want[i] {
						t.Fatalf("pass %d packet %d: async %+v != inline %+v",
							pass, i, got[i], want[i])
					}
				}
			}
			if ci, ca := inline.Switch().Counters(), async.Switch().Counters(); ci != ca {
				t.Errorf("switch counters diverge: inline %+v, async %+v", ci, ca)
			}
			ie, ae := inline.Switch().MFC().Entries(), async.Switch().MFC().Entries()
			if len(ie) != len(ae) {
				t.Fatalf("megaflow entries: inline %d, async %d", len(ie), len(ae))
			}
			for i := range ie {
				if !ie[i].Key.Equal(ae[i].Key) || !ie[i].Mask.Equal(ae[i].Mask) ||
					ie[i].Action != ae[i].Action || ie[i].RuleName != ae[i].RuleName {
					t.Fatalf("megaflow entry %d diverges: inline %+v, async %+v",
						i, ie[i], ae[i])
				}
			}
			// The async run accounted every miss as an upcall.
			tot := async.Totals()
			if tot.Upcalls != tot.SlowPath {
				t.Errorf("upcalls %d != slow-path packets %d", tot.Upcalls, tot.SlowPath)
			}
			if tot.UpcallDrops != 0 {
				t.Errorf("unbounded drive mode dropped %d upcalls", tot.UpcallDrops)
			}
			st := async.Upcalls().Stats()
			if st.Backlog != 0 || st.PendingFlows != 0 {
				t.Errorf("backlog=%d pending=%d after drive-mode run", st.Backlog, st.PendingFlows)
			}
		})
	}
}

// TestAsyncPoolDedupBurst drives the satellite dedup requirement through
// the full datapath: a 32-packet same-flow burst dispatched fire-and-forget
// coalesces onto one upcall and installs exactly one megaflow.
func TestAsyncPoolDedupBurst(t *testing.T) {
	pool := newAsyncPool(t, 4, true, upcall.Options{})
	h := benignFlows(1)[0]
	burst := make([]bitvec.Vec, 32)
	for i := range burst {
		burst[i] = h
	}
	out := pool.ProcessBatchDeferredPorts(nil, burst, 0, nil)
	for i, v := range out {
		if v.Path != vswitch.PathUpcallPending {
			t.Fatalf("packet %d: path %v, want upcall-pending", i, v.Path)
		}
	}
	st := pool.Upcalls().Stats()
	if st.Enqueued != 1 || st.Deduped != 31 {
		t.Fatalf("enqueued=%d deduped=%d, want 1/31", st.Enqueued, st.Deduped)
	}
	if n := pool.Upcalls().HandleN(math.MaxInt); n != 1 {
		t.Fatalf("drained %d upcalls, want 1", n)
	}
	if got := pool.Switch().Counters().Installs; got != 1 {
		t.Errorf("installs = %d, want exactly 1 for the 32-packet burst", got)
	}
	if got := pool.Switch().MFC().EntryCount(); got != 1 {
		t.Errorf("MFC holds %d entries, want 1", got)
	}
	// Once drained, a re-dispatch is a plain megaflow hit.
	out = pool.ProcessBatchDeferredPorts(nil, burst, 1, out)
	for i, v := range out {
		if v.Path != vswitch.PathMegaflow {
			t.Fatalf("warm packet %d: path %v, want megaflow", i, v.Path)
		}
	}
}

// TestAsyncBoundedDrops: bounded queues and quotas refuse most of a
// distinct-flow flood, bounding megaflow installs (and so mask growth)
// while the per-worker stats account every refusal.
func TestAsyncBoundedDrops(t *testing.T) {
	bounded := newAsyncPool(t, 2, true, upcall.Options{QueueCap: 8, QuotaPerSource: 4})
	open := newAsyncPool(t, 2, true, upcall.Options{})
	// A co-located attack trace: every header a miss spawning its own
	// megaflow (benign flows would all collapse into one allow entry).
	tr, err := core.CoLocated(bounded.Switch().FlowTable(),
		core.CoLocatedOptions{Noise: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	flood := tr.Headers[:256]

	for _, p := range []*datapath.Pool{bounded, open} {
		p.ProcessBatchDeferredPorts(nil, flood, 0, nil)
		p.Upcalls().HandleN(math.MaxInt)
	}

	st := bounded.Upcalls().Stats()
	if st.QuotaDrops == 0 {
		t.Error("bounded pool recorded no quota drops under a 256-flow flood")
	}
	if got, want := st.Enqueued, uint64(2*4); got != want {
		// 2 sources x 4 quota: the queue bound never binds behind the
		// stricter quota here.
		t.Errorf("bounded pool enqueued %d, want %d", got, want)
	}
	tot := bounded.Totals()
	if tot.UpcallDrops == 0 {
		t.Error("worker stats recorded no upcall drops")
	}
	if tot.Upcalls+tot.UpcallDrops != uint64(len(flood)) {
		t.Errorf("upcalls %d + drops %d != %d packets", tot.Upcalls, tot.UpcallDrops, len(flood))
	}
	nb := bounded.Switch().MFC().EntryCount()
	no := open.Switch().MFC().EntryCount()
	if no < 100 {
		t.Errorf("unbounded pool installed only %d megaflows from a %d-flow flood", no, len(flood))
	}
	if nb >= no/4 {
		t.Errorf("bounded pool installed %d megaflows vs %d unbounded: bound not effective", nb, no)
	}
}

// TestAsyncHandlersParallel exercises the concurrent dispatch under -race:
// the workers' bursts run in parallel, each draining its own misses through
// SubmitSync and so popping and resolving the others' upcalls too, and
// every packet is fully accounted.
func TestAsyncHandlersParallel(t *testing.T) {
	pool := newAsyncPool(t, 4, false, upcall.Options{})
	ref, err := vswitch.New(vswitch.Config{
		Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := attackMix(t, ref.FlowTable())
	wantAction := make(map[string]flowtable.Action, len(trace))
	for _, h := range trace {
		wantAction[h.Key()] = ref.Process(h, 0).Action
	}

	const rounds = 3
	var out []vswitch.Verdict
	for r := 0; r < rounds; r++ {
		out = pool.ProcessBatchPorts(nil, trace, int64(r), out)
		for i, v := range out {
			if want := wantAction[trace[i].Key()]; v.Action != want {
				t.Fatalf("round %d packet %d: action %v, want %v", r, i, v.Action, want)
			}
			if v.Path == vswitch.PathUpcallPending || v.Path == vswitch.PathUpcallDrop {
				t.Fatalf("round %d packet %d: unresolved path %v", r, i, v.Path)
			}
		}
	}
	totals := pool.Totals()
	wantPackets := uint64(rounds * len(trace))
	if totals.Packets != wantPackets {
		t.Errorf("pool processed %d packets, want %d", totals.Packets, wantPackets)
	}
	if got := totals.EMCHits + totals.MegaflowHits + totals.SlowPath; got != wantPackets {
		t.Errorf("per-layer stats sum to %d, want %d", got, wantPackets)
	}
	if got := totals.Dropped + totals.Allowed; got != wantPackets {
		t.Errorf("verdict stats sum to %d, want %d", got, wantPackets)
	}
	if totals.Upcalls == 0 {
		t.Error("no upcalls recorded in concurrent async mode")
	}
	pool.Close()
	st := pool.Upcalls().Stats()
	if st.Backlog != 0 || st.PendingFlows != 0 {
		t.Errorf("backlog=%d pending=%d after Close", st.Backlog, st.PendingFlows)
	}
}

// TestTotalsAggregateEMCStats is the satellite requirement: Pool.Totals
// reports the per-worker EMC cache counters (hits/misses/evictions)
// without the caller poking each worker.
func TestTotalsAggregateEMCStats(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := datapath.New(datapath.Config{Switch: sw, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 40000 flows twice: about 800 of the 80000 misses are inserted, into
	// 2x256 EMC slots, so the EMCs churn.
	flows := benignFlows(40000)
	pool.ProcessBatchSerialPorts(nil, flows, 0, nil)
	pool.ProcessBatchSerialPorts(nil, flows, 1, nil)

	tot := pool.Totals()
	if tot.EMC.Misses == 0 {
		t.Error("aggregated EMC misses is zero after a cold pass")
	}
	if tot.EMC.Evictions == 0 {
		t.Error("aggregated EMC evictions is zero despite ~800 inserts into 512 slots")
	}
	var hits, misses, evicts uint64
	for i, ws := range pool.Stats() {
		hits += ws.EMC.Hits
		misses += ws.EMC.Misses
		evicts += ws.EMC.Evictions
		if got, want := ws.EMC, pool.EMC(i).Stats(); got != want {
			t.Errorf("worker %d EMC stats %+v != cache stats %+v", i, got, want)
		}
	}
	if hits != tot.EMC.Hits || misses != tot.EMC.Misses || evicts != tot.EMC.Evictions {
		t.Errorf("Totals EMC %+v != per-worker sum hits=%d misses=%d evictions=%d",
			tot.EMC, hits, misses, evicts)
	}
	// The verdict-level EMCHits counter and the cache's own hit counter
	// describe the same events.
	if tot.EMCHits != tot.EMC.Hits {
		t.Errorf("verdict-level EMC hits %d != cache-level %d", tot.EMCHits, tot.EMC.Hits)
	}
}
