package datapath_test

import (
	"fmt"
	"sync"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// benignFlows builds n distinct benign web flows (allowed by rule #1 of
// every use-case ACL).
func benignFlows(n int) []bitvec.Vec {
	l := bitvec.IPv4Tuple
	out := make([]bitvec.Vec, n)
	for i := range out {
		h := bitvec.NewVec(l)
		set := func(name string, v uint64) {
			f, _ := l.FieldIndex(name)
			h.SetField(l, f, v)
		}
		set("ip_src", 0x0a010000+uint64(i))
		set("ip_dst", 0xc0a80002)
		set("ip_proto", 6)
		set("tp_src", 30000+uint64(i%1000))
		set("tp_dst", 80)
		out[i] = h
	}
	return out
}

// attackMix is a co-located SipDp trace interleaved with benign re-visits.
func attackMix(t testing.TB, tbl *flowtable.Table) []bitvec.Vec {
	t.Helper()
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	benign := benignFlows(16)
	var out []bitvec.Vec
	for i, h := range tr.Headers {
		out = append(out, h, benign[i%len(benign)])
	}
	return out
}

func newPool(t testing.TB, workers int, disableEMC bool) *datapath.Pool {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	p, err := datapath.New(datapath.Config{
		Switch: sw, Workers: workers, DisableEMC: disableEMC})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkerForRSS checks dispatch is flow-sticky (same header, same
// worker) and actually spreads a diverse trace across all workers.
func TestWorkerForRSS(t *testing.T) {
	p := newPool(t, 4, false)
	trace := attackMix(t, p.Switch().FlowTable())
	seen := make([]int, p.Workers())
	workerFor := func(h bitvec.Vec) int { return p.PortWorker(p.PortOf(h)) }
	for _, h := range trace {
		w := workerFor(h)
		if again := workerFor(h); again != w {
			t.Fatalf("RSS worker not stable: %d then %d", w, again)
		}
		seen[w]++
	}
	for w, n := range seen {
		if n == 0 {
			t.Errorf("worker %d received no packets from a %d-packet trace",
				w, len(trace))
		}
	}
	// Assignments mirrors the RSS worker for the latest dispatch.
	p.ProcessBatchSerialPorts(nil, trace, 0, nil)
	assign := p.Assignments()
	if len(assign) != len(trace) {
		t.Fatalf("Assignments length %d, want %d", len(assign), len(trace))
	}
	for i, h := range trace {
		if assign[i] != workerFor(h) {
			t.Fatalf("packet %d: Assignments says worker %d, RSS says %d",
				i, assign[i], workerFor(h))
		}
	}
}

// TestPoolSerialDeterminism: two cold pools over identical switches must
// produce bit-identical verdict streams — the property the paper-figure
// simulations lean on.
func TestPoolSerialDeterminism(t *testing.T) {
	a, b := newPool(t, 4, true), newPool(t, 4, true)
	trace := attackMix(t, a.Switch().FlowTable())
	va := a.ProcessBatchSerialPorts(nil, trace, 0, nil)
	vb := b.ProcessBatchSerialPorts(nil, trace, 0, nil)
	for i := range trace {
		if va[i] != vb[i] {
			t.Fatalf("packet %d: run A %+v != run B %+v", i, va[i], vb[i])
		}
	}
}

// TestPoolMatchesSerialSwitch compares the sharded pool against a plain
// serial switch on the same trace. On the cold pass, sharding reorders
// slow-path installs, so scan positions (Probes) may differ, but the
// decisions may not: Action, OutPort and deciding rule must agree packet
// for packet, and the final megaflow cache must hold the identical entry
// set. On a warm second pass — no installs left — the pool must be
// verdict-for-verdict identical to serial processing.
func TestPoolMatchesSerialSwitch(t *testing.T) {
	for _, emc := range []bool{false, true} {
		t.Run(fmt.Sprintf("emc=%v", emc), func(t *testing.T) {
			pool := newPool(t, 4, !emc)
			ref, err := vswitch.New(vswitch.Config{
				Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			trace := attackMix(t, ref.FlowTable())

			got := pool.ProcessBatchSerialPorts(nil, trace, 0, nil)
			want := make([]vswitch.Verdict, len(trace))
			for i, h := range trace {
				want[i] = ref.Process(h, 0)
			}
			for i := range trace {
				if got[i].Action != want[i].Action || got[i].OutPort != want[i].OutPort {
					t.Fatalf("cold packet %d: pool %+v != serial %+v", i, got[i], want[i])
				}
				// EMC hits legitimately report PathMicroflow and no rule;
				// everything else must name the same deciding rule.
				if got[i].Path != vswitch.PathMicroflow && got[i].Rule != want[i].Rule {
					t.Fatalf("cold packet %d: pool rule %q != serial %q",
						i, got[i].Rule, want[i].Rule)
				}
			}

			pe, re := pool.Switch().MFC().Entries(), ref.MFC().Entries()
			if len(pe) != len(re) {
				t.Fatalf("megaflow entries: pool %d, serial %d", len(pe), len(re))
			}
			for i := range pe {
				if !pe[i].Key.Equal(re[i].Key) || !pe[i].Mask.Equal(re[i].Mask) ||
					pe[i].Action != re[i].Action || pe[i].RuleName != re[i].RuleName {
					t.Fatalf("megaflow entry %d diverges: pool %+v, serial %+v",
						i, pe[i], re[i])
				}
			}

			if emc {
				return // warm-pass verdicts include EMC paths by design
			}
			got = pool.ProcessBatchSerialPorts(nil, trace, 1, got)
			for i, h := range trace {
				want[i] = ref.Process(h, 1)
			}
			for i := range trace {
				if got[i] != want[i] {
					t.Fatalf("warm packet %d: pool %+v != serial %+v",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestPoolParallel drives the concurrent mode (run with -race): verdict
// actions must match a reference switch, and per-worker counters must
// account for every packet.
func TestPoolParallel(t *testing.T) {
	pool := newPool(t, 4, false)
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
	var stats [4]datapath.WorkerStats
	copy(stats[:], pool.Stats())
	for w, s := range stats {
		if s.Packets == 0 {
			t.Errorf("worker %d idle across %d packets", w, wantPackets)
		}
	}
}

// TestPoolParallelConcurrentDispatchers is intentionally absent: a Pool is
// single-dispatcher by contract. This test instead hammers one dispatcher
// against monitor goroutines touching the shared switch, mirroring how a
// deployment runs MFCGuard next to the datapath.
func TestPoolWithConcurrentMonitor(t *testing.T) {
	pool := newPool(t, 4, false)
	trace := attackMix(t, pool.Switch().FlowTable())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pool.Switch().Tick(int64(i))
			pool.Switch().Counters()
			pool.Switch().MFC().MaskCount()
		}
	}()
	var out []vswitch.Verdict
	for r := 0; r < 3; r++ {
		out = pool.ProcessBatchPorts(nil, trace, int64(r), out)
	}
	close(stop)
	wg.Wait()
	if got, want := pool.Totals().Packets, uint64(3*len(trace)); got != want {
		t.Errorf("pool processed %d packets, want %d", got, want)
	}
}
