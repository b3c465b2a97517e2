package datapath_test

import (
	"math/rand"
	"reflect"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// catchAll is a one-rule IPv4 table that applies a to every header.
func catchAll(a flowtable.Action) *flowtable.Table {
	l := bitvec.IPv4Tuple
	tbl := flowtable.New(l)
	tbl.MustAdd(&flowtable.Rule{Name: a.String(), Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l), Action: a})
	return tbl
}

// noiseFlow is the i-th of a never-repeating stream of web flows, disjoint
// from benignFlows: every one misses the EMC, and all of them share the
// megaflow rule #1 of the use-case ACLs installs for tp_dst 80.
func noiseFlow(i int) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	for _, fv := range []struct {
		name string
		v    uint64
	}{{"ip_src", 0x0b000000 + uint64(i)}, {"ip_dst", 0xc0a80002}, {"ip_proto", 6},
		{"tp_src", uint64(i % 60000)}, {"tp_dst", 80}} {
		f, _ := l.FieldIndex(fv.name)
		h.SetField(l, f, fv.v)
	}
	return h
}

// newEMCPool builds a pool with per-worker EMCs over tbl, inline or, with
// opts, through the upcall subsystem.
func newEMCPool(t testing.TB, tbl *flowtable.Table, workers int, opts *upcall.Options) *datapath.Pool {
	t.Helper()
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := datapath.New(datapath.Config{Switch: sw, Workers: workers, Upcall: opts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEMCInsertDeterministic: every EMC's insertion draw starts from the
// same seed, so two fresh pools fed the same stream end with identical worker
// counters, EMC counters included, and identical verdicts.
func TestEMCInsertDeterministic(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	a, b := newEMCPool(t, tbl, 2, nil), newEMCPool(t, tbl, 2, nil)
	victims := benignFlows(64)
	rng := rand.New(rand.NewSource(5))
	// About 75 000 noise misses admit some 375 verdicts per worker: more
	// than the 256 entries of each EMC, so the stream evicts.
	stream := make([]bitvec.Vec, 150000)
	for i := range stream {
		if rng.Intn(2) == 0 {
			stream[i] = victims[rng.Intn(len(victims))]
		} else {
			stream[i] = noiseFlow(i)
		}
	}
	var va, vb []vswitch.Verdict
	for start := 0; start < len(stream); start += 1000 {
		now := int64(start / 1000)
		va = a.ProcessBatchSerialPorts(nil, stream[start:start+1000], now, va)
		vb = b.ProcessBatchSerialPorts(nil, stream[start:start+1000], now, vb)
		if !reflect.DeepEqual(va, vb) {
			t.Fatalf("chunk at %d: verdicts differ between two fresh pools", start)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("worker stats differ:\n%+v\n%+v", sa, sb)
	}
	if tot := a.Totals(); tot.EMC.Hits == 0 || tot.EMC.Evictions == 0 {
		t.Errorf("stream exercised no EMC hit or eviction: %+v", tot.EMC)
	}
}

// TestEMCInsertCountPinned: a stream of 10 000 EMC misses inserts about one
// in 100 of them. The draw repeats exactly, so the count is pinned; a
// changed pin is a changed policy or seed.
func TestEMCInsertCountPinned(t *testing.T) {
	p := newEMCPool(t, flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), 1, nil)
	stream := make([]bitvec.Vec, 10000)
	for i := range stream {
		stream[i] = noiseFlow(i)
	}
	p.ProcessBatchSerialPorts(nil, stream, 0, nil)
	if st := p.EMC(0).Stats(); st.Misses != 10000 || st.Hits != 0 {
		t.Fatalf("EMC stats %+v, want 10000 misses and no hit", st)
	}
	// Each insert of a header not yet cached fills a free entry or evicts.
	const pinned = 107
	if got := uint64(p.EMC(0).Len()) + p.EMC(0).Stats().Evictions; got != pinned {
		t.Errorf("10000 misses inserted %d verdicts, pinned %d", got, pinned)
	}
}

// TestEMCVictimConvergence: a 64-flow round-robin victim mix reaches an
// EMC hit fraction of 1.0 within a pinned number of rounds, and stays
// there.
func TestEMCVictimConvergence(t *testing.T) {
	p := newEMCPool(t, flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), 1, nil)
	victims := benignFlows(64)
	const pinnedRounds = 620 // 39 680 packets
	var out []vswitch.Verdict
	round := 0
	for ; round < 5000; round++ {
		before := p.Totals().EMCHits
		out = p.ProcessBatchSerialPorts(nil, victims, int64(round), out)
		if p.Totals().EMCHits-before == uint64(len(victims)) {
			break
		}
	}
	if round != pinnedRounds {
		t.Errorf("first all-hit round is %d (%d packets), pinned %d", round, round*len(victims), pinnedRounds)
	}
	for r := 0; r < 3; r++ {
		out = p.ProcessBatchSerialPorts(nil, victims, int64(round+1+r), out)
		for i, v := range out {
			if v.Path != vswitch.PathMicroflow {
				t.Fatalf("converged round %d packet %d: path %v, want microflow", r, i, v.Path)
			}
		}
	}
}

// TestEMCInsertNoPhaseLock: victim misses that recur with a fixed period
// in the miss stream (one victim packet, then period-1 never-repeating
// noise packets) are still admitted to the EMC. A plain one-in-100 miss
// counter locks in phase with periods that divide 100 and can starve the
// victims for good; the draw cannot.
func TestEMCInsertNoPhaseLock(t *testing.T) {
	for _, period := range []int{2, 4, 100} {
		p := newEMCPool(t, flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), 1, nil)
		victims := benignFlows(4)
		admitted := make([]bool, len(victims))
		left, noise := len(victims), 0
		var stream []bitvec.Vec
		var out []vswitch.Verdict
		for cycle := 0; left > 0 && cycle < 20000; {
			stream = stream[:0]
			for k := 0; k < 64; k++ {
				stream = append(stream, victims[(cycle+k)%len(victims)])
				for j := 1; j < period; j++ {
					stream = append(stream, noiseFlow(noise))
					noise++
				}
			}
			out = p.ProcessBatchSerialPorts(nil, stream, 0, out)
			for k := 0; k < 64; k++ {
				vi := (cycle + k) % len(victims)
				if out[k*period].Path == vswitch.PathMicroflow && !admitted[vi] {
					admitted[vi] = true
					left--
				}
			}
			cycle += 64
		}
		if left > 0 {
			t.Errorf("period %d: %d of %d victim flows never hit the EMC (admitted %v)",
				period, left, len(victims), admitted)
		}
	}
}

// warmEMC replays flows until one whole pass is decided by the EMCs.
func warmEMC(t *testing.T, p *datapath.Pool, flows []bitvec.Vec, now int64) {
	t.Helper()
	var out []vswitch.Verdict
	for pass := 0; pass < 5000; pass++ {
		out = p.ProcessBatchSerialPorts(nil, flows, now, out)
		all := true
		for _, v := range out {
			all = all && v.Path == vswitch.PathMicroflow
		}
		if all {
			return
		}
	}
	t.Fatal("the EMCs never held every flow")
}

// TestTableSwapFlushesEMC: the per-worker EMCs are keyed to the switch's
// table generation, so no verdict of a swapped-away table is served once
// the swap is settled — inline through ReplaceTable on a serial pool, and
// asynchronously through SwapTable plus a revalidator sweep on a
// concurrent upcall pool. The verdicts are checked against the new table.
func TestTableSwapFlushesEMC(t *testing.T) {
	allow, deny := catchAll(flowtable.Allow), catchAll(flowtable.Drop)
	flows := benignFlows(8)
	check := func(t *testing.T, got []vswitch.Verdict, what string) {
		t.Helper()
		for i, v := range got {
			if want := deny.Lookup(flows[i]).Action; v.Action != want {
				t.Fatalf("%s packet %d: %+v, want the new table's %v", what, i, v, want)
			}
		}
	}

	t.Run("serial-replace", func(t *testing.T) {
		p := newEMCPool(t, allow, 2, nil)
		warmEMC(t, p, flows, 0)
		if _, err := p.Switch().ReplaceTable(deny); err != nil {
			t.Fatal(err)
		}
		check(t, p.ProcessBatchSerialPorts(nil, flows, 1, nil), "after ReplaceTable")
	})

	t.Run("async-swap", func(t *testing.T) {
		p := newEMCPool(t, allow, 2, &upcall.Options{})
		defer p.Close()
		rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: p.Switch(), Subsystem: p.Upcalls()})
		if err != nil {
			t.Fatal(err)
		}
		warmEMC(t, p, flows, 0)
		if err := p.Switch().SwapTable(deny); err != nil {
			t.Fatal(err)
		}
		// Until the revalidator runs, the old megaflow still answers; the
		// EMCs must serve none of it afterwards.
		for r := 0; r < 300; r++ {
			p.ProcessBatchPorts(nil, flows, 1, nil)
		}
		rv.Tick(2)
		if p.Switch().NeedsRevalidation() {
			t.Fatal("the revalidator did not settle the swap")
		}
		check(t, p.ProcessBatchPorts(nil, flows, 3, nil), "after the revalidator sweep")
	})
}
