// Tests for the first-class vport layer: port-pinned dispatch, per-port
// counters, and the fairness invariant — a victim port sharing a PMD
// worker with a flooding port keeps its full admission quota.
package datapath_test

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

func newPortPool(t testing.TB, workers, ports int, opts *upcall.Options) *datapath.Pool {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	p, err := datapath.New(datapath.Config{
		Switch: sw, Workers: workers, Ports: ports, DisableEMC: true, Upcall: opts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPortPinnedDispatch: explicit ingress ports steer every packet to the
// port's pinned worker (port % workers) and split the counters per port,
// and the megaflows their misses install record the ingress port, inline
// and through drive-mode upcalls alike.
func TestPortPinnedDispatch(t *testing.T) {
	pool := newPortPool(t, 2, 4, nil)
	flows := benignFlows(32)
	ports := make([]int, len(flows))
	for i := range ports {
		ports[i] = i % 4
	}
	// pinned checks that each worker's per-port split holds exactly the
	// packets of the ports pinned to it: want[port] packets on worker
	// port % 2, none on the other.
	pinned := func(label string, want []uint64) {
		t.Helper()
		for wi, s := range pool.Stats() {
			for port, ps := range s.Ports {
				var n uint64
				if port%2 == wi {
					n = want[port]
				}
				if ps.Packets != n {
					t.Errorf("%s: worker %d saw %d packets of port %d, want %d",
						label, wi, ps.Packets, port, n)
				}
			}
		}
	}
	pool.ProcessBatchSerialPorts(ports, flows, 0, nil)
	pinned("explicit ports", []uint64{8, 8, 8, 8})
	ps := pool.Totals().Ports
	if len(ps) != 4 {
		t.Fatalf("PortStats has %d ports, want 4", len(ps))
	}
	for port, s := range ps {
		if s.Packets != 8 {
			t.Errorf("port %d saw %d packets, want 8", port, s.Packets)
		}
		if s.Allowed+s.Dropped != s.Packets {
			t.Errorf("port %d verdicts %d+%d do not cover its %d packets",
				port, s.Allowed, s.Dropped, s.Packets)
		}
	}
	// Without explicit ports dispatch derives each port from the RSS hash
	// and runs it on that port's pinned worker.
	want := []uint64{8, 8, 8, 8}
	for _, h := range flows {
		want[pool.PortOf(h)]++
	}
	pool.ProcessBatchSerialPorts(nil, flows, 1, nil)
	pinned("RSS-derived ports", want)

	// A co-located burst on one port installs megaflows attributed to it.
	tr, err := core.CoLocated(pool.Switch().FlowTable(), core.CoLocatedOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	burst := tr.Headers[:32]
	const port = 3
	onPort := make([]int, len(burst))
	for i := range onPort {
		onPort[i] = port
	}
	for _, tc := range []struct {
		name string
		opts *upcall.Options
	}{{"inline", nil}, {"drive", &upcall.Options{}}} {
		pool := newPortPool(t, 2, 4, tc.opts)
		pool.ProcessBatchSerialPorts(onPort, burst, 0, nil)
		es := pool.Switch().MFC().Entries()
		if len(es) == 0 {
			t.Fatalf("%s: the burst installed no megaflows", tc.name)
		}
		for _, e := range es {
			if e.Port != port {
				t.Errorf("%s: megaflow %v/%v attributed to port %d, want %d", tc.name, e.Key, e.Mask, e.Port, port)
			}
		}
	}
}

// TestVictimPortKeepsQuota is the fairness invariant: with port-keyed
// admission, a victim vport sharing its one PMD worker with a flooding
// vport keeps its full per-second quota; collapse the victim onto the
// flood's vport (the pre-vport shape: one bucket per worker) and the same
// flood starves it completely.
func TestVictimPortKeepsQuota(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	flood := tr.Headers[:64]
	victim := benignFlows(4)

	// One shared dispatch: the flood (port 0) ahead of the victim's flow
	// setups, all on the single worker.
	hs := append(append([]bitvec.Vec(nil), flood...), victim...)
	for _, victimPort := range []int{1, 0} {
		ports := make([]int, len(hs))
		for i := len(flood); i < len(hs); i++ {
			ports[i] = victimPort
		}
		pool := newPortPool(t, 1, 2, &upcall.Options{QuotaPerSource: 4})
		out := pool.ProcessBatchDeferredPorts(ports, hs, 0, nil)
		if pool.Totals().Ports[0].UpcallDrops == 0 {
			t.Errorf("victim on port %d: flooding port recorded no drops", victimPort)
		}
		// Own vport: the victim's bucket is untouched by the flood. Shared
		// vport: the flood exhausted the bucket before its setups arrived.
		want := vswitch.PathUpcallPending
		if victimPort == 0 {
			want = vswitch.PathUpcallDrop
		}
		for i, v := range out[len(flood):] {
			if v.Path != want {
				t.Errorf("victim on port %d: setup %d got %v, want %v", victimPort, i, v.Path, want)
			}
		}
	}
}

// TestPortSubmitsParallel exercises concurrent per-port submission under
// -race: four workers submit from eight ports into the port-keyed queues
// and drain them concurrently.
func TestPortSubmitsParallel(t *testing.T) {
	pool := newPortPool(t, 4, 8, &upcall.Options{})
	tbl := pool.Switch().FlowTable()
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	hs := tr.Headers
	ports := make([]int, len(hs))
	for i := range ports {
		ports[i] = i % 8
	}
	out := pool.ProcessBatchPorts(ports, hs, 0, nil)
	for i, v := range out {
		if v.Path == vswitch.PathUpcallPending || v.Path == vswitch.PathUpcallDrop {
			t.Fatalf("packet %d unresolved: %v", i, v.Path)
		}
	}
	tot := pool.Totals()
	if tot.Upcalls == 0 {
		t.Fatal("no upcalls recorded")
	}
	var perPort uint64
	for _, ps := range tot.Ports {
		perPort += ps.Upcalls
	}
	if perPort != tot.Upcalls {
		t.Errorf("per-port upcalls sum %d != total %d", perPort, tot.Upcalls)
	}
	// Megaflows carry their installing port.
	seen := make(map[int32]bool)
	for _, e := range pool.Switch().MFC().Entries() {
		seen[e.Port] = true
		if e.Port < 0 || e.Port >= 8 {
			t.Fatalf("megaflow attributed to out-of-range port %d", e.Port)
		}
	}
	if len(seen) < 2 {
		t.Errorf("megaflows attributed to only %d ports", len(seen))
	}
}
