package datapath_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// parityStream is the seeded 4-port stream TestDispatchParity sends: eight
// benign flows that repeat until the EMC admits them (slow path, then
// megaflow hits, then EMC hits) interleaved with never-repeating co-located
// attack headers, each packet on a random port.
func parityStream(t *testing.T, tbl *flowtable.Table) (hs []bitvec.Vec, ports []int) {
	t.Helper()
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	benign := benignFlows(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6000; i++ {
		if rng.Intn(5) < 3 {
			hs = append(hs, benign[rng.Intn(len(benign))])
		} else {
			hs = append(hs, tr.Headers[i%len(tr.Headers)])
		}
		ports = append(ports, rng.Intn(4))
	}
	return hs, ports
}

// dispatchParity sends the stream through a fresh pool of the given shape
// in chunks of 100 (not a multiple of the 32-packet burst), replacing the
// flow table once halfway, and returns the pool's per-port totals indexed
// by stream port. Stream port p arrives on pool port stride*p. Every
// verdict must equal the flow table's own lookup, and no dispatch may write
// the caller's headers or ports.
func dispatchParity(t *testing.T, workers, poolPorts, stride int, serial bool) ([]datapath.PortStats, *datapath.Pool) {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	p, err := datapath.New(datapath.Config{Switch: sw, Workers: workers, Ports: poolPorts})
	if err != nil {
		t.Fatal(err)
	}
	dispatch := p.ProcessBatchPorts
	if serial {
		dispatch = p.ProcessBatchSerialPorts
	}
	hs, streamPorts := parityStream(t, tbl)
	ports := make([]int, len(streamPorts))
	for i, port := range streamPorts {
		ports[i] = stride * port
	}
	wantHs := make([]bitvec.Vec, len(hs))
	for i, h := range hs {
		wantHs[i] = h.Clone()
	}
	wantPorts := slices.Clone(ports)

	var out []vswitch.Verdict
	const chunk = 100
	for start := 0; start < len(hs); start += chunk {
		if start == len(hs)/2 {
			// Benign web flows are denied from here on: an EMC entry that
			// survived the swap would still allow them.
			tbl = flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{DstPort: 443})
			if _, err := sw.ReplaceTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		end := start + chunk
		out = dispatch(ports[start:end], hs[start:end], int64(start/chunk), out)
		for i, v := range out {
			h := hs[start+i]
			if r := tbl.Lookup(h); v.Action != r.Action || v.OutPort != r.OutPort {
				t.Fatalf("packet %d (path %v): verdict %v/%d, table says %v/%d",
					start+i, v.Path, v.Action, v.OutPort, r.Action, r.OutPort)
			}
		}
		for i := start; i < end; i++ {
			if !hs[i].Equal(wantHs[i]) || ports[i] != wantPorts[i] {
				t.Fatalf("dispatch at %d rewrote packet %d's header or port", start, i)
			}
		}
	}

	tot := p.Totals()
	if tot.EMCHits == 0 || tot.MegaflowHits == 0 || tot.SlowPath == 0 {
		t.Fatalf("stream did not reach every layer: %+v", tot)
	}
	byStream := make([]datapath.PortStats, 4)
	for port, ps := range tot.Ports {
		if port%stride != 0 {
			if ps != (datapath.PortStats{}) {
				t.Fatalf("pool port %d carries no stream port but counted %+v", port, ps)
			}
			continue
		}
		byStream[port/stride] = ps
	}
	return byStream, p
}

// TestDispatchParity holds every dispatch shape to the same answers: a
// one-worker pool and a two-worker pool whose ports all pin to worker 0
// read each dispatch in place, a two-worker pool with interleaved ports
// gathers each worker's bursts by index, and each runs serially and
// concurrently. All must give the flow table's verdicts and the same
// per-port totals.
func TestDispatchParity(t *testing.T) {
	var ref []datapath.PortStats
	for _, tc := range []struct {
		name                   string
		workers, ports, stride int
		serial                 bool
		idle                   int // a worker no packet may reach, or -1
	}{
		{"one worker/serial", 1, 4, 1, true, -1},
		{"one worker/concurrent", 1, 4, 1, false, -1},
		{"pinned to worker 0/serial", 2, 8, 2, true, 1},
		{"pinned to worker 0/concurrent", 2, 8, 2, false, 1},
		{"interleaved/serial", 2, 4, 1, true, -1},
		{"interleaved/concurrent", 2, 4, 1, false, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, p := dispatchParity(t, tc.workers, tc.ports, tc.stride, tc.serial)
			if tc.idle >= 0 {
				if n := p.Stats()[tc.idle].Packets; n != 0 {
					t.Errorf("worker %d ran %d packets, want none", tc.idle, n)
				}
			}
			if ref == nil {
				ref = got
				return
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("per-port totals diverge from the first row:\ngot  %+v\nwant %+v", got, ref)
			}
		})
	}
}
