package datapath_test

import (
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// The three phases of TestEMCPhaseChange, in dispatches. Each dispatch
// hands every worker one full burst.
const (
	overflowDispatches = 1200 // 16 384 flows in random order
	mixDispatches      = 200  // 64 flows, round robin
	floodDispatches    = 400  // the co-located flood and four victims
)

// overflowFlow is the i-th flow of the emc_overflow-shaped phase: a
// never-cached web flow (noiseFlow), every fourth one to a denied port.
func overflowFlow(i int) bitvec.Vec {
	h := noiseFlow(i)
	if i%4 == 0 {
		l := bitvec.IPv4Tuple
		dp, _ := l.FieldIndex("tp_dst")
		h.SetField(l, dp, 443)
	}
	return h
}

// phaseRow is one pool shape of TestEMCPhaseChange with its pins, indexed
// by worker.
type phaseRow struct {
	name    string
	workers int
	serial  bool
	// swap replaces the flow table at the first phase-1 dispatch that
	// finds worker 0 stepped aside from its EMC.
	swap bool
	// aside is the first phase-1 dispatch whose burst skipped the EMC;
	// back is the number of phase-2 dispatches up to and including the
	// last that skipped it (0: none did); skipped3 counts the phase-3
	// bursts that skipped it, and victimEMC the phase-3 victim packets the
	// EMC decided.
	aside, back, skipped3, victimEMC []int
}

// TestEMCPhaseChange drives one pool through three phases and pins when
// each worker steps aside from its EMC and when it comes back:
//
//  1. an emc_overflow-shaped mix, 16 384 flows in random order. Once the
//     EMC is full and hits fewer than 1 in 32 of a 64-packet window, the
//     worker skips the EMC lookup for 30 bursts at a time.
//  2. a victim_mix-shaped mix of 64 flows. The worker keeps offering the
//     verdicts it skipped the EMC for, so the flows enter the full EMC at
//     1 in 100 while it is aside; a probe window that then hits 2 in 64
//     keeps the worker probing, and no burst skips the EMC afterwards.
//  3. a noise-padded co-located flood (98.4 % of packets) with four of
//     the phase-2 flows as victims, one packet in 64. The victims' share
//     alone is under 1 in 32, so the worker steps aside again: a victim
//     in a skipped burst takes the megaflow path (its megaflow was
//     installed in phase 2), and the EMC decides it only in the bursts
//     that probe. No victim takes the slow path.
//
// Every verdict is checked against flowtable.Table.Lookup of the table in
// force, and per-port and per-layer conservation is checked at the end.
// The swap rows replace the table while worker 0 is stepped aside: its
// next burst's Sync flushes the EMC although the burst skips the lookup,
// so no verdict of the old table is served after it, and the emptied EMC
// is probed again and not stepped aside from until it is full.
func TestEMCPhaseChange(t *testing.T) {
	base := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	var flood []bitvec.Vec
	for seed := int64(1); len(flood) < floodDispatches*2*datapath.DefaultBatchSize; seed++ {
		tr, err := core.CoLocated(base, core.CoLocatedOptions{Noise: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, tr.Headers...)
	}
	overflow := make([]bitvec.Vec, 16384)
	for i := range overflow {
		overflow[i] = overflowFlow(i)
	}
	mix := benignFlows(64)
	for _, row := range []phaseRow{
		{"one worker/serial", 1, true, false, []int{764}, []int{20}, []int{374}, []int{11}},
		{"two workers/concurrent", 2, false, false, []int{772, 772}, []int{24, 8}, []int{374, 374}, []int{0, 13}},
		{"one worker/serial/swap while aside", 1, true, true, []int{764}, []int{0}, []int{165}, []int{84}},
		{"two workers/concurrent/swap while aside", 2, false, true, []int{772, 772}, []int{0, 0}, []int{119, 120}, []int{141, 92}},
	} {
		t.Run(row.name, func(t *testing.T) {
			runPhaseChange(t, row, base, overflow, mix, flood)
		})
	}
}

func runPhaseChange(t *testing.T, row phaseRow, tbl *flowtable.Table, overflow, mix, flood []bitvec.Vec) {
	p := newEMCPool(t, tbl, row.workers, nil)
	dispatch := p.ProcessBatchPorts
	if row.serial {
		dispatch = p.ProcessBatchSerialPorts
	}
	W, burst := row.workers, datapath.DefaultBatchSize
	rng := rand.New(rand.NewSource(1))
	hs := make([]bitvec.Vec, W*burst)
	ports := make([]int, W*burst)
	victim := make([]bool, W*burst)
	for i := range ports {
		ports[i] = i % W // port w is pinned to worker w
	}
	want := make([]datapath.PortStats, W)
	var out []vswitch.Verdict
	bypassed := make([]uint64, W)
	aside, back, skipped3, victimEMC := make([]int, W), make([]int, W), make([]int, W), make([]int, W)
	swapped := false
	next := 0 // the next flood header

	for phase, n := range []int{overflowDispatches, mixDispatches, floodDispatches} {
		for d := 0; d < n; d++ {
			for i := range hs {
				w, k := i%W, i/W
				victim[i] = false
				switch phase {
				case 0:
					hs[i] = overflow[rng.Intn(len(overflow)/W)*W+w]
				case 1:
					hs[i] = mix[(d*burst+k)%(len(mix)/W)*W+w]
				case 2:
					if k == 0 && d%2 == 0 {
						hs[i], victim[i] = mix[(d/2)%(4/W)*W+w], true
					} else {
						hs[i] = flood[next]
						next++
					}
				}
			}
			out = dispatch(ports, hs, int64(phase), out)

			stats := p.Stats()
			skipped := make([]bool, W)
			for w, s := range stats {
				skipped[w] = s.EMCBypassed > bypassed[w]
				if skipped[w] {
					if s.EMCBypassed-bypassed[w] != uint64(burst) {
						t.Fatalf("phase %d dispatch %d: worker %d bypassed %d packets of a %d-packet burst",
							phase+1, d, w, s.EMCBypassed-bypassed[w], burst)
					}
					switch {
					case phase == 0 && aside[w] == 0:
						aside[w] = d
					case phase == 1:
						back[w] = d + 1
					case phase == 2:
						skipped3[w]++
					}
				}
				bypassed[w] = s.EMCBypassed
			}
			for i, v := range out {
				r := tbl.Lookup(hs[i])
				if v.Action != r.Action || v.OutPort != r.OutPort {
					t.Fatalf("phase %d dispatch %d packet %d (path %v): verdict %v/%d, table says %v/%d",
						phase+1, d, i, v.Path, v.Action, v.OutPort, r.Action, r.OutPort)
				}
				count(&want[ports[i]], r.Action)
				if !victim[i] {
					continue
				}
				switch {
				case v.Path == vswitch.PathMicroflow && !skipped[ports[i]]:
					victimEMC[ports[i]]++
				case v.Path != vswitch.PathMegaflow:
					t.Fatalf("flood dispatch %d: victim packet %d took path %v (worker stepped aside: %v)",
						d, i, v.Path, skipped[ports[i]])
				}
			}

			if row.swap && !swapped && skipped[0] {
				// Benign web flows are denied from here on: an EMC entry
				// that survived the swap would still allow them.
				tbl = flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{DstPort: 443})
				if _, err := p.Switch().ReplaceTable(tbl); err != nil {
					t.Fatal(err)
				}
				swapped = true
				out = dispatch(ports, hs, int64(phase), out)
				// The EMC was full; a flushed one holds at most what this
				// burst's offers admitted.
				if n := p.EMC(0).Len(); n > burst || p.Stats()[0].EMCBypassed != bypassed[0]+uint64(burst) {
					t.Fatalf("the burst after the swap left %d EMC entries, bypassed %d packets; want a flushed EMC, still aside",
						n, p.Stats()[0].EMCBypassed-bypassed[0])
				}
				bypassed[0] += uint64(burst)
				for w := 1; w < W; w++ {
					bypassed[w] = p.Stats()[w].EMCBypassed
				}
				for i, v := range out {
					r := tbl.Lookup(hs[i])
					if v.Action != r.Action || v.OutPort != r.OutPort {
						t.Fatalf("after the swap, packet %d (path %v): verdict %v, the new table says %v", i, v.Path, v.Action, r.Action)
					}
					count(&want[ports[i]], r.Action)
				}
			}
		}
	}

	for w := 0; w < W; w++ {
		if aside[w] != row.aside[w] || back[w] != row.back[w] || skipped3[w] != row.skipped3[w] || victimEMC[w] != row.victimEMC[w] {
			t.Errorf("worker %d: stepped aside at phase-1 dispatch %d, last skipped phase-2 dispatch %d, "+
				"%d phase-3 bursts skipped, %d phase-3 victim packets from the EMC; pinned %d, %d, %d, %d",
				w, aside[w], back[w], skipped3[w], victimEMC[w], row.aside[w], row.back[w], row.skipped3[w], row.victimEMC[w])
		}
	}
	tot := p.Totals()
	if tot.Packets != tot.EMCHits+tot.MegaflowHits+tot.SlowPath {
		t.Errorf("packets %d != EMC %d + megaflow %d + slow path %d", tot.Packets, tot.EMCHits, tot.MegaflowHits, tot.SlowPath)
	}
	if tot.EMC.Hits+tot.EMC.Misses+tot.EMCBypassed != tot.Packets || tot.EMC.Hits != tot.EMCHits {
		t.Errorf("EMC hits %d + misses %d + bypassed %d != packets %d, or hits != EMCHits %d",
			tot.EMC.Hits, tot.EMC.Misses, tot.EMCBypassed, tot.Packets, tot.EMCHits)
	}
	for port, ps := range tot.Ports {
		if ps.Packets != ps.Allowed+ps.Dropped || ps != want[port] {
			t.Errorf("port %d: %+v, the table's tally %+v", port, ps, want[port])
		}
	}
	if tot.EMCBypassed == 0 || tot.EMCHits == 0 {
		t.Errorf("the run never bypassed (%d) or never hit (%d) the EMC", tot.EMCBypassed, tot.EMCHits)
	}
}

// count tallies one packet with verdict a on its port.
func count(ps *datapath.PortStats, a flowtable.Action) {
	ps.Packets++
	if a == flowtable.Drop {
		ps.Dropped++
	} else {
		ps.Allowed++
	}
}
