// Package tse's top-level benchmark suite times the paper's mechanisms on
// the real classifier and switch: the Fig. 9a lookup and miss against the
// attack's mask count, the Fig. 9b and §5.2 trace work, the §8 guard
// sweep, the Theorem 4.1 trade-off, and ablations for the design choices
// the README's "Hot path anatomy" section describes. Run with:
//
//	go test -bench=. -benchmem .
//
// The wall-clock numbers here are the *measured* ground truth behind the
// dataplane cost model: under ScanLinear, BenchmarkFig9aLookupVsMasks
// shows the linear-in-masks lookup cost (Observation 1) on the real
// classifier; under the default ScanPruned it shows this repo's flat one.
package tse

import (
	"bytes"
	"fmt"
	"testing"

	"tse/internal/analysis"
	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/packet"
	"tse/internal/pcap"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// victimKey builds the benign web flow's classifier key.
func victimKey() bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	set("ip_src", 0x08080808)
	set("ip_dst", 0xc0a80002)
	set("ip_proto", 6)
	set("tp_src", 40000)
	set("tp_dst", 80)
	return h
}

// attackedSwitch returns a switch whose MFC, scanned by scan, holds the
// co-located attack state for the use case, with the victim flow primed.
func attackedSwitch(b *testing.B, u flowtable.UseCase, scan tss.Scan) (*vswitch.Switch, bitvec.Vec) {
	b.Helper()
	tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: scan})
	if err != nil {
		b.Fatal(err)
	}
	victim := victimKey()
	sw.Process(victim, 0)
	if u != flowtable.Baseline {
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		core.Replay(sw, tr, 0)
	}
	return sw, victim
}

// scans are the two lookups the Fig. 9a benchmarks compare.
var scans = []struct {
	name string
	scan tss.Scan
}{{"ScanLinear", tss.ScanLinear}, {"ScanPruned", tss.ScanPruned}}

// BenchmarkFig9aLookupVsMasks is the measured basis of Fig. 9a: the
// victim's per-packet classification cost at each §5.2 use case's mask
// count. Under ScanLinear (Alg. 1) ns/op grows linearly with the masks
// column (Observation 1); under ScanPruned, the tuple-pruning lookup this
// switch runs by default, it stays flat.
func BenchmarkFig9aLookupVsMasks(b *testing.B) {
	for _, sc := range scans {
		for _, u := range flowtable.UseCases {
			sw, victim := attackedSwitch(b, u, sc.scan)
			b.Run(fmt.Sprintf("%s/%s/masks=%d", sc.name, u, sw.MFC().MaskCount()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sw.MFC().Lookup(victim, 0)
				}
			})
		}
	}
}

// BenchmarkFig9aMissVsMasks prices a flow miss against the attack's mask
// count: one Process of a header whose megaflow the monitor deleted, i.e.
// the missing lookup plus the slow path (vswitch.HandleMissBatch with a
// burst of one: megaflow generation and the quirk-ledger check). The
// quirk suppresses the reinstall, so the cache stays at the attack's masks
// — and the suppressed shape leaves out the install's copy-on-write cost,
// which internal/tss's insert benchmarks (BenchmarkInsertAtManyMasks)
// price. Under ScanLinear the miss scans every mask, the worst case of
// Alg. 1; ScanPruned probes only the tuple-pruning candidates.
func BenchmarkFig9aMissVsMasks(b *testing.B) {
	for _, sc := range scans {
		for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp} {
			sw, _ := attackedSwitch(b, u, sc.scan)
			// A multicast destination on a denied port: a flow of its own.
			miss := victimKey()
			l := bitvec.IPv4Tuple
			dip, _ := l.FieldIndex("ip_dst")
			dp, _ := l.FieldIndex("tp_dst")
			miss.SetField(l, dip, 0xe0000001)
			miss.SetField(l, dp, 81)
			sw.Process(miss, 0)
			gone := sw.Generator().Generate(miss)
			sw.DeleteMegaflows(func(e *tss.Entry) bool {
				return e.Key.Equal(gone.Key) && e.Mask.Equal(gone.Mask)
			})
			if v := sw.Process(miss, 0); v.Path != vswitch.PathSlow || sw.Counters().Suppressed != 1 {
				b.Fatalf("%v: probe header took %v, want a suppressed slow-path miss", u, v.Path)
			}
			b.Run(fmt.Sprintf("%s/%s/masks=%d", sc.name, u, sw.MFC().MaskCount()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sw.Process(miss, 0)
				}
			})
		}
	}
}

// BenchmarkFig9bExpectedMasks times the Eq. 1–2 analytical evaluation
// (the E curves of Fig. 9b).
func BenchmarkFig9bExpectedMasks(b *testing.B) {
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		b.Run(u.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.ExpectedMasks(tbl, 50000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9bGeneralTrace times random-trace generation (the M runs).
func BenchmarkFig9bGeneralTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.General(bitvec.IPv4Tuple, nil, 1000,
			core.GeneralOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec52TraceGeneration times the §5.1 bit-inversion generator
// per use case (the co-located attack's preparation cost).
func BenchmarkSec52TraceGeneration(b *testing.B) {
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		b.Run(u.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CoLocated(tbl, core.CoLocatedOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSec52AttackReplay times the end-to-end attack: replaying the
// full co-located trace into a fresh switch (slow path + megaflow install
// per packet).
func BenchmarkSec52AttackReplay(b *testing.B) {
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(u.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sw, err := vswitch.New(vswitch.Config{
					Table: flowtable.UseCaseACL(u, flowtable.ACLParams{})})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				core.Replay(sw, tr, 0)
			}
		})
	}
}

// BenchmarkSec8GuardSweep times one MFCGuard sweep over a fully attacked
// SipDp cache (§8). The attacked cache is snapshotted once and re-loaded
// (cheaply, without re-running the attack) before each timed sweep.
func BenchmarkSec8GuardSweep(b *testing.B) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	core.Replay(sw, tr, 0)
	snapshot := sw.MFC().Entries()
	g, err := mitigation.New(mitigation.Config{Switch: sw, MaskThreshold: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, e := range snapshot {
			if err := sw.MFC().Insert(&tss.Entry{Key: e.Key, Mask: e.Mask,
				Action: e.Action, RuleName: e.RuleName}, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if deleted := g.Tick(int64(i+1)*mitigation.IntervalSec, 15); deleted == 0 {
			b.Fatal("sweep deleted nothing")
		}
	}
}

// BenchmarkAblationOverlapCheck measures the cost of the Inv(2)
// enforcement on insert (tss.Options.DisableOverlapCheck: the vswitch
// generator guarantees disjointness, so the check is optional on its
// path).
func BenchmarkAblationOverlapCheck(b *testing.B) {
	for _, check := range []bool{true, false} {
		b.Run(fmt.Sprintf("check=%v", check), func(b *testing.B) {
			l := bitvec.IPv4Tuple
			c := tss.New(l, tss.Options{DisableOverlapCheck: !check})
			mask := bitvec.FullMask(l)
			key := bitvec.NewVec(l)
			sip, _ := l.FieldIndex("ip_src")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key.SetField(l, sip, uint64(i))
				if err := c.Insert(&tss.Entry{Key: key.Clone(), Mask: mask,
					Action: flowtable.Drop}, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaskOrder compares the victim's linear-scan lookup
// cost under attack across mask scan orders (the README's lookup knob
// table: hash order models the paper's measured m/2 average, insertion
// order keeps the first-installed victim mask at the front).
func BenchmarkAblationMaskOrder(b *testing.B) {
	orders := map[string]tss.MaskOrder{
		"hash":      tss.OrderHash,
		"insertion": tss.OrderInsertion,
	}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl, Order: order, Scan: tss.ScanLinear})
			if err != nil {
				b.Fatal(err)
			}
			victim := victimKey()
			sw.Process(victim, 0)
			tr, _ := core.CoLocated(tbl, core.CoLocatedOptions{})
			core.Replay(sw, tr, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.MFC().Lookup(victim, 0)
			}
		})
	}
}

// BenchmarkAblationMicroflowCache measures what the exact-match layer
// buys for a repeated flow under attack (§2.2's fast-path hierarchy): a
// one-worker pool's EMC, with the victim warmed into it, against the same
// pool without one, whose victim packets pay the megaflow scan.
func BenchmarkAblationMicroflowCache(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("emc=%v", enabled), func(b *testing.B) {
			tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl})
			if err != nil {
				b.Fatal(err)
			}
			pool, err := datapath.New(datapath.Config{Switch: sw, Workers: 1, DisableEMC: !enabled})
			if err != nil {
				b.Fatal(err)
			}
			victim := []bitvec.Vec{victimKey()}
			sw.Process(victim[0], 0)
			tr, _ := core.CoLocated(tbl, core.CoLocatedOptions{})
			core.Replay(sw, tr, 0)
			out := pool.ProcessBatchSerialPorts(nil, victim, 0, nil)
			for i := 0; enabled && out[0].Path != vswitch.PathMicroflow; i++ {
				if i == 100000 {
					b.Fatal("the victim never entered the EMC")
				}
				out = pool.ProcessBatchSerialPorts(nil, victim, 0, out)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ProcessBatchSerialPorts(nil, victim, 0, out)
			}
		})
	}
}

// BenchmarkPcapWrite prices trace serialisation to pcap.
func BenchmarkPcapWrite(b *testing.B) {
	frame, err := packet.Craft(bitvec.IPv4Tuple, victimKey(), packet.CraftOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	for i := 0; i < b.N; i++ {
		if err := w.WriteRecord(pcap.Record{Data: frame}); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
			w = pcap.NewWriter(&buf)
		}
	}
}

// BenchmarkTheorem41Tradeoff measures the space–time trade-off curve
// empirically: for each k, a k-mask construction of the 16-bit
// single-allow ACL is loaded into a classifier and a worst-case (deny)
// lookup is timed. ns/op grows with k while the reported entry count
// shrinks — Theorem 4.1 in the wild.
func BenchmarkTheorem41Tradeoff(b *testing.B) {
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: 16})
	for _, k := range []int{1, 2, 4, 8, 16} {
		entries, err := analysis.KMaskConstruction(l, 0, 0xBEEF, k)
		if err != nil {
			b.Fatal(err)
		}
		c := tss.New(l, tss.Options{DisableOverlapCheck: true})
		for _, e := range entries {
			if err := c.Insert(e, 0); err != nil {
				b.Fatal(err)
			}
		}
		h := bitvec.NewVec(l)
		h.SetField(l, 0, 0x0001) // denied value: deep scan
		b.Run(fmt.Sprintf("k=%d/entries=%d", k, c.EntryCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Lookup(h, 0)
			}
		})
	}
}

// BenchmarkAblationDisableMegaflow prices §8 remedy (iii): with the MFC
// off, every packet of a repeated flow pays the slow path's flow-table
// walk (Generator.Generate) instead of a megaflow hit (Process).
func BenchmarkAblationDisableMegaflow(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("mfcOff=%v", disabled), func(b *testing.B) {
			tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl})
			if err != nil {
				b.Fatal(err)
			}
			victim := victimKey()
			sw.Process(victim, 0)
			gen := sw.Generator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if disabled {
					gen.Generate(victim)
				} else {
					sw.Process(victim, 0)
				}
			}
		})
	}
}

// BenchmarkTheorem41Construction prices building the k-mask trade-off
// points of Theorem 4.1 (w = 16).
func BenchmarkTheorem41Construction(b *testing.B) {
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: 16})
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.KMaskConstruction(l, 0, 0xBEEF, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
