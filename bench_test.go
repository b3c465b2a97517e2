// Package tse's top-level benchmark suite: one benchmark per evaluation
// table/figure of the paper plus ablations for the design choices the
// README's "Hot path anatomy" section describes. Run with:
//
//	go test -bench=. -benchmem .
//
// The wall-clock numbers here are the *measured* ground truth behind the
// dataplane cost model: BenchmarkFig9aLookupVsMasks demonstrates the
// linear-in-masks lookup cost (Observation 1) on the real classifier, and
// BenchmarkAltClassifiers shows the recommended alternatives do not share
// it.
package tse

import (
	"bytes"
	"fmt"
	"testing"

	"tse/internal/alt"
	"tse/internal/analysis"
	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/microflow"
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

// attackedSwitch returns a switch whose MFC holds the co-located attack
// state for the use case, with the victim flow primed.
func attackedSwitch(b *testing.B, u flowtable.UseCase) (*vswitch.Switch, bitvec.Vec) {
	b.Helper()
	tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
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

// BenchmarkFig9aLookupVsMasks is the measured basis of Fig. 9a: the
// victim's per-packet classification cost at each §5.2 use case's mask
// count. ns/op grows linearly with the masks column (Observation 1).
func BenchmarkFig9aLookupVsMasks(b *testing.B) {
	for _, u := range flowtable.UseCases {
		sw, victim := attackedSwitch(b, u)
		b.Run(fmt.Sprintf("%s/masks=%d", u, sw.MFC().MaskCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.MFC().Lookup(victim, 0)
			}
		})
	}
}

// BenchmarkFig9aMissVsMasks prices a full MFC miss (new-flow setup cost):
// the miss scans every mask, the worst case of Alg. 1.
func BenchmarkFig9aMissVsMasks(b *testing.B) {
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp} {
		sw, _ := attackedSwitch(b, u)
		// A header matching no megaflow: multicast destination.
		miss := victimKey()
		l := bitvec.IPv4Tuple
		dip, _ := l.FieldIndex("ip_dst")
		dp, _ := l.FieldIndex("tp_dst")
		miss.SetField(l, dip, 0xe0000001)
		miss.SetField(l, dp, 81)
		// Ensure it is genuinely a miss against the exact entries too.
		if _, _, ok := sw.MFC().Lookup(miss, 0); ok {
			// Covered by a deny megaflow: still fine, the hit position
			// is near-uniform; keep the benchmark honest by noting it.
			b.Logf("%v: probe header covered; measuring hit at its position", u)
		}
		b.Run(fmt.Sprintf("%s/masks=%d", u, sw.MFC().MaskCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.MFC().Lookup(miss, 0)
			}
		})
	}
}

// BenchmarkFig8Scenarios times the full time-series simulations behind
// Fig. 8a/8b (one scenario run per iteration).
func BenchmarkFig8Scenarios(b *testing.B) {
	builders := map[string]func() (*dataplane.Scenario, error){
		"fig8a": dataplane.Fig8aScenario,
		"fig8b": dataplane.Fig8bScenario,
	}
	for name, build := range builders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := build()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
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
					Table: flowtable.UseCaseACL(u, flowtable.ACLParams{}), DisableMicroflow: true})
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
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true,
		NoRevalidatorQuirk: true})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	core.Replay(sw, tr, 0)
	snapshot := sw.MFC().Entries()
	g, err := mitigation.New(mitigation.Config{Switch: sw, MaskThreshold: 100,
		IntervalSec: 1})
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
		if deleted := g.Tick(int64(i+1), 15); deleted == 0 {
			b.Fatal("sweep deleted nothing")
		}
	}
}

// BenchmarkAltClassifiers contrasts the recommended classifiers (§1/§7)
// against the attacked TSS cache on the same probe header. The alt
// classifiers' cost is flat regardless of attack state.
func BenchmarkAltClassifiers(b *testing.B) {
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	ht, err := alt.NewHTrie(tbl)
	if err != nil {
		b.Fatal(err)
	}
	hc, err := alt.NewHyperCuts(tbl, 0)
	if err != nil {
		b.Fatal(err)
	}
	probe := victimKey()
	for _, c := range []alt.Classifier{alt.NewLinear(tbl), ht, hc} {
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Lookup(probe)
			}
		})
	}
	sw, victim := attackedSwitch(b, flowtable.SipSpDp)
	b.Run("tss-under-attack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw.MFC().Lookup(victim, 0)
		}
	})
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
			sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true,
				Order: order, Scan: tss.ScanLinear})
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
// buys for a repeated flow (§2.2's fast-path hierarchy).
func BenchmarkAblationMicroflowCache(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("ufc=%v", enabled), func(b *testing.B) {
			tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: !enabled})
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
				sw.Process(victim, 0)
			}
		})
	}
}

// BenchmarkMicroflowCacheOps prices the raw exact-match store.
func BenchmarkMicroflowCacheOps(b *testing.B) {
	c := microflow.New(0)
	h := victimKey()
	c.Insert(h, microflow.Result{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(h)
	}
}

// BenchmarkPacketPath prices the wire substrate: crafting and parsing one
// adversarial frame (cmd/tsegen's inner loop).
func BenchmarkPacketPath(b *testing.B) {
	l := bitvec.IPv4Tuple
	h := victimKey()
	proto, _ := l.FieldIndex("ip_proto")
	h.SetField(l, proto, packet.ProtoUDP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := packet.Craft(l, h, packet.CraftOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.Parse(frame, packet.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkAblationDisableMegaflow prices §8 remedy (iii): every packet of
// a repeated flow pays the slow path when the MFC is off.
func BenchmarkAblationDisableMegaflow(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("mfcOff=%v", disabled), func(b *testing.B) {
			tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl,
				DisableMicroflow: true, DisableMegaflow: disabled})
			if err != nil {
				b.Fatal(err)
			}
			victim := victimKey()
			sw.Process(victim, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Process(victim, 0)
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
