package experiments

import (
	"fmt"
	"io"
	"strings"

	"tse/internal/analysis"
	"tse/internal/bitvec"
	"tse/internal/cloud"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func init() {
	register(Experiment{
		ID:    "constructions",
		Title: "Fig. 2/3/5 — MFC constructions for the toy ACLs",
		Run:   runConstructions,
	})
	register(Experiment{
		ID:    "masks",
		Title: "§5.2 — attainable MFC masks per use case (co-located TSE)",
		Run:   runMaskCounts,
	})
	register(Experiment{
		ID:    "ipv6",
		Title: "§5.4 — IPv6 exact-match corner: few masks, entry blow-up",
		Run:   runIPv6,
	})
	register(Experiment{
		ID:    "cms",
		Title: "§7 — CMS API restrictions bound attainable masks",
		Run:   runCMS,
	})
	register(Experiment{
		ID:    "alt",
		Title: "§1/§7 — alternative classifiers are insensitive to TSE state",
		Run:   runAlt,
	})
	register(Experiment{
		ID:    "guard",
		Title: "§8 — MFCGuard restores near-baseline lookup cost",
		Run:   runGuard,
	})
	register(Experiment{
		ID:    "theorems",
		Title: "Thm. 4.1/4.2 — space-time trade-off, constructions vs bounds",
		Run:   runTheorems,
	})
}

func runConstructions(w io.Writer) error {
	type tc struct {
		name     string
		table    *flowtable.Table
		strategy map[string]vswitch.Strategy
		headers  func() []bitvec.Vec
	}
	allHYP := func() []bitvec.Vec {
		var hs []bitvec.Vec
		for v := uint64(0); v < 8; v++ {
			h := bitvec.NewVec(bitvec.HYP)
			h.SetField(bitvec.HYP, 0, v)
			hs = append(hs, h)
		}
		return hs
	}
	allHYP2 := func() []bitvec.Vec {
		var hs []bitvec.Vec
		for a := uint64(0); a < 8; a++ {
			for b := uint64(0); b < 16; b++ {
				h := bitvec.NewVec(bitvec.HYP2)
				h.SetField(bitvec.HYP2, 0, a)
				h.SetField(bitvec.HYP2, 1, b)
				hs = append(hs, h)
			}
		}
		return hs
	}
	cases := []tc{
		{"Fig. 2 (exact-match strategy, Fig. 1 ACL)", flowtable.Fig1(),
			map[string]vswitch.Strategy{"HYP": vswitch.StrategyExact}, allHYP},
		{"Fig. 3 (wildcarding strategy, Fig. 1 ACL)", flowtable.Fig1(), nil, allHYP},
		{"Fig. 5 (two headers, Fig. 4 ACL)", flowtable.Fig4(), nil, allHYP2},
	}
	for _, c := range cases {
		sw, err := vswitch.New(vswitch.Config{Table: c.table, DisableMicroflow: true,
			Strategy: c.strategy, Scan: tss.ScanLinear})
		if err != nil {
			return err
		}
		for _, h := range c.headers() {
			sw.Process(h, 0)
		}
		fmt.Fprintf(w, "%s\n", c.name)
		fmt.Fprintf(w, "  masks=%d entries=%d\n", sw.MFC().MaskCount(), sw.MFC().EntryCount())
		if sw.MFC().EntryCount() <= 16 {
			for _, e := range sw.MFC().Entries() {
				fmt.Fprintf(w, "    %s\n", e.Format(c.table.Layout()))
			}
		}
	}
	fmt.Fprintf(w, "paper: Fig. 2 = 1 mask / 8 entries; Fig. 3 = 3 masks / 4 entries; Fig. 5 = 13 masks\n")
	return nil
}

func runMaskCounts(w io.Writer) error {
	paper := map[flowtable.UseCase]string{
		flowtable.Baseline: "1",
		flowtable.Dp:       "~17",
		flowtable.SpDp:     "~256",
		flowtable.SipDp:    "~512",
		flowtable.SipSpDp:  "~8200",
	}
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s\n",
		"use case", "paper", "measured", "entries", "trace pkts")
	for _, u := range flowtable.UseCases {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		if u == flowtable.Baseline {
			fmt.Fprintf(w, "%-10s %10s %10d %10d %12d\n", u, paper[u], 1, 1, 0)
			continue
		}
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
		if err != nil {
			return err
		}
		sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, Scan: tss.ScanLinear})
		if err != nil {
			return err
		}
		st := core.Replay(sw, tr, 0)
		fmt.Fprintf(w, "%-10s %10s %10d %10d %12d\n",
			u, paper[u], st.MasksAfter, st.EntriesAfter, tr.Len())
	}
	return nil
}

func runIPv6(w io.Writer) error {
	l := bitvec.IPv6Tuple
	tbl := flowtable.New(l)
	dp, _ := l.FieldIndex("tp_dst")
	key := bitvec.NewVec(l)
	key.SetField(l, dp, 80)
	tbl.MustAdd(&flowtable.Rule{Name: "#1", Priority: 10, Action: flowtable.Allow,
		Key: key, Mask: bitvec.FieldMask(l, dp)})
	sip, _ := l.FieldIndex("ip6_src")
	allowSrc := bitvec.NewVec(l)
	allowSrc.SetFieldBytes(l, sip, []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	tbl.MustAdd(&flowtable.Rule{Name: "#2", Priority: 5, Action: flowtable.Allow,
		Key: allowSrc, Mask: bitvec.FieldMask(l, sip)})
	tbl.MustAdd(&flowtable.Rule{Name: "#4", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})

	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true,
		Strategy: map[string]vswitch.Strategy{"ip6_src": vswitch.StrategyExact}, Scan: tss.ScanLinear})
	if err != nil {
		return err
	}
	tr, err := core.General(l, nil, 20000, core.GeneralOptions{
		Fields: []string{"ip6_src", "tp_dst"}, Seed: 42})
	if err != nil {
		return err
	}
	st := core.Replay(sw, tr, 0)
	fmt.Fprintf(w, "SipDp over IPv6, ip6_src handled by exact matching (as observed in OVS):\n")
	fmt.Fprintf(w, "  random packets: %d\n  masks:   %d (a handful)\n  entries: %d (≈ one per packet: memory/CPU blow-up, not lookup slow-down)\n",
		st.Packets, st.MasksAfter, st.EntriesAfter)
	fmt.Fprintf(w, "paper: \"only a handful of masks but hundreds of thousands of MFC entries\"\n")
	return nil
}

func runCMS(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %-28s %10s\n", "CMS", "filterable ingress fields", "max masks")
	for _, c := range []cloud.CMS{cloud.OpenStack, cloud.Kubernetes, cloud.Calico} {
		fmt.Fprintf(w, "%-12s %-28s %10d\n", c.Name, strings.Join(c.IngressFields, ","), c.MaxMasks(false))
	}
	fmt.Fprintf(w, "%-12s %-28s %10d\n", "Calico", "ingress+egress (+ip_dst)", cloud.Calico.MaxMasks(true))
	fmt.Fprintf(w, "paper (§7): 512 / 512 / 8192; egress ≈ 200 thousand\n")
	return nil
}

func runGuard(w io.Writer) error {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, Scan: tss.ScanLinear})
	if err != nil {
		return err
	}
	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)
	sw.Process(victim, 0)

	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		return err
	}
	core.Replay(sw, tr, 0)
	_, before, _ := sw.MFC().Lookup(victim, 0)
	masksBefore := sw.MFC().MaskCount()

	g, err := mitigation.New(mitigation.Config{Switch: sw, MaskThreshold: 100, CPUThreshold: 200})
	if err != nil {
		return err
	}
	deleted := g.Tick(10, mitigation.SlowPathCPUPct(100))
	_, after, _ := sw.MFC().Lookup(victim, 11)
	fmt.Fprintf(w, "SipDp attack, then one MFCGuard sweep (m_th=100):\n")
	fmt.Fprintf(w, "  masks: %d -> %d (deleted %d adversarial megaflows)\n",
		masksBefore, sw.MFC().MaskCount(), deleted)
	fmt.Fprintf(w, "  victim lookup probes: %d -> %d (near-baseline)\n", before, after)
	fmt.Fprintf(w, "  slow-path CPU if attack continues at given rate (Fig. 9c):\n")
	for _, pps := range []float64{10, 100, 1000, 5000, 10000, 20000, 50000} {
		fmt.Fprintf(w, "    %7.0f pps -> %5.1f %%\n", pps, mitigation.SlowPathCPUPct(pps))
	}
	fmt.Fprintf(w, "paper: ~15%% at 1k pps, ~80%% at 10k pps, saturation ~250%%\n")
	return nil
}

func runTheorems(w io.Writer) error {
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: 12})
	fmt.Fprintf(w, "Theorem 4.1, w=12: k masks vs deny entries (bound = k(2^(w/k)-1))\n")
	fmt.Fprintf(w, "%4s %12s %12s\n", "k", "bound", "constructed")
	for _, k := range []int{1, 2, 3, 4, 6, 12} {
		entries, err := analysis.KMaskConstruction(l, 0, 0xABC, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d %12.0f %12d\n", k, analysis.Theorem41Space(12, k), len(entries)-1)
	}
	fmt.Fprintf(w, "Theorem 4.2, SipSpDp at the wildcarding extreme: time=%d masks, space=%.0f entries\n",
		analysis.Theorem42Time([]int{32, 16, 16}),
		analysis.Theorem42Space([]int{32, 16, 16}, []int{32, 16, 16}))

	// The multi-field construction on a small two-field layout, whose deny
	// masks and entries meet the Theorem 4.2 bounds.
	widths := []int{6, 4}
	l2 := bitvec.MustLayout(bitvec.Field{Name: "A", Width: widths[0]}, bitvec.Field{Name: "B", Width: widths[1]})
	fmt.Fprintf(w, "Theorem 4.2, fields of %d and %d bits: deny masks / entries constructed vs time / space bound\n",
		widths[0], widths[1])
	fmt.Fprintf(w, "%8s %8s %8s %10s %10s\n", "ks", "masks", "time", "entries", "space")
	for _, ks := range [][]int{{1, 1}, {2, 2}, {3, 2}, {6, 4}} {
		entries, err := analysis.KMaskConstructionMulti(l2, []int{0, 1}, []uint64{0b101010, 0b0110}, ks)
		if err != nil {
			return err
		}
		masks, deny := map[string]bool{}, 0
		for _, e := range entries {
			if e.Action == flowtable.Drop {
				masks[e.Mask.Key()] = true
				deny++
			}
		}
		fmt.Fprintf(w, "%8s %8d %8d %10d %10.0f\n", fmt.Sprintf("(%d,%d)", ks[0], ks[1]),
			len(masks), analysis.Theorem42Time(ks), deny, analysis.Theorem42Space(widths, ks))
	}
	return nil
}
