package experiments

import (
	"fmt"
	"io"

	"tse/internal/analysis"
	"tse/internal/ascii"
	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func init() {
	register(Experiment{
		ID:    "fig9a",
		Title: "Fig. 9a — victim throughput and FCT vs number of MFC masks",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "fig8a",
		Title: "Fig. 8a — 3 TCP victims, SipDp attack (synthetic testbed)",
		Run:   func(w io.Writer) error { return runFig8(w, dataplane.Fig8aScenario) },
	})
	register(Experiment{
		ID:    "fig8b",
		Title: "Fig. 8b — OpenStack SipDp time series",
		Run:   func(w io.Writer) error { return runFig8(w, dataplane.Fig8bScenario) },
	})
	register(Experiment{
		ID:    "fig8c",
		Title: "Fig. 8c — Kubernetes SipSpDp time series with megaflow count",
		Run:   func(w io.Writer) error { return runFig8(w, dataplane.Fig8cScenario) },
	})
	register(Experiment{
		ID:    "fig9b",
		Title: "Fig. 9b — expected (E) vs measured (M) masks, general TSE",
		Run:   runFig9b,
	})
	register(Experiment{
		ID:    "fig9c",
		Title: "Fig. 9c — MFCGuard slow-path CPU usage vs attack rate",
		Run:   runFig9c,
	})
	register(Experiment{
		ID:    "general",
		Title: "§6.2 — general TSE capacity degradation table",
		Run:   runGeneralDegradation,
	})
}

// fig9aMaskPoints are the x-axis sample points, including the §5.2 use
// case maxima the paper annotates (Dp/SpDp/SipDp/SipSpDp).
var fig9aMaskPoints = []int{1, 10, 17, 100, 260, 516, 1000, 4000, 8200}

func runFig9a(w io.Writer) error {
	models := make([]*dataplane.Model, len(dataplane.Profiles))
	for i, p := range dataplane.Profiles {
		models[i] = dataplane.NewModel(p)
	}
	fmt.Fprintf(w, "%-8s", "masks")
	for _, p := range dataplane.Profiles {
		fmt.Fprintf(w, " %14s", p.Name)
	}
	fmt.Fprintf(w, " %14s\n", "FCT 1GB (OFF)")
	for _, masks := range fig9aMaskPoints {
		fmt.Fprintf(w, "%-8d", masks)
		for _, m := range models {
			g := m.ThroughputForMasks(masks)
			fmt.Fprintf(w, " %7.3fG %4.1f%%", g, m.BaselinePct(g))
		}
		off := models[indexOf("TCP GRO OFF")]
		fmt.Fprintf(w, " %13.1fs\n", off.FlowCompletionSec(1e9, masks))
	}
	fmt.Fprintf(w, "paper anchors (%% of own baseline): GRO OFF 53/10/4.7/0.2, GRO ON 97/95/76/3.9, FHO 88/43/29/2.1 at 17/260/516/8200 masks\n")
	return nil
}

func indexOf(name string) int {
	for i, p := range dataplane.Profiles {
		if p.Name == name {
			return i
		}
	}
	return 0
}

func runFig8(w io.Writer, build func() (*dataplane.Scenario, error)) error {
	sc, err := build()
	if err != nil {
		return err
	}
	samples, err := sc.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario: %s\n", sc.Name)
	fmt.Fprintf(w, "%4s %10s", "t[s]", "sum[Gbps]")
	for _, v := range sc.Victims {
		fmt.Fprintf(w, " %10s", v.Name)
	}
	fmt.Fprintf(w, " %8s %8s %9s\n", "atk[pps]", "masks", "entries")
	for _, s := range samples {
		if s.Sec%5 != 0 {
			continue
		}
		fmt.Fprintf(w, "%4d %10.2f", s.Sec, s.TotalVictimGbps)
		for _, g := range s.VictimGbps {
			fmt.Fprintf(w, " %10.2f", g)
		}
		fmt.Fprintf(w, " %8d %8d %9d\n", s.AttackPps, s.Masks, s.Entries)
	}

	// The paper presents these as plots; render the same series as an
	// ASCII chart (victim throughput plus the attack-activity square wave
	// scaled to the victim axis).
	total := make([]float64, len(samples))
	attack := make([]float64, len(samples))
	peak := 0.0
	for i, s := range samples {
		total[i] = s.TotalVictimGbps
		if s.TotalVictimGbps > peak {
			peak = s.TotalVictimGbps
		}
	}
	maxPps := 0
	for _, s := range samples {
		if s.AttackPps > maxPps {
			maxPps = s.AttackPps
		}
	}
	for i, s := range samples {
		if maxPps > 0 {
			attack[i] = float64(s.AttackPps) / float64(maxPps) * peak * 0.25
		}
	}
	chart := &ascii.Chart{
		Title: sc.Name, YLabel: "Gbps", XLabel: "t[s]",
		Series: []ascii.Series{
			{Name: "attacker activity (scaled)", Values: attack, Marker: 'a'},
			{Name: "victim sum", Values: total, Marker: 'v'},
		},
	}
	fmt.Fprintln(w)
	return chart.Render(w)
}

// fig9bPacketCounts is the Fig. 9b x axis.
var fig9bPacketCounts = []int{10, 17, 50, 100, 260, 516, 1000, 5000, 10000, 50000}

func runFig9b(w io.Writer) error {
	uses := []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp}
	fmt.Fprintf(w, "%-8s", "packets")
	for _, u := range uses {
		fmt.Fprintf(w, " %10s %10s", u.String()+"(E)", u.String()+"(M)")
	}
	fmt.Fprintln(w)

	type runState struct {
		sw *vswitch.Switch
		tr *core.Trace
	}
	states := make([]runState, len(uses))
	curves := make([][]float64, len(uses))
	for i, u := range uses {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		curve, err := analysis.ExpectedMasksCurve(tbl, fig9bPacketCounts)
		if err != nil {
			return err
		}
		curves[i] = curve
		sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, Scan: tss.ScanLinear})
		if err != nil {
			return err
		}
		tr, err := core.General(bitvec.IPv4Tuple, nil, fig9bPacketCounts[len(fig9bPacketCounts)-1],
			core.GeneralOptions{Seed: 1})
		if err != nil {
			return err
		}
		states[i] = runState{sw: sw, tr: tr}
	}
	sent := 0
	for pi, n := range fig9bPacketCounts {
		for _, st := range states {
			for k := sent; k < n; k++ {
				st.sw.Process(st.tr.Headers[k], 0)
			}
		}
		sent = n
		fmt.Fprintf(w, "%-8d", n)
		for i := range uses {
			fmt.Fprintf(w, " %10.1f %10d", curves[i][pi], states[i].sw.MFC().MaskCount())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper @50k packets: Dp ≈ 16, SipDp ≈ 122, SipSpDp ≈ 581 masks\n")

	// The curve's n→∞ limit, and the §11.3 count-by-wildcards entry
	// expectation that upper-bounds it.
	n := fig9bPacketCounts[len(fig9bPacketCounts)-1]
	fmt.Fprintf(w, "%-8s %12s %18s\n", "", "masks(n→∞)", fmt.Sprintf("E[entries]@%d", n))
	for _, u := range uses {
		limit, err := analysis.MaxAttainableMasks(flowtable.UseCaseACL(u, flowtable.ACLParams{}))
		if err != nil {
			return err
		}
		var widths []int
		for _, name := range flowtable.TargetFields(u) {
			i, _ := bitvec.IPv4Tuple.FieldIndex(name)
			widths = append(widths, bitvec.IPv4Tuple.Field(i).Width)
		}
		entries, err := analysis.ExpectedEntriesCk(widths, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %12d %18.1f\n", u, limit, entries)
	}
	return nil
}

func runFig9c(w io.Writer) error {
	fmt.Fprintf(w, "%10s %10s\n", "rate[pps]", "CPU[%]")
	for _, pps := range []float64{10, 100, 1000, 5000, 10000, 20000, 50000} {
		fmt.Fprintf(w, "%10.0f %10.1f\n", pps, mitigation.SlowPathCPUPct(pps))
	}
	fmt.Fprintf(w, "paper: <=15%% below 1k pps; ~80%% at 10k pps; above that the attack is volumetric\n")
	return nil
}

func runGeneralDegradation(w io.Writer) error {
	// §6.2: degradation attainable by General TSE with 1 000 and 50 000
	// random packets per use case and NIC configuration, as a percentage
	// of each configuration's baseline.
	uses := []flowtable.UseCase{flowtable.Dp, flowtable.SipDp, flowtable.SipSpDp}
	counts := []int{1000, 50000}
	fmt.Fprintf(w, "%-10s %-8s %10s", "use case", "packets", "E[masks]")
	for _, p := range dataplane.Profiles {
		fmt.Fprintf(w, " %13s", p.Name)
	}
	fmt.Fprintln(w)
	for _, u := range uses {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		for _, n := range counts {
			e, err := analysis.ExpectedMasks(tbl, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %-8d %10.1f", u, n, e)
			for _, p := range dataplane.Profiles {
				m := dataplane.NewModel(p)
				pct := m.BaselinePct(m.ThroughputForMasks(int(e + 0.5)))
				fmt.Fprintf(w, " %12.1f%%", pct)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "paper @50k (GRO OFF): Dp 52%%, SipDp 12%%, SipSpDp 1%%; @1k: 72.8%%, 25.4%%, 11.7%%\n")
	return nil
}
