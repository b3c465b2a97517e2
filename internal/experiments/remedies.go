package experiments

import (
	"fmt"
	"io"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func init() {
	register(Experiment{
		ID:    "remedies",
		Title: "§8 — immediate remedies and their costs, quantified",
		Run:   runRemedies,
	})
	register(Experiment{
		ID:    "bandwidth",
		Title: "§1/§5/§6 — the attack is low-rate: bandwidth arithmetic",
		Run:   runBandwidth,
	})
}

// runRemedies quantifies the §8 immediate remedies on the SipDp attack:
// (iii) switching the MFC off trades attack immunity for per-packet
// slow-path cost; jumbo frames/GRO coalescing shields TCP but not UDP.
func runRemedies(w io.Writer) error {
	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)

	type row struct {
		name string
		cfg  vswitch.Config
		nic  dataplane.NICProfile
	}
	rows := []row{
		{"baseline (MFC on, GRO OFF)",
			vswitch.Config{Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), DisableMicroflow: true, Scan: tss.ScanLinear},
			dataplane.TCPGroOff},
		{"remedy: MFC off (iii)",
			vswitch.Config{Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), DisableMicroflow: true, DisableMegaflow: true},
			dataplane.TCPGroOff},
		{"remedy: jumbo frames / GRO ON",
			vswitch.Config{Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), DisableMicroflow: true, Scan: tss.ScanLinear},
			dataplane.TCPGroOn},
	}
	fmt.Fprintf(w, "%-30s %8s %14s %16s\n", "configuration", "masks", "victim cost", "victim Gbps")
	for _, r := range rows {
		sw, err := vswitch.New(r.cfg)
		if err != nil {
			return err
		}
		sw.Process(victim, 0)
		tbl := sw.FlowTable()
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
		if err != nil {
			return err
		}
		core.Replay(sw, tr, 0)
		v := sw.Process(victim, 1)
		model := dataplane.NewModel(r.nic)
		cost := model.PacketCost(float64(v.Probes))
		if v.Path == vswitch.PathSlow {
			cost += r.nic.SlowPathCost / r.nic.Coalesce
		}
		gbps := model.Budget() / cost * dataplane.PacketBytes * 8 / 1e9
		if line := r.nic.LineRateGbps; gbps > line {
			gbps = line
		}
		fmt.Fprintf(w, "%-30s %8d %8.1f units %13.2f G\n",
			r.name, sw.MFC().MaskCount(), cost, gbps)
	}
	fmt.Fprintf(w, "paper: (iii) forfeits \"the biggest performance improvement so far\"; GRO\n")
	fmt.Fprintf(w, "shields TCP only — QUIC/UDP remains exposed; see `alt` for remedy (i).\n")
	return nil
}

// runBandwidth reproduces the low-rate headline numbers: the §5.2 traces
// are so small that full tuple-space explosion fits in well under 1 Mbps.
func runBandwidth(w io.Writer) error {
	const frameBytes = 64 // minimum-size attack frames, as in the paper
	fmt.Fprintf(w, "%-10s %10s %12s %14s %18s\n",
		"use case", "packets", "trace bytes", "@1000pps", "sustain (cycle/10s)")
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SpDp, flowtable.SipDp, flowtable.SipSpDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
		if err != nil {
			return err
		}
		bytes := tr.Len() * frameBytes
		// One full pass at 1000 pps:
		secs := float64(tr.Len()) / 1000
		// Sustaining the explosion requires touching every entry within
		// the 10 s idle timeout: rate >= len/10, bandwidth accordingly.
		sustainKbps := float64(tr.Len()) / 10 * frameBytes * 8 / 1000
		fmt.Fprintf(w, "%-10s %10d %12d %11.1f s %15.1f kbps\n",
			u, tr.Len(), bytes, secs, sustainKbps)
	}
	fmt.Fprintf(w, "paper: \"as little as 670 kbps ... can easily degrade a single OVS instance\n")
	fmt.Fprintf(w, "from its full capacity of 10 Gbps to 2 Mbps\" — the SipSpDp trace above\n")
	fmt.Fprintf(w, "sustains full explosion at ~%0.0f kbps.\n", 9537.0/10*64*8/1000)
	return nil
}
