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

	fmt.Fprintf(w, "%-30s %8s %14s %16s\n", "configuration", "masks", "victim cost", "victim Gbps")
	row := func(name string, nic dataplane.NICProfile, masks, probes int, slow bool) {
		model := dataplane.NewModel(nic)
		cost := model.PacketCost(float64(probes))
		if slow {
			cost += nic.SlowPathCost / nic.Coalesce
		}
		gbps := model.Budget() / cost * dataplane.PacketBytes * 8 / 1e9
		if line := nic.LineRateGbps; gbps > line {
			gbps = line
		}
		fmt.Fprintf(w, "%-30s %8d %8.1f units %13.2f G\n", name, masks, cost, gbps)
	}
	attacked := func(name string, nic dataplane.NICProfile) error {
		sw, err := vswitch.New(vswitch.Config{
			Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}), Scan: tss.ScanLinear})
		if err != nil {
			return err
		}
		sw.Process(victim, 0)
		tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{})
		if err != nil {
			return err
		}
		core.Replay(sw, tr, 0)
		v := sw.Process(victim, 1)
		row(name, nic, sw.MFC().MaskCount(), v.Probes, v.Path == vswitch.PathSlow)
		return nil
	}
	if err := attacked("baseline (MFC on, GRO OFF)", dataplane.TCPGroOff); err != nil {
		return err
	}
	// Remedy (iii) caches nothing: the attack spawns no mask, and every
	// victim packet pays the slow path without probing a mask.
	row("remedy: MFC off (iii)", dataplane.TCPGroOff, 0, 0, true)
	if err := attacked("remedy: jumbo frames / GRO ON", dataplane.TCPGroOn); err != nil {
		return err
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
