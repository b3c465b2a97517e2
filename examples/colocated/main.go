// Co-located TSE (§5): the attacker knows the ACL (she installed it for
// her own leased cloud workload) and sends the minimal bit-inversion
// trace. This example mounts the full-blown SipSpDp attack of Fig. 6,
// reports the tuple-space explosion, and prices the collateral damage to
// the victim with the Fig. 9a cost model.
//
//	go run ./examples/colocated
package main

import (
	"fmt"
	"log"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func main() {
	for _, use := range []flowtable.UseCase{
		flowtable.Dp, flowtable.SpDp, flowtable.SipDp, flowtable.SipSpDp,
	} {
		acl := flowtable.UseCaseACL(use, flowtable.ACLParams{})
		sw, err := vswitch.New(vswitch.Config{Table: acl, DisableMicroflow: true, Scan: tss.ScanLinear})
		if err != nil {
			log.Fatal(err)
		}

		// The victim's long-lived web flow, primed first.
		l := bitvec.IPv4Tuple
		victim := bitvec.NewVec(l)
		dp, _ := l.FieldIndex("tp_dst")
		sip, _ := l.FieldIndex("ip_src")
		victim.SetField(l, dp, 80)
		victim.SetField(l, sip, 0x08080808)
		sw.Process(victim, 0)

		// §5.1: bit-inversion lists per targeted field, outer product
		// across fields, plus microflow-churning noise.
		trace, err := core.CoLocated(acl, core.CoLocatedOptions{Noise: true, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		st := core.Replay(sw, trace, 0)

		_, probes, ok := sw.MFC().Lookup(victim, 0)
		if !ok {
			log.Fatal("victim entry lost")
		}
		model := dataplane.NewModel(dataplane.TCPGroOff)
		before := model.ThroughputForMasks(1)
		after := model.ThroughputGbps(float64(probes))
		fmt.Printf("%-8s: %5d attack packets -> %5d masks, %5d entries; victim: %d probes, %5.2f -> %5.2f Gbps (%.1f%%)\n",
			use, st.Packets, st.MasksAfter, st.EntriesAfter, probes,
			before, after, model.BaselinePct(after))
	}
	fmt.Println("\npaper (§5.2/§5.4): ~17/~256/~512/~8200 masks; >8000 masks is a")
	fmt.Println("virtually complete DoS at ~1000 packets ≈ 0.67 Mbps of attack traffic.")
}
