// MFCGuard (§8): a SipDp attack fills the megaflow cache; the guard's
// 10-second sweep deletes the adversarial drop entries and the victim's
// classification cost returns to near baseline, at the price of the
// attack traffic permanently occupying the slow path (Fig. 9c).
//
//	go run ./examples/mitigation
package main

import (
	"fmt"
	"log"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func main() {
	acl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: acl, DisableMicroflow: true, Scan: tss.ScanLinear})
	if err != nil {
		log.Fatal(err)
	}
	guard, err := mitigation.New(mitigation.Config{
		Switch: sw, MaskThreshold: 100, CPUThreshold: 200})
	if err != nil {
		log.Fatal(err)
	}

	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)
	sw.Process(victim, 0)

	trace, err := core.CoLocated(acl, core.CoLocatedOptions{Noise: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	const attackPps = 200
	model := dataplane.NewModel(dataplane.TCPGroOff)

	fmt.Printf("%4s %8s %12s %14s %12s\n", "t[s]", "masks", "victimProbes", "victim[Gbps]", "guard")
	cursor := 0
	for t := 0; t < 40; t++ {
		now := int64(t)
		sw.Tick(now)
		for k := 0; k < attackPps; k++ {
			sw.Process(trace.Headers[cursor%trace.Len()], now)
			cursor++
		}
		sw.Process(victim, now)
		_, probes, _ := sw.MFC().Lookup(victim, now)
		deleted := guard.Tick(now, mitigation.SlowPathCPUPct(attackPps))
		note := ""
		if deleted > 0 {
			note = fmt.Sprintf("swept %d", deleted)
		}
		if t%2 == 0 || deleted > 0 {
			fmt.Printf("%4d %8d %12d %14.2f %12s\n",
				t, sw.MFC().MaskCount(), probes, model.ThroughputGbps(float64(probes)), note)
		}
	}
	st := guard.Stats()
	fmt.Printf("\nguard: %d sweeps, %d megaflows deleted; attack now lives in the slow path\n",
		st.Sweeps, st.Deleted)
	fmt.Printf("slow-path CPU at this attack rate (Fig. 9c): %.1f%%\n",
		mitigation.SlowPathCPUPct(attackPps))
	fmt.Println("paper: sub-1000 pps attacks cost ~15% CPU; ~10k pps ≈ 80%; beyond that the")
	fmt.Println("attack is volumetric and classic defenses apply.")
}
