// Command tseattack replays an adversarial pcap against a simulated
// OVS-style switch and reports the damage: megaflow masks/entries spawned,
// per-path packet counts, and the modelled victim throughput before and
// after, per NIC configuration.
//
// Usage:
//
//	tsegen -use SipDp -out atk.pcap
//	tseattack -use SipDp -pcap atk.pcap
//	tseattack -use SipDp -pcap atk.pcap -serve :8080   # live /metrics,
//	        # /debug/vars and pprof during and after the replay; the
//	        # process blocks after printing so the endpoints stay up
package main

import (
	"flag"
	"fmt"
	"os"

	"tse/internal/bitvec"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/packet"
	"tse/internal/pcap"
	"tse/internal/telemetry"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tseattack:", err)
		os.Exit(1)
	}
}

func run() error {
	use := flag.String("use", "SipSpDp", "victim ACL use case: Dp, SpDp, SipDp, SipSpDp")
	pcapPath := flag.String("pcap", "", "adversarial pcap to replay (required)")
	verify := flag.Bool("verify-checksums", true, "reject frames with bad checksums")
	serve := flag.String("serve", "",
		"serve live telemetry (/metrics, /debug/vars, /debug/pprof/) on this address during the replay, then block")
	flag.Parse()
	if *pcapPath == "" {
		return fmt.Errorf("-pcap is required (generate one with tsegen)")
	}

	u, err := flowtable.ParseUseCase(*use)
	if err != nil {
		return err
	}
	tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return err
	}

	// -serve exposes the switch's packet-path and megaflow-cache counters
	// live while the pcap replays (and afterwards, for inspection).
	var hub *telemetry.Hub
	if *serve != "" {
		hub = telemetry.NewHub()
		sw.AttachMetrics(hub.Reg)
		_, addr, err := telemetry.Serve(*serve, hub)
		if err != nil {
			return err
		}
		fmt.Printf("telemetry: http://%s/  (/metrics /debug/vars /debug/pprof/)\n", addr)
	}

	// Prime the victim flow (a web client hitting the allowed port).
	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	sip, _ := l.FieldIndex("ip_src")
	victim.SetField(l, dp, 80)
	victim.SetField(l, sip, 0x08080808)
	sw.Process(victim, 0)
	_, probesBefore, _ := sw.MFC().Lookup(victim, 0)

	f, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	replayed, parseErrs := 0, 0
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		p, err := packet.Parse(rec.Data, packet.ParseOptions{VerifyChecksums: *verify})
		if err != nil {
			parseErrs++
			continue
		}
		key, err := p.FlowKey4()
		if err != nil {
			parseErrs++
			continue
		}
		sw.Process(key, int64(rec.TsSec))
		replayed++
	}

	masks, entries := sw.MFC().MaskCount(), sw.MFC().EntryCount()
	_, probesAfter, _ := sw.MFC().Lookup(victim, 0)
	c := sw.Counters()

	fmt.Printf("replayed %d packets (%d parse errors) against the %s ACL\n", replayed, parseErrs, u)
	fmt.Printf("MFC: %d masks, %d entries\n", masks, entries)
	fmt.Printf("paths: slow=%d megaflow=%d  verdicts: allow=%d deny=%d\n",
		c.Slow, c.Megaflow, c.Allowed, c.Dropped)
	fmt.Printf("victim lookup probes: %d -> %d\n", probesBefore, probesAfter)
	fmt.Printf("modelled victim throughput (per NIC configuration):\n")
	for _, p := range dataplane.Profiles {
		m := dataplane.NewModel(p)
		before := m.ThroughputForMasks(1)
		after := m.ThroughputGbps(float64(probesAfter))
		fmt.Printf("  %-12s %6.2f -> %6.2f Gbps (%.1f%% of baseline)\n",
			p.Name, before, after, m.BaselinePct(after))
	}
	if hub != nil {
		fmt.Println("telemetry: replay complete, endpoints still live — ctrl-C to exit")
		select {}
	}
	return nil
}
