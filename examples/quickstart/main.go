// Quickstart: build an OVS-style software switch with a
// Whitelist+DefaultDeny ACL, classify a few packets, and watch the
// megaflow cache (the TSS classifier the paper attacks) fill up.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func main() {
	// The ACL of the paper's Fig. 6: allow web traffic (dst port 80),
	// allow a trusted source (10.0.0.1), allow a trusted source port
	// (12345), deny everything else.
	acl := flowtable.Fig6()
	fmt.Println("Tenant ACL (Fig. 6):")
	fmt.Println(acl)

	sw, err := vswitch.New(vswitch.Config{Table: acl, Scan: tss.ScanLinear})
	if err != nil {
		log.Fatal(err)
	}

	l := bitvec.IPv4Tuple
	mk := func(srcIP uint64, srcPort, dstPort uint64) bitvec.Vec {
		h := bitvec.NewVec(l)
		set := func(name string, v uint64) {
			i, _ := l.FieldIndex(name)
			h.SetField(l, i, v)
		}
		set("ip_src", srcIP)
		set("ip_dst", 0xc0a80002) // 192.168.0.2, the protected service
		set("ip_proto", 6)
		set("tp_src", srcPort)
		set("tp_dst", dstPort)
		return h
	}

	packets := []struct {
		desc string
		h    bitvec.Vec
	}{
		{"web request to port 80", mk(0x08080808, 40000, 80)},
		{"same flow, second packet", mk(0x08080808, 40000, 80)},
		{"trusted source 10.0.0.1 to port 443", mk(0x0a000001, 34521, 443)},
		{"stranger to port 443", mk(0x08080404, 34521, 443)},
		{"stranger to port 22", mk(0x08080404, 50000, 22)},
	}
	fmt.Println("\nClassifying packets through the cache hierarchy:")
	for i, p := range packets {
		v := sw.Process(p.h, int64(i))
		fmt.Printf("  %-38s -> %-7s (path=%s, mask probes=%d, rule=%s)\n",
			p.desc, v.Action, v.Path, v.Probes, v.Rule)
	}

	fmt.Printf("\nMegaflow cache after 5 packets: %d masks, %d entries\n",
		sw.MFC().MaskCount(), sw.MFC().EntryCount())
	for _, e := range sw.MFC().Entries() {
		fmt.Printf("  %s\n", e.Format(l))
	}
	fmt.Println("\nEvery distinct mask above is one probe in *every* future lookup —")
	fmt.Println("the linear scan the Tuple Space Explosion attack inflates.")
	fmt.Println("See the attack do exactly that: go run ./cmd/tsebench -fig masks")
}
