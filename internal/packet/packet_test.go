package packet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tse/internal/bitvec"
)

func sampleV4(proto byte) *Packet {
	p := &Packet{
		V4: &IPv4{TTL: 64, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{192, 168, 0, 2}},
		Eth: Ethernet{
			Src: [6]byte{2, 0, 0, 0, 0, 1},
			Dst: [6]byte{2, 0, 0, 0, 0, 2},
		},
		Payload: []byte("tuple space explosion"),
	}
	if proto == ProtoTCP {
		p.TCP = &TCP{SrcPort: 34521, DstPort: 443, Seq: 7, Flags: 0x02, Window: 4096}
	} else {
		p.UDP = &UDP{SrcPort: 12345, DstPort: 80}
	}
	return p
}

func TestRoundTripIPv4(t *testing.T) {
	for _, proto := range []byte{ProtoTCP, ProtoUDP} {
		frame, err := sampleV4(proto).Serialize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(frame, ParseOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatalf("proto %d: %v", proto, err)
		}
		if got.V4 == nil || got.V4.Src != [4]byte{10, 0, 0, 1} || got.V4.Protocol != proto {
			t.Fatalf("proto %d: IPv4 layer %+v", proto, got.V4)
		}
		if string(got.Payload) != "tuple space explosion" {
			t.Errorf("payload = %q", got.Payload)
		}
		switch proto {
		case ProtoTCP:
			if got.TCP == nil || got.TCP.SrcPort != 34521 || got.TCP.DstPort != 443 ||
				got.TCP.Seq != 7 || got.TCP.Flags != 0x02 {
				t.Errorf("TCP layer %+v", got.TCP)
			}
		case ProtoUDP:
			if got.UDP == nil || got.UDP.SrcPort != 12345 || got.UDP.DstPort != 80 {
				t.Errorf("UDP layer %+v", got.UDP)
			}
		}
	}
}

func TestRoundTripIPv6(t *testing.T) {
	p := &Packet{
		V6:      &IPv6{HopLimit: 64},
		UDP:     &UDP{SrcPort: 53, DstPort: 4242},
		Payload: []byte("v6"),
	}
	p.V6.Src[0], p.V6.Src[15] = 0x20, 1
	p.V6.Dst[0], p.V6.Dst[15] = 0x20, 2
	frame, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(frame, ParseOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.V6 == nil || got.V6.Src[15] != 1 || got.UDP == nil || got.UDP.DstPort != 4242 {
		t.Fatalf("parsed %+v %+v", got.V6, got.UDP)
	}
	if string(got.Payload) != "v6" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#x, want 0x220d", got)
	}
	// Odd length handling.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd-length checksum = %#x", got)
	}
}

func TestCorruptionDetection(t *testing.T) {
	frame, _ := sampleV4(ProtoTCP).Serialize()
	// Flip a bit in the IPv4 source address.
	frame[ethernetLen+13] ^= 0x40
	if _, err := Parse(frame, ParseOptions{VerifyChecksums: true}); err == nil {
		t.Error("corrupted IPv4 header accepted with checksum verification")
	}
	if _, err := Parse(frame, ParseOptions{}); err != nil {
		t.Errorf("lenient parse rejected frame: %v", err)
	}
	// Corrupt the TCP payload: transport checksum must catch it.
	frame2, _ := sampleV4(ProtoTCP).Serialize()
	frame2[len(frame2)-1] ^= 0xff
	if _, err := Parse(frame2, ParseOptions{VerifyChecksums: true}); err == nil {
		t.Error("corrupted TCP payload accepted")
	}
}

func TestParseTruncation(t *testing.T) {
	frame, _ := sampleV4(ProtoUDP).Serialize()
	for _, cut := range []int{0, 5, ethernetLen - 1, ethernetLen + 3, ethernetLen + ipv4Len + 2} {
		if _, err := Parse(frame[:cut], ParseOptions{}); err == nil {
			t.Errorf("truncated frame (%d bytes) accepted", cut)
		}
	}
}

func TestParseUnknownLayers(t *testing.T) {
	// Unknown EtherType: payload preserved, layers nil.
	frame := make([]byte, ethernetLen+4)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	p, err := Parse(frame, ParseOptions{})
	if err != nil || p.V4 != nil || p.V6 != nil || len(p.Payload) != 4 {
		t.Errorf("ARP frame: %+v err=%v", p, err)
	}
	// Unknown IP protocol.
	ip := sampleV4(ProtoUDP)
	ip.UDP = nil
	ip.V4.Protocol = 89 // OSPF
	frame2, err := ip.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(frame2, ParseOptions{})
	if err != nil || p2.TCP != nil || p2.UDP != nil {
		t.Errorf("OSPF packet: %+v err=%v", p2, err)
	}
}

func TestSerializeErrors(t *testing.T) {
	if _, err := (&Packet{}).Serialize(); err == nil {
		t.Error("packet without network layer serialized")
	}
	both := sampleV4(ProtoTCP)
	both.UDP = &UDP{}
	if _, err := both.Serialize(); err == nil {
		t.Error("packet with both transports serialized")
	}
}

func TestFlowKey4(t *testing.T) {
	frame, _ := sampleV4(ProtoTCP).Serialize()
	p, _ := Parse(frame, ParseOptions{})
	key, err := p.FlowKey4()
	if err != nil {
		t.Fatal(err)
	}
	l := bitvec.IPv4Tuple
	want := map[string]uint64{
		"ip_src": 0x0a000001, "ip_dst": 0xc0a80002, "ip_proto": 6,
		"tp_src": 34521, "tp_dst": 443,
	}
	for name, v := range want {
		i, _ := l.FieldIndex(name)
		if got := key.FieldUint64(l, i); got != v {
			t.Errorf("%s = %#x, want %#x", name, got, v)
		}
	}
}

// TestCraftParseRoundTrip is the key property: crafting a frame from a
// classifier key and parsing it back yields the same key, for random keys
// over both tuple layouts.
func TestCraftParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, l := range []*bitvec.Layout{bitvec.IPv4Tuple, bitvec.IPv6Tuple} {
		proto, _ := l.FieldIndex("ip_proto")
		for n := 0; n < 200; n++ {
			h := bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				if w := l.Field(f).Width; w <= 64 {
					h.SetField(l, f, rng.Uint64())
				} else {
					b := make([]byte, w/8)
					rng.Read(b)
					h.SetFieldBytes(l, f, b)
				}
			}
			// Pin a realizable protocol.
			if rng.Intn(2) == 0 {
				h.SetField(l, proto, ProtoTCP)
			} else {
				h.SetField(l, proto, ProtoUDP)
			}
			frame, err := Craft(l, h, CraftOptions{Payload: []byte("x")})
			if err != nil {
				t.Fatalf("%s: craft: %v", l, err)
			}
			p, err := Parse(frame, ParseOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("%s: parse: %v", l, err)
			}
			var got bitvec.Vec
			if l == bitvec.IPv4Tuple {
				got, err = p.FlowKey4()
			} else {
				got, err = flowKey6(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(h) {
				t.Fatalf("%s: key mismatch:\n in  %s\n out %s", l, h.Format(l), got.Format(l))
			}
		}
	}
}

// flowKey6 reads the IPv6 5-tuple (layout bitvec.IPv6Tuple) back out of a
// parsed packet, the IPv6 twin of FlowKey4 that no ingest path needs.
func flowKey6(p *Packet) (bitvec.Vec, error) {
	if p.V6 == nil {
		return nil, fmt.Errorf("packet: not IPv6")
	}
	sp, dp, err := p.ports()
	if err != nil {
		return nil, err
	}
	l := bitvec.IPv6Tuple
	h := bitvec.NewVec(l)
	for name, b := range map[string][]byte{"ip6_src": p.V6.Src[:], "ip6_dst": p.V6.Dst[:]} {
		i, _ := l.FieldIndex(name)
		h.SetFieldBytes(l, i, b)
	}
	for name, v := range map[string]uint64{"ip_proto": uint64(p.V6.NextHeader), "tp_src": uint64(sp), "tp_dst": uint64(dp)} {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	return h, nil
}

func TestCraftDefaultsToUDP(t *testing.T) {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	h.SetField(l, dp, 80)
	frame, err := Craft(l, h, CraftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(frame, ParseOptions{})
	if err != nil || p.UDP == nil || p.UDP.DstPort != 80 {
		t.Errorf("crafted frame: %+v err=%v", p, err)
	}
}

func TestCraftRejectsUnportableProto(t *testing.T) {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	proto, _ := l.FieldIndex("ip_proto")
	dp, _ := l.FieldIndex("tp_dst")
	h.SetField(l, proto, 89) // OSPF has no ports
	h.SetField(l, dp, 80)
	if _, err := Craft(l, h, CraftOptions{}); err == nil {
		t.Error("crafted ports onto a portless protocol")
	}
	// Without ports it is fine.
	h.SetField(l, dp, 0)
	if _, err := Craft(l, h, CraftOptions{}); err != nil {
		t.Errorf("portless OSPF craft failed: %v", err)
	}
}

func TestCraftUnsupportedLayout(t *testing.T) {
	if _, err := Craft(bitvec.HYP, bitvec.NewVec(bitvec.HYP), CraftOptions{}); err == nil {
		t.Error("crafted a frame for the toy layout")
	}
}

func TestUDPZeroChecksumAccepted(t *testing.T) {
	frame, _ := sampleV4(ProtoUDP).Serialize()
	// Zero out the UDP checksum: RFC 768 allows "no checksum".
	off := ethernetLen + ipv4Len + 6
	frame[off], frame[off+1] = 0, 0
	if _, err := Parse(frame, ParseOptions{VerifyChecksums: true}); err != nil {
		t.Errorf("zero UDP checksum rejected: %v", err)
	}
}

func BenchmarkSerializeParse(b *testing.B) {
	p := sampleV4(ProtoUDP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := p.Serialize()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(frame, ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Checksum properties (RFC 1071): appending the checksum to the data
// yields a verifying sum of zero, for arbitrary inputs.
func TestChecksumVerifiesQuick(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(withCk) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Serialize/Parse round-trip property over random UDP packets.
func TestSerializeParseRoundTripQuick(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		p := &Packet{
			V4:      &IPv4{TTL: 64, Src: src, Dst: dst},
			UDP:     &UDP{SrcPort: sp, DstPort: dp},
			Payload: payload,
		}
		frame, err := p.Serialize()
		if err != nil {
			return false
		}
		got, err := Parse(frame, ParseOptions{VerifyChecksums: true})
		if err != nil || got.UDP == nil {
			return false
		}
		if got.UDP.SrcPort != sp || got.UDP.DstPort != dp || got.V4.Src != src {
			return false
		}
		return string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
