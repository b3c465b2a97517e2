package packet

import (
	"encoding/binary"
	"fmt"

	"tse/internal/bitvec"
)

// This file bridges wire-format packets and classifier keys: the receive
// path extracts the 5-tuple the classifier matches on, and the transmit
// path crafts a complete frame realizing a classifier key (what cmd/tsegen
// does with an adversarial trace).

// FlowKey4 extracts the IPv4 5-tuple classifier key (layout
// bitvec.IPv4Tuple) from a parsed packet.
func (p *Packet) FlowKey4() (bitvec.Vec, error) {
	if p.V4 == nil {
		return nil, fmt.Errorf("packet: not IPv4")
	}
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	set("ip_src", uint64(binary.BigEndian.Uint32(p.V4.Src[:])))
	set("ip_dst", uint64(binary.BigEndian.Uint32(p.V4.Dst[:])))
	set("ip_proto", uint64(p.V4.Protocol))
	sp, dp, err := p.ports()
	if err != nil {
		return nil, err
	}
	set("tp_src", uint64(sp))
	set("tp_dst", uint64(dp))
	return h, nil
}

func (p *Packet) ports() (uint16, uint16, error) {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort, p.TCP.DstPort, nil
	case p.UDP != nil:
		return p.UDP.SrcPort, p.UDP.DstPort, nil
	default:
		return 0, 0, fmt.Errorf("packet: no transport layer")
	}
}

// CraftOptions tunes frame crafting.
type CraftOptions struct {
	// Payload is the application payload ("arbitrary message contents",
	// §1 — the attack does not care).
	Payload []byte
	// TTL overrides the IPv4 TTL / IPv6 hop limit (64 if zero). The
	// adversarial traces vary it as microflow-cache noise (§5.2).
	TTL byte
}

// Craft builds a complete wire frame realizing a classifier key over the
// IPv4Tuple or IPv6Tuple layout. The transport layer follows the key's
// ip_proto field: 6 yields TCP, anything else UDP (the paper's traces use
// both; UDP is the default because offloads cannot shield it, §5.4).
func Craft(l *bitvec.Layout, h bitvec.Vec, opts CraftOptions) ([]byte, error) {
	ttl := opts.TTL
	if ttl == 0 {
		ttl = 64
	}
	p := &Packet{Payload: opts.Payload}

	var proto uint64
	var sp, dp uint64
	get := func(name string) (uint64, error) {
		i, ok := l.FieldIndex(name)
		if !ok {
			return 0, fmt.Errorf("packet: layout lacks field %q", name)
		}
		return h.FieldUint64(l, i), nil
	}
	var err error
	if proto, err = get("ip_proto"); err != nil {
		return nil, err
	}
	if proto == 0 {
		// Keys with an unpinned protocol default to UDP (offloads cannot
		// shield it, §5.4). Note the crafted frame then parses back with
		// ip_proto = 17; traces wanting exact key round-trips pin the
		// protocol in their base header.
		proto = ProtoUDP
	}
	if sp, err = get("tp_src"); err != nil {
		return nil, err
	}
	if dp, err = get("tp_dst"); err != nil {
		return nil, err
	}

	switch l {
	case bitvec.IPv4Tuple:
		src, _ := get("ip_src")
		dst, _ := get("ip_dst")
		v4 := &IPv4{TTL: ttl, Protocol: byte(proto)}
		binary.BigEndian.PutUint32(v4.Src[:], uint32(src))
		binary.BigEndian.PutUint32(v4.Dst[:], uint32(dst))
		p.V4 = v4
	case bitvec.IPv6Tuple:
		si, _ := l.FieldIndex("ip6_src")
		di, _ := l.FieldIndex("ip6_dst")
		v6 := &IPv6{HopLimit: ttl, NextHeader: byte(proto)}
		copy(v6.Src[:], h.FieldBytes(l, si))
		copy(v6.Dst[:], h.FieldBytes(l, di))
		p.V6 = v6
	default:
		return nil, fmt.Errorf("packet: unsupported layout %s", l)
	}

	if proto == ProtoTCP {
		p.TCP = &TCP{SrcPort: uint16(sp), DstPort: uint16(dp), Flags: 0x02 /* SYN */, Window: 65535}
	} else {
		p.UDP = &UDP{SrcPort: uint16(sp), DstPort: uint16(dp)}
		if proto != ProtoUDP {
			// The key pinned a non-TCP/UDP protocol: keep the proto but
			// no transport ports can be realised; reject to avoid
			// crafting a frame whose parse yields a different key.
			if sp != 0 || dp != 0 {
				return nil, fmt.Errorf("packet: proto %d cannot carry ports", proto)
			}
			p.UDP = nil
			if p.V4 != nil {
				p.V4.Protocol = byte(proto)
			} else {
				p.V6.NextHeader = byte(proto)
			}
		}
	}
	return p.Serialize()
}
