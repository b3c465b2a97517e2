package vswitch

import (
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

// refGenerate is the bit-at-a-time megaflow generator Generate replaced,
// kept as the oracle Generate is checked against: for every rule in match
// order, it walks each constrained field MSB first, unwildcarding through
// the first bit where h disagrees with the rule (the whole field under
// StrategyExact), and stops at the first matching rule.
func refGenerate(g *Generator, h bitvec.Vec) *tss.Entry {
	l := g.layout
	fieldConstrained := func(mask bitvec.Vec, f int) bool {
		for i := 0; i < l.Field(f).Width; i++ {
			if mask.FieldBit(l, f, i) {
				return true
			}
		}
		return false
	}
	orConstrained := func(dst, src bitvec.Vec, f int) {
		for i := 0; i < l.Field(f).Width; i++ {
			if src.FieldBit(l, f, i) {
				dst.SetFieldBit(l, f, i)
			}
		}
	}
	orFieldMask := func(dst bitvec.Vec, f int) {
		for i := 0; i < l.Field(f).Width; i++ {
			dst.SetFieldBit(l, f, i)
		}
	}
	mask := bitvec.NewVec(l)
	var matched *flowtable.Rule

	for _, r := range g.table.Rules() {
		if r.Matches(h) {
			for f := 0; f < l.NumFields(); f++ {
				if !fieldConstrained(r.Mask, f) {
					continue
				}
				if g.strategy[f] == StrategyExact {
					orFieldMask(mask, f)
					continue
				}
				orConstrained(mask, r.Mask, f)
			}
			matched = r
			break
		}
		for f := 0; f < l.NumFields(); f++ {
			if !fieldConstrained(r.Mask, f) {
				continue
			}
			if g.strategy[f] == StrategyExact {
				orFieldMask(mask, f)
				continue
			}
			w := l.Field(f).Width
			for i := 0; i < w; i++ {
				if !r.Mask.FieldBit(l, f, i) {
					continue
				}
				mask.SetFieldBit(l, f, i)
				if h.FieldBit(l, f, i) != r.Key.FieldBit(l, f, i) {
					break
				}
			}
		}
	}

	e := &tss.Entry{Key: h.And(mask), Mask: mask, Action: flowtable.Drop, RuleName: "<no-match>"}
	if matched != nil {
		e.Action = matched.Action
		e.OutPort = int32(matched.OutPort)
		e.RuleName = matched.Name
	} else {
		e.Mask = bitvec.FullMask(l)
		e.Key = h.Clone()
	}
	return e
}

// straddleLayout has fields that cross 64-bit word boundaries: "wide"
// spans bits 56..145, so it covers the tail of word 0, all of word 1 and
// the head of word 2.
var straddleLayout = bitvec.MustLayout(
	bitvec.Field{Name: "in_port", Width: 16},
	bitvec.Field{Name: "narrow", Width: 40},
	bitvec.Field{Name: "wide", Width: 90},
	bitvec.Field{Name: "tp_dst", Width: 16},
)

var fuzzLayouts = []*bitvec.Layout{bitvec.IPv4Tuple, bitvec.IPv6Tuple, straddleLayout}

// fuzzBytes hands out fuzz input bytes, then zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// randomRule builds a rule whose mask is, per field, empty, a prefix, the
// whole field or random bits, with a random canonical key.
func randomRule(l *bitvec.Layout, rng *rand.Rand, name string) *flowtable.Rule {
	key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
	for f := 0; f < l.NumFields(); f++ {
		w := l.Field(f).Width
		switch rng.Intn(4) {
		case 1:
			for i, n := 0, 1+rng.Intn(w); i < n; i++ {
				mask.SetFieldBit(l, f, i)
			}
		case 2:
			for i := 0; i < w; i++ {
				mask.SetFieldBit(l, f, i)
			}
		case 3:
			for i := 0; i < w; i++ {
				if rng.Intn(3) == 0 {
					mask.SetFieldBit(l, f, i)
				}
			}
		}
		for i := 0; i < w; i++ {
			if mask.FieldBit(l, f, i) && rng.Intn(2) == 1 {
				key.SetFieldBit(l, f, i)
			}
		}
	}
	actions := []flowtable.Action{flowtable.Drop, flowtable.Allow, flowtable.Forward}
	return &flowtable.Rule{Name: name, Priority: rng.Intn(8), Key: key, Mask: mask,
		Action: actions[rng.Intn(len(actions))], OutPort: rng.Intn(4)}
}

// FuzzGenerate checks Generate against refGenerate on seeded rule tables
// over three layouts (IPv4, IPv6 with 128-bit fields spanning words, and
// straddleLayout), with each field's strategy chosen by the input, on
// headers taken from rule keys with input-chosen bits flipped, so the
// first differing bit lands anywhere in any field.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0})
	f.Add(uint64(2), []byte{1, 0xff, 3, 1, 0, 200, 2, 1, 7, 7, 0})
	f.Add(uint64(3), []byte{2, 0x5a, 6, 2, 0, 60, 0, 64, 4, 1, 0, 127})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		in := fuzzBytes(data)
		l := fuzzLayouts[in.next()%len(fuzzLayouts)]
		strategies := map[string]Strategy{}
		exact := in.next()
		for fi := 0; fi < l.NumFields(); fi++ {
			if exact>>fi&1 == 1 {
				strategies[l.Field(fi).Name] = StrategyExact
			}
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := flowtable.New(l)
		n := 1 + in.next()%12
		for i := 0; i < n; i++ {
			tbl.MustAdd(randomRule(l, rng, string(rune('a'+i))))
		}
		if rng.Intn(2) == 0 {
			tbl.MustAdd(&flowtable.Rule{Name: "default", Priority: -1, Action: flowtable.Drop,
				Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
		}
		gen, err := NewGenerator(tbl, strategies)
		if err != nil {
			t.Fatal(err)
		}
		rules := tbl.Rules()
		for i := 0; i == 0 || len(in) > 0; i++ {
			// A rule's key with random bits outside its mask, then up to
			// three input-chosen bit flips.
			r := rules[in.next()%len(rules)]
			h := bitvec.NewVec(l)
			for b := 0; b < l.Bits(); b++ {
				if rng.Intn(2) == 1 {
					h.SetBit(b)
				}
			}
			for i := range h {
				h[i] = h[i]&^r.Mask[i] | r.Key[i]
			}
			for flips := in.next() % 4; flips > 0; flips-- {
				b := (in.next()<<8 | in.next()) % l.Bits()
				h[b/64] ^= 1 << (b % 64)
			}
			got, want := gen.Generate(h), refGenerate(gen, h)
			if !got.Key.Equal(want.Key) || !got.Mask.Equal(want.Mask) || got.Action != want.Action ||
				got.OutPort != want.OutPort || got.RuleName != want.RuleName {
				t.Fatalf("layout %s, header %s:\n got %s rule=%s port=%d\nwant %s rule=%s port=%d",
					l, bitvec.FormatMasked(l, h, bitvec.FullMask(l)),
					got.Format(l), got.RuleName, got.OutPort, want.Format(l), want.RuleName, want.OutPort)
			}
		}
	})
}

// BenchmarkGenerate times one megaflow generation on flow_setup's shape:
// the SipSpDp ACL with ip_src under StrategyExact, on flood headers whose
// ip_src never matches rule #2, so every rule but the last is proved a
// mismatch before the default deny matches.
func BenchmarkGenerate(b *testing.B) {
	l := bitvec.IPv4Tuple
	gen, err := NewGenerator(flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{}),
		map[string]Strategy{"ip_src": StrategyExact})
	if err != nil {
		b.Fatal(err)
	}
	field := func(name string) int { f, _ := l.FieldIndex(name); return f }
	rng := rand.New(rand.NewSource(1))
	hs := make([]bitvec.Vec, 1024)
	for i := range hs {
		h := bitvec.NewVec(l)
		h.SetField(l, field("ip_src"), uint64(rng.Uint32()|1<<31))
		h.SetField(l, field("ip_dst"), 0xc0a80002)
		h.SetField(l, field("ip_proto"), 6)
		h.SetField(l, field("tp_src"), 40000)
		h.SetField(l, field("tp_dst"), 443)
		hs[i] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(hs[i%len(hs)])
	}
}
