package vswitch

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

// Strategy selects how the megaflow generator unwildcards one header field
// when proving a rule mismatch. The choice realises the space–time
// trade-off of Theorems 4.1/4.2: StrategyWildcard is the k≈w extreme
// (minimal space, maximal masks — what OVS usually does and what the TSE
// attack exploits), StrategyExact the k≈1 extreme (one mask, exponential
// entries — what OVS does for IPv6 addresses per §5.4).
type Strategy int

const (
	// StrategyWildcard unwildcards the MSB-first prefix of the field up
	// to and including the first bit where the packet disagrees with the
	// rule, mirroring OVS's trie-guided "wildcarding" heuristic (Fig. 3).
	StrategyWildcard Strategy = iota
	// StrategyExact unwildcards the whole field.
	StrategyExact
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyWildcard:
		return "wildcard"
	case StrategyExact:
		return "exact"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Generator derives megaflow entries from slow-path classifications,
// maintaining the paper's two invariants (§3.2):
//
//	Inv(1) Cover: the generated entry matches the packet that sparked it.
//	Inv(2) Independence: entries generated for packets with different
//	       classification outcomes are pairwise disjoint.
//
// Inv(2) holds because the generated mask records the complete "decision
// transcript" of the slow-path walk: for every rule considered before the
// final match, the mask contains enough bits to prove the mismatch, so any
// header matching the entry takes the same walk and reaches the same rule.
type Generator struct {
	table    *flowtable.Table
	layout   *bitvec.Layout
	strategy []Strategy    // per field index
	fields   [][]fieldWord // per field index: its bits, word by word
	full     bitvec.Vec    // the layout's full mask, the no-match drop's
}

// fieldWord is the part of one header field that lies in one Vec word.
type fieldWord struct {
	w    int    // word index
	mask uint64 // the field's bits in that word
}

// NewGenerator builds a generator for the table. strategies maps field
// names to a Strategy; missing fields default to StrategyWildcard.
func NewGenerator(table *flowtable.Table, strategies map[string]Strategy) (*Generator, error) {
	l := table.Layout()
	g := &Generator{table: table, layout: l, strategy: make([]Strategy, l.NumFields()),
		fields: make([][]fieldWord, l.NumFields()), full: bitvec.FullMask(l)}
	for name, st := range strategies {
		i, ok := l.FieldIndex(name)
		if !ok {
			return nil, fmt.Errorf("vswitch: strategy for unknown field %q", name)
		}
		g.strategy[i] = st
	}
	for f := range g.fields {
		fm := bitvec.FieldMask(l, f)
		for w, m := range fm {
			if m != 0 {
				g.fields[f] = append(g.fields[f], fieldWord{w: w, mask: m})
			}
		}
	}
	return g, nil
}

// Generate derives the megaflow entry for header h. The caller must have
// established that h reaches the slow path (i.e. the table classifies it).
// If no rule matches, Generate returns an exact-match drop entry, which is
// always safe.
//
// The walk runs a word at a time. A field's MSB-first bits ascend with
// the global bit index, so the first bit where h disagrees with rule r in
// field f is the lowest set bit of (h XOR r.Key) AND r.Mask within the
// field, taken word by word in field order; the rule's field bits up to
// and including it are unwildcarded. A field under StrategyExact that the
// rule constrains is unwildcarded whole. The rule that matches h
// disagrees nowhere, so its constrained bits are unwildcarded in full.
//
// The entry's mask and key are carved from one allocation of twice the
// layout's words, mask first; each is capped at its own length.
func (g *Generator) Generate(h bitvec.Vec) *tss.Entry {
	w := g.layout.Words()
	buf := make(bitvec.Vec, 2*w)
	mask, key := buf[:w:w], buf[w:]
	var matched *flowtable.Rule

	for _, r := range g.table.Rules() {
		// OVS's staged lookup consults each constrained field, which is
		// what yields the multiplicative (Cartesian-product) mask growth
		// of Theorem 4.2.
		for f, fws := range g.fields {
			if g.strategy[f] == StrategyExact {
				var constrained uint64
				for _, fw := range fws {
					constrained |= r.Mask[fw.w] & fw.mask
				}
				if constrained != 0 {
					for _, fw := range fws {
						mask[fw.w] |= fw.mask
					}
				}
				continue
			}
			// Unwildcard through the first differing bit (Fig. 3's
			// construction).
			for _, fw := range fws {
				rm := r.Mask[fw.w] & fw.mask
				if d := (h[fw.w] ^ r.Key[fw.w]) & rm; d != 0 {
					low := d & -d
					mask[fw.w] |= rm & (low | (low - 1))
					break
				}
				mask[fw.w] |= rm
			}
		}
		if r.Matches(h) {
			matched = r
			break
		}
	}

	e := &tss.Entry{Key: key, Mask: mask, Action: flowtable.Drop, RuleName: "<no-match>"}
	if matched != nil {
		e.Action = matched.Action
		e.OutPort = int32(matched.OutPort)
		e.RuleName = matched.Name
	} else {
		// No rule matched: cache an exact drop so the miss is not
		// re-classified per packet, without risking over-wide coverage.
		copy(mask, g.full)
	}
	for i := range key {
		key[i] = h[i] & mask[i]
	}
	return e
}
