package experiments

import (
	"fmt"
	"io"
	"time"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// This file holds the classifiers the paper recommends as long-term
// replacements for TSS (§1, §7) — hierarchical tries [Gupta & McKeown,
// 2001] and a HyperCuts-style decision tree [Singh et al., 2003] — next to
// a priority linear scan, for the `alt` experiment.
//
// All three classify against the *rule set itself* rather than a per-flow
// cache, so adversarial traffic cannot inflate their state or their lookup
// cost — the structural reason they are "not vulnerable to the TSE attack".
// Each lookup returns the matched rule (nil on a miss) and the elementary
// steps it took: node visits plus rule comparisons.
//
// The tree classifiers require prefix-form rules: every constrained field
// matches an MSB-first prefix. The paper's ACLs (exact or fully wildcarded
// fields) are all prefix-form.

// altClassifier is one row of the §7 comparison.
type altClassifier struct {
	name   string
	lookup func(h bitvec.Vec) (*flowtable.Rule, int)
}

// altClassifiers builds the linear scan, the hierarchical trie and the
// HyperCuts tree over tbl.
func altClassifiers(tbl *flowtable.Table) ([]altClassifier, error) {
	ht, err := newHTrie(tbl)
	if err != nil {
		return nil, err
	}
	hc, err := newHyperCuts(tbl)
	if err != nil {
		return nil, err
	}
	linear := func(h bitvec.Vec) (*flowtable.Rule, int) {
		rules := tbl.Rules()
		for i, r := range rules {
			if r.Matches(h) {
				return r, i + 1
			}
		}
		return nil, len(rules)
	}
	return []altClassifier{
		{"linear", linear},
		{"hierarchical-trie", ht.lookup},
		{"hypercuts", hc.lookup},
	}, nil
}

func runAlt(w io.Writer) error {
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	classifiers, err := altClassifiers(tbl)
	if err != nil {
		return err
	}

	// TSS under attack, for contrast.
	sw, err := vswitch.New(vswitch.Config{Table: flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{}), Scan: tss.ScanLinear})
	if err != nil {
		return err
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		return err
	}

	probe := bitvec.NewVec(bitvec.IPv4Tuple)
	probe.SetField(bitvec.IPv4Tuple, 0, 0x12345678)
	probe.SetField(bitvec.IPv4Tuple, 4, 9999)

	measure := func(f func()) time.Duration {
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start) / iters
	}

	fmt.Fprintf(w, "%-20s %16s %16s\n", "classifier", "cost pre-attack", "cost under attack")
	for _, c := range classifiers {
		_, pre := c.lookup(probe)
		preT := measure(func() { c.lookup(probe) })
		// "Attack": classify the whole adversarial trace (no state changes).
		for _, h := range tr.Headers {
			c.lookup(h)
		}
		_, post := c.lookup(probe)
		postT := measure(func() { c.lookup(probe) })
		fmt.Fprintf(w, "%-20s %6d steps %6s %6d steps %6s\n",
			c.name, pre, preT.Round(time.Nanosecond), post, postT.Round(time.Nanosecond))
	}
	// TSS: probes explode with the attack.
	sw.Process(probe, 0)
	_, preProbes, _ := sw.MFC().Lookup(probe, 0)
	core.Replay(sw, tr, 0)
	_, postProbes, _ := sw.MFC().Lookup(probe, 0)
	fmt.Fprintf(w, "%-20s %6d probes        %6d probes   (masks: %d)\n",
		"tss-megaflow-cache", preProbes, postProbes, sw.MFC().MaskCount())
	fmt.Fprintf(w, "paper: tries/HyperCuts \"seem to be unaffected by the TSE attack\"\n")
	return nil
}

// prefixLen returns the MSB-prefix length of field f in mask, and whether
// the field's constrained bits form a pure prefix.
func prefixLen(l *bitvec.Layout, mask bitvec.Vec, f int) (int, bool) {
	w := l.Field(f).Width
	n := 0
	for i := 0; i < w; i++ {
		if !mask.FieldBit(l, f, i) {
			break
		}
		n++
	}
	for i := n; i < w; i++ {
		if mask.FieldBit(l, f, i) {
			return 0, false
		}
	}
	return n, true
}

// checkPrefixForm validates that every rule constrains every field by a
// (possibly empty) prefix.
func checkPrefixForm(tbl *flowtable.Table) error {
	l := tbl.Layout()
	for _, r := range tbl.Rules() {
		for f := 0; f < l.NumFields(); f++ {
			if _, ok := prefixLen(l, r.Mask, f); !ok {
				return fmt.Errorf("alt: rule %q field %q is not prefix-form",
					r.Name, l.Field(f).Name)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Hierarchical tries
// ---------------------------------------------------------------------

// hTrie is a hierarchical ("trie of tries") classifier: a binary trie on
// the first field's prefixes whose nodes hang tries over the second field,
// and so on, with backtracking on lookup [Gupta & McKeown, 2001].
type hTrie struct {
	layout *bitvec.Layout
	root   *hnode
	order  map[*flowtable.Rule]int // match order for tie-breaking
}

type hnode struct {
	children [2]*hnode
	next     *hnode            // trie over the following field
	rules    []*flowtable.Rule // rules terminating here (last field only)
}

// newHTrie builds the trie; the table must be prefix-form.
func newHTrie(tbl *flowtable.Table) (*hTrie, error) {
	if err := checkPrefixForm(tbl); err != nil {
		return nil, err
	}
	l := tbl.Layout()
	t := &hTrie{layout: l, root: &hnode{}, order: make(map[*flowtable.Rule]int)}
	for i, r := range tbl.Rules() {
		t.order[r] = i
		t.insert(r)
	}
	return t, nil
}

func (t *hTrie) insert(r *flowtable.Rule) {
	l := t.layout
	node := t.root
	for f := 0; f < l.NumFields(); f++ {
		plen, _ := prefixLen(l, r.Mask, f)
		for b := 0; b < plen; b++ {
			bit := 0
			if r.Key.FieldBit(l, f, b) {
				bit = 1
			}
			if node.children[bit] == nil {
				node.children[bit] = &hnode{}
			}
			node = node.children[bit]
		}
		if f < l.NumFields()-1 {
			if node.next == nil {
				node.next = &hnode{}
			}
			node = node.next
		}
	}
	node.rules = append(node.rules, r)
}

// lookup walks the first-field trie along the header bits and, at every
// visited node, backtracks into the next-field trie — O(W^d) node visits
// for d fields of width W, independent of any traffic history.
func (t *hTrie) lookup(h bitvec.Vec) (*flowtable.Rule, int) {
	var best *flowtable.Rule
	steps := t.search(t.root, h, 0, &best)
	return best, steps
}

// search visits the trie over field f from node and returns its node
// visits, keeping the first-ordered terminating rule in best.
func (t *hTrie) search(node *hnode, h bitvec.Vec, f int, best **flowtable.Rule) int {
	l := t.layout
	w := l.Field(f).Width
	steps := 0
	for b := 0; node != nil; b++ {
		steps++
		if f == l.NumFields()-1 {
			for _, r := range node.rules {
				if *best == nil || t.order[r] < t.order[*best] {
					*best = r
				}
			}
		} else if node.next != nil {
			steps += t.search(node.next, h, f+1, best)
		}
		if b >= w {
			break
		}
		bit := 0
		if h.FieldBit(l, f, b) {
			bit = 1
		}
		node = node.children[bit]
	}
	return steps
}

// ---------------------------------------------------------------------
// HyperCuts-style decision tree
// ---------------------------------------------------------------------

// hyperCuts is a simplified HyperCuts/HiCuts decision tree: internal nodes
// cut one dimension into hcCuts equal-width intervals; leaves hold at most
// hcBinth rules scanned linearly in match order.
type hyperCuts struct {
	layout *bitvec.Layout
	root   *hcnode
}

type hcnode struct {
	leaf     bool
	rules    []*flowtable.Rule // leaf payload, in match order
	dim      int               // cut dimension (field index)
	lo, hi   uint64            // node's bounds on dim (inclusive)
	children []*hcnode
}

const (
	hcBinth = 4 // leaf size
	hcCuts  = 4 // intervals per cut (a power of two)
)

// newHyperCuts builds the tree; the table must be prefix-form and all
// fields at most 64 bits wide.
func newHyperCuts(tbl *flowtable.Table) (*hyperCuts, error) {
	if err := checkPrefixForm(tbl); err != nil {
		return nil, err
	}
	l := tbl.Layout()
	for f := 0; f < l.NumFields(); f++ {
		if l.Field(f).Width > 64 {
			return nil, fmt.Errorf("alt: hypercuts needs fields <= 64 bits, %q has %d",
				l.Field(f).Name, l.Field(f).Width)
		}
	}
	hc := &hyperCuts{layout: l}
	bounds := make([][2]uint64, l.NumFields())
	for f := range bounds {
		bounds[f] = [2]uint64{0, maxVal(l.Field(f).Width)}
	}
	hc.root = hc.build(tbl.Rules(), bounds, 0)
	return hc, nil
}

func maxVal(w int) uint64 {
	if w == 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// ruleRange converts a prefix rule field into an inclusive value range.
func ruleRange(l *bitvec.Layout, r *flowtable.Rule, f int) (uint64, uint64) {
	w := l.Field(f).Width
	plen, _ := prefixLen(l, r.Mask, f)
	if plen == 0 {
		return 0, maxVal(w)
	}
	var val uint64
	for i := 0; i < w; i++ {
		val <<= 1
		if i < plen && r.Key.FieldBit(l, f, i) {
			val |= 1
		}
	}
	span := maxVal(w - plen)
	if w-plen == 0 {
		span = 0
	}
	return val, val + span
}

func (hc *hyperCuts) build(rules []*flowtable.Rule, bounds [][2]uint64, depth int) *hcnode {
	node := &hcnode{}
	if len(rules) <= hcBinth || depth > 32 {
		node.leaf = true
		node.rules = rules
		return node
	}
	// Choose the dimension with the most distinct rule ranges within the
	// node's bounds (a standard HyperCuts heuristic).
	l := hc.layout
	bestDim, bestDistinct := -1, 1
	for f := 0; f < l.NumFields(); f++ {
		if bounds[f][0] == bounds[f][1] {
			continue
		}
		distinct := map[[2]uint64]bool{}
		for _, r := range rules {
			lo, hi := ruleRange(l, r, f)
			distinct[[2]uint64{lo, hi}] = true
		}
		if len(distinct) > bestDistinct {
			bestDistinct, bestDim = len(distinct), f
		}
	}
	if bestDim == -1 {
		node.leaf = true
		node.rules = rules
		return node
	}
	lo, hi := bounds[bestDim][0], bounds[bestDim][1]
	span := hi - lo
	step := span/hcCuts + 1
	node.dim, node.lo, node.hi = bestDim, lo, hi
	progress := false
	for c := 0; c < hcCuts; c++ {
		clo := lo + uint64(c)*step
		if clo > hi {
			break
		}
		chi := clo + step - 1
		if chi > hi || chi < clo /* overflow */ {
			chi = hi
		}
		var sub []*flowtable.Rule
		for _, r := range rules {
			rlo, rhi := ruleRange(l, r, bestDim)
			if rlo <= chi && rhi >= clo {
				sub = append(sub, r)
			}
		}
		if len(sub) < len(rules) {
			progress = true
		}
		cb := make([][2]uint64, len(bounds))
		copy(cb, bounds)
		cb[bestDim] = [2]uint64{clo, chi}
		node.children = append(node.children, hc.build(sub, cb, depth+1))
	}
	if !progress {
		// No child got smaller: cutting this dimension cannot help.
		node.leaf = true
		node.rules = rules
		node.children = nil
	}
	return node
}

// lookup descends one child per internal node, then scans the leaf.
func (hc *hyperCuts) lookup(h bitvec.Vec) (*flowtable.Rule, int) {
	steps := 0
	node := hc.root
	for !node.leaf {
		steps++
		v := h.FieldUint64(hc.layout, node.dim)
		step := (node.hi-node.lo)/hcCuts + 1
		idx := int((v - node.lo) / step)
		if idx >= len(node.children) {
			idx = len(node.children) - 1
		}
		node = node.children[idx]
	}
	for _, r := range node.rules {
		steps++
		if r.Matches(h) {
			return r, steps
		}
	}
	return nil, steps
}
