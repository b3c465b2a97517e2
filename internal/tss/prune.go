package tss

import (
	"math/bits"
	"slices"

	"tse/internal/bitvec"
)

// Tuple pruning [Srinivasan, Suri, Varghese, SIGCOMM'99; OVS
// lib/classifier.c prefix tries]: a lookup probes only the groups whose
// mask could match the header on every field, instead of all |M|.
//
// Each group is classed, per pruned field, by the prefix length its mask
// has there: 1..W for an MSB-first prefix, 0 for a wildcarded field or a
// mask that is not a prefix (always a candidate, so never pruned). The
// installed entries define a set of (field, length, value) triples; a
// header's candidate lengths on field f are 0, every dense class, and
// every length L whose value set holds the header's first L bits of f. A
// group is probed only when its class is a candidate on every field. The
// entries of a skipped group all differ from the header on some field's
// prefix, so none of them can cover it: pruning skips no match, and since
// entries are disjoint (Inv(2)) the pruned lookup returns the one entry
// the linear scan returns. If entries did overlap, it would return one of
// the covering entries, not necessarily the first in scan order.
//
// The groups sit in a tree with one level per constrained field: a field
// becomes a level (and the tree is rebuilt) when the first mask with a
// nonzero class on it is installed, at most once per field, so a field no
// mask constrains costs a lookup nothing. An inner node is bitmap-indexed
// by the class of its level's field: kid k belongs to the k-th set bit of
// bits. A last-level node lists its groups' ids with their class there. A
// lookup descends only into the children in bits & candidates[level].
//
// Ids name groups through a chunked table, so the copy-on-write clone an
// install into an existing group makes rewrites one table entry, not the
// tree. The tree changes only when a mask comes or goes, and then copies
// the nodes on its path, at most one per level. Published nodes, tables
// and chunks are immutable; the snapshot carries them (pruneView). The
// index is built when the cache first holds more than linearMasks masks,
// below which lookups scan linearly, and maintained from then on.
//
// The insert-time overlap check walks the same tree. Its candidates on
// field f are the classes with a value agreeing with the new entry's key
// on the bits both masks constrain there: min(L, L_e) bits for a prefix
// mask.

// linearMasks is the largest mask count a ScanPruned lookup scans linearly:
// over so few masks the staged scan's streamed records cost less than
// computing candidates and walking the tree. The index itself is
// built when the cache first holds more masks (pruneIndex.activate), so a
// one- or two-mask cache (victim_mix, flow_setup) pays nothing for it,
// reads or writes.
const linearMasks = 16

// pruned reports whether a lookup under scan walks this snapshot's
// pruning index.
func (sn *snapshot) pruned(scan Scan) bool { return scan == ScanPruned && sn.masks > linearMasks }

// maxLevels bounds the pruned fields: every field of at most 63 bits, the
// first maxLevels of them in layout order.
const maxLevels = 8

// denseVals is the number of distinct values a (field, length) class holds
// before it turns dense: always a candidate, with no per-value state. A
// field matched exactly on an ever-new value (flow_setup's ip_src /32)
// pays one counter check per install once dense.
const denseVals = 8

// The group-id table is a directory of chunks of up to idChunk ids.
const (
	idShift = 8
	idChunk = 1 << idShift
)

// pfield locates one pruned field in a Vec: its bits start at bit shift of
// word word and may run into the next word. get returns the field's raw
// bits with the field's first (most significant) bit at bit 0, so a
// prefix of length L is the value's low L bits.
type pfield struct {
	word, shift, width uint8
}

func (f pfield) get(v bitvec.Vec) uint64 {
	x := v[f.word] >> f.shift
	if int(f.shift)+int(f.width) > 64 {
		x |= v[f.word+1] << (64 - f.shift)
	}
	return x & (1<<f.width - 1)
}

// class returns the prefix length of a field mask's raw bits, or 0 when
// they are not an MSB-first prefix.
func class(m uint64) uint8 {
	if m&(m+1) != 0 {
		return 0
	}
	return uint8(bits.OnesCount64(m))
}

// prefixMask returns the raw-bits mask of a class-l prefix.
func prefixMask(l uint8) uint64 { return 1<<(l&63) - 1 }

// fieldCands is one field's published candidate table: the field, its
// dense classes (bit L set; bit 0 always) and a (value, prefix mask, class
// bit) triple for every value of every other class.
type fieldCands struct {
	f     pfield
	dense uint64
	vals  []lenVal
}

type lenVal struct {
	v, m, bit uint64
}

// match returns the candidate classes of header h on the table's field.
func (fc *fieldCands) match(h bitvec.Vec) uint64 {
	k, c := fc.f.get(h), fc.dense
	for _, p := range fc.vals {
		if (k^p.v)&p.m == 0 {
			c |= p.bit
		}
	}
	return c
}

// inode is one node of the pruning tree. An inner node holds one kid per
// set bit of bits, in bit order; a last-level node holds refs, its groups
// with their class on the last level's field, and bits is the union of
// those classes. epoch is the writer epoch that allocated it: a node of
// the current epoch has never been published and is mutated in place.
type inode struct {
	bits  uint64
	epoch uint64
	kids  []*inode
	refs  []leafRef
}

type leafRef struct {
	id  uint32
	cls uint8
}

// idTable is the group-id table: group id sits in chunk id>>idShift at
// id&(idChunk-1). Ids are handed out in order, so a new one extends the
// last chunk.
type idTable [][]*group

func (t idTable) at(id uint32) *group { return t[id>>idShift][id&(idChunk-1)] }

// pruneView is the part of the index a snapshot publishes: the tree, its
// levels' fields, the candidate tables of every pruned field, and the
// group-id table.
type pruneView struct {
	root   *inode
	levels []uint8 // field index of each tree level
	cands  []fieldCands
	groups idTable
}

// candidates fills cand with header h's candidate classes on every level.
func (v *pruneView) candidates(h bitvec.Vec, cand *[maxLevels]uint64) {
	for d, f := range v.levels {
		cand[d] = v.cands[f].match(h)
	}
}

// each calls f with the id of every group under n whose class is in cand
// on every level, in tree order, until f returns false, and reports
// whether it was stopped.
func (v *pruneView) each(n *inode, d int, cand *[maxLevels]uint64, f func(uint32) bool) bool {
	if n == nil {
		return false
	}
	c := cand[d]
	if d == len(v.levels)-1 {
		for _, r := range n.refs {
			if c>>r.cls&1 != 0 && !f(r.id) {
				return true
			}
		}
		return false
	}
	for m := n.bits & c; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if v.each(n.kids[bits.OnesCount64(n.bits&(1<<b-1))], d+1, cand, f) {
			return true
		}
	}
	return false
}

// scanPruned is the pruned lookup over one snapshot: the header's
// candidate classes per level from the published tables, then a walk of
// the candidate groups, each probed as the linear scan probes it. Probes
// and skips count the groups actually probed.
func (sn *snapshot) scanPruned(h bitvec.Vec) (e *Entry, g *group, probes, skips int) {
	v := sn.prune
	var cand [maxLevels]uint64
	v.candidates(h, &cand)
	v.each(v.root, 0, &cand, func(id uint32) bool {
		probes++
		g = v.groups.at(id)
		var skip bool
		if e, skip = g.probe(h); skip {
			skips++
		}
		return e == nil
	})
	if e == nil {
		g = nil
	}
	return e, g, probes, skips
}

// valClass is the writer's count of one (field, length) class: its
// entries and, until it turns dense, its distinct values with their entry
// counts. n > 0 with vals == nil is a dense class.
type valClass struct {
	n    int
	vals []valCount
}

type valCount struct {
	v uint64
	n int
}

// pruneIndex is the writer side of the tuple-pruning index, under the
// classifier's writer lock. view is what the next publish shares; fields
// never changes after New. Until active, every write is a no-op and the
// view is empty.
type pruneIndex struct {
	view     pruneView
	idle     pruneView // what snapshots of an inactive index share
	fields   []pfield
	active   bool
	levelSet uint64 // fields that are tree levels
	epoch    uint64

	// dirEpoch and chunkEpoch[i] are the epochs that copied the group-id
	// table's directory and its chunk i. Ids below next not in free name
	// groups.
	dirEpoch   uint64
	chunkEpoch []uint64
	next       uint32
	free       []uint32

	// present[f] has bit L set while class L of field f holds entries;
	// vals[f] is allocated with the field's first entry.
	present [maxLevels]uint64
	vals    [maxLevels]*[64]valClass
	dirty   uint64 // fields whose published candidate table is stale

	copied uint64 // Stats.IndexCopied
}

// newPruneIndex picks the pruned fields of l. A layout with none gets one
// field that every mask classes 0. The tree starts with the first field as
// its only level.
func newPruneIndex(l *bitvec.Layout) *pruneIndex {
	x := &pruneIndex{levelSet: 1}
	for f := 0; f < l.NumFields() && len(x.fields) < maxLevels; f++ {
		if w := l.Field(f).Width; w <= 63 {
			off := l.FieldOffset(f)
			x.fields = append(x.fields, pfield{word: uint8(off / 64), shift: uint8(off % 64), width: uint8(w)})
		}
	}
	if len(x.fields) == 0 {
		x.fields = []pfield{{}}
	}
	x.view.levels = []uint8{0}
	x.view.cands = make([]fieldCands, len(x.fields))
	for f, pf := range x.fields {
		x.view.cands[f] = fieldCands{f: pf, dense: 1}
	}
	x.idle = x.view
	return x
}

// classes returns a mask's class on every pruned field.
func (x *pruneIndex) classes(mask bitvec.Vec) (cls [maxLevels]uint8) {
	for f, pf := range x.fields {
		cls[f] = class(pf.get(mask))
	}
	return cls
}

// publish rebuilds the stale candidate tables and returns the view the
// snapshot shares; everything written until then is frozen. Every
// snapshot of an inactive index shares one empty view.
func (x *pruneIndex) publish() *pruneView {
	if !x.active {
		return &x.idle
	}
	x.epoch++
	if x.dirty != 0 {
		x.view.cands = slices.Clone(x.view.cands)
		for m := x.dirty; m != 0; m &= m - 1 {
			f := bits.TrailingZeros64(m)
			fc := fieldCands{f: x.fields[f], dense: 1}
			for p := x.present[f]; p != 0; p &= p - 1 {
				l := uint8(bits.TrailingZeros64(p))
				vc := &x.vals[f][l]
				if vc.vals == nil {
					fc.dense |= 1 << l
				}
				for _, v := range vc.vals {
					fc.vals = append(fc.vals, lenVal{v: v.v, m: prefixMask(l), bit: 1 << l})
				}
			}
			x.view.cands[f] = fc
			x.copied++
		}
		x.dirty = 0
	}
	v := x.view
	return &v
}

// activate builds the index over the groups of the mirror dir, which
// from then on every write maintains.
func (x *pruneIndex) activate(dir []chunk) {
	x.active = true
	for _, ch := range dir {
		for _, s := range ch.side {
			cls := x.classes(s.g.mask)
			x.add(s.g, &cls)
			s.g.each(func(e *Entry) bool {
				x.addEntry(e.Key, &cls)
				return true
			})
		}
	}
}

// addEntry counts key's value in each of its mask's classes cls.
func (x *pruneIndex) addEntry(key bitvec.Vec, cls *[maxLevels]uint8) {
	if !x.active {
		return
	}
	for f, pf := range x.fields {
		l := cls[f]
		if l == 0 {
			continue
		}
		if x.vals[f] == nil {
			x.vals[f] = new([64]valClass)
		}
		vc := &x.vals[f][l]
		if vc.n++; vc.n == 1 {
			x.present[f] |= 1 << l
			vc.vals = append(vc.vals[:0], valCount{v: pf.get(key), n: 1})
			x.dirty |= 1 << f
			continue
		}
		if vc.vals == nil {
			continue // dense
		}
		v := pf.get(key)
		i := 0
		for i < len(vc.vals) && vc.vals[i].v != v {
			i++
		}
		switch {
		case i < len(vc.vals):
			vc.vals[i].n++
			continue
		case i == denseVals:
			vc.vals = nil
		default:
			vc.vals = append(vc.vals, valCount{v: v, n: 1})
		}
		x.dirty |= 1 << f
	}
}

// removeEntry uncounts key under its mask's classes cls.
func (x *pruneIndex) removeEntry(key bitvec.Vec, cls *[maxLevels]uint8) {
	if !x.active {
		return
	}
	for f, pf := range x.fields {
		l := cls[f]
		if l == 0 {
			continue
		}
		vc := &x.vals[f][l]
		if vc.n--; vc.n == 0 {
			x.present[f] &^= 1 << l
			vc.vals = nil
			x.dirty |= 1 << f
			continue
		}
		if vc.vals == nil {
			continue // dense until it empties
		}
		v := pf.get(key)
		i := 0
		for vc.vals[i].v != v {
			i++
		}
		if vc.vals[i].n--; vc.vals[i].n == 0 {
			vc.vals = slices.Delete(vc.vals, i, i+1)
			x.dirty |= 1 << f
		}
	}
}

// overlapCands returns, per tree level, the classes holding a value that
// agrees with key on the bits mask constrains: the groups an entry
// (key, mask) can overlap. It reads the writer's counts, current within a
// batch.
func (x *pruneIndex) overlapCands(key, mask bitvec.Vec) (cand [maxLevels]uint64) {
	for d, f := range x.view.levels {
		pf := x.fields[f]
		k, m := pf.get(key), pf.get(mask)
		c := uint64(1)
		for p := x.present[f]; p != 0; p &= p - 1 {
			l := uint8(bits.TrailingZeros64(p))
			vc := &x.vals[f][l]
			if vc.vals == nil {
				c |= 1 << l
				continue
			}
			for _, v := range vc.vals {
				if (k^v.v)&m&prefixMask(l) == 0 {
					c |= 1 << l
					break
				}
			}
		}
		cand[d] = c
	}
	return cand
}

// add gives a new group, whose mask has classes cls, an id and places it
// in the tree, first making a level of every field its mask is the first
// to constrain.
func (x *pruneIndex) add(g *group, cls *[maxLevels]uint8) {
	if !x.active {
		return
	}
	var need uint64
	for f := range x.fields {
		if cls[f] != 0 {
			need |= 1 << f
		}
	}
	if need&^x.levelSet != 0 {
		x.rebuild(x.levelSet | need)
	}
	id := x.next
	if n := len(x.free); n > 0 {
		id, x.free = x.free[n-1], x.free[:n-1]
	} else {
		x.next++
	}
	g.meta.id = id
	x.setGroup(id, g)
	x.setLeaf(cls, id, true)
}

// replace points g's id at g, a copy-on-write clone of the group there.
func (x *pruneIndex) replace(g *group) {
	if x.active {
		x.setGroup(g.meta.id, g)
	}
}

// remove drops g, whose mask has classes cls, from the tree and frees its
// id.
func (x *pruneIndex) remove(g *group, cls *[maxLevels]uint8) {
	if !x.active {
		return
	}
	x.setLeaf(cls, g.meta.id, false)
	x.setGroup(g.meta.id, nil)
	x.free = append(x.free, g.meta.id)
}

// setGroup stores g at id, first copying the directory if a snapshot
// shares it, and the id's chunk if a snapshot shares the slot. A new id
// extends its chunk past every published length, in place.
func (x *pruneIndex) setGroup(id uint32, g *group) {
	if x.dirEpoch != x.epoch {
		x.view.groups = append(make(idTable, 0, len(x.view.groups)+1), x.view.groups...)
		x.dirEpoch = x.epoch
		x.copied++
	}
	i, k := int(id>>idShift), int(id&(idChunk-1))
	if i == len(x.view.groups) {
		x.view.groups = append(x.view.groups, nil)
		x.chunkEpoch = append(x.chunkEpoch, x.epoch)
	}
	ch := x.view.groups[i]
	switch {
	case k == len(ch):
		ch = append(ch, g)
	case x.chunkEpoch[i] != x.epoch:
		ch = slices.Clone(ch)
		x.chunkEpoch[i] = x.epoch
		x.copied++
		fallthrough
	default:
		ch[k] = g
	}
	x.view.groups[i] = ch
}

// rebuild makes the fields of set the tree's levels, in layout order, and
// rebuilds the tree over every group.
func (x *pruneIndex) rebuild(set uint64) {
	x.levelSet = set
	x.view.levels = nil
	for m := set; m != 0; m &= m - 1 {
		x.view.levels = append(x.view.levels, uint8(bits.TrailingZeros64(m)))
	}
	x.view.root = nil
	for _, ch := range x.view.groups {
		for _, g := range ch {
			if g != nil {
				cls := x.classes(g.mask)
				x.setLeaf(&cls, g.meta.id, true)
			}
		}
	}
}

// setLeaf adds id under classes cls to the tree, or removes it.
func (x *pruneIndex) setLeaf(cls *[maxLevels]uint8, id uint32, add bool) {
	x.view.root = x.setAt(x.view.root, 0, cls, id, add)
}

func (x *pruneIndex) setAt(n *inode, d int, cls *[maxLevels]uint8, id uint32, add bool) *inode {
	c := cls[x.view.levels[d]]
	b := uint64(1) << c
	if d == len(x.view.levels)-1 {
		if !add && len(n.refs) == 1 {
			return nil
		}
		n = x.own(n)
		if add {
			n.refs = append(n.refs, leafRef{id: id, cls: c})
			n.bits |= b
			return n
		}
		i := slices.Index(n.refs, leafRef{id: id, cls: c})
		n.refs = slices.Delete(n.refs, i, i+1)
		n.bits = 0
		for _, r := range n.refs {
			n.bits |= 1 << r.cls
		}
		return n
	}
	k := 0
	var kid *inode
	if n != nil {
		k = bits.OnesCount64(n.bits & (b - 1))
		if n.bits&b != 0 {
			kid = n.kids[k]
		}
	}
	nk := x.setAt(kid, d+1, cls, id, add)
	switch {
	case nk == kid:
		return n // the kid was written in place
	case nk == nil && n.bits == b:
		return nil
	}
	n = x.own(n)
	switch {
	case nk == nil:
		n.kids = slices.Delete(n.kids, k, k+1)
		n.bits &^= b
	case kid != nil:
		n.kids[k] = nk
	default:
		n.kids = slices.Insert(n.kids, k, nk)
		n.bits |= b
	}
	return n
}

// own returns n if the writer may mutate it, else a copy with room for one
// more child (a new node for nil).
func (x *pruneIndex) own(n *inode) *inode {
	if n == nil {
		return &inode{epoch: x.epoch}
	}
	if n.epoch == x.epoch {
		return n
	}
	x.copied++
	nn := &inode{bits: n.bits, epoch: x.epoch}
	if n.kids != nil {
		nn.kids = append(make([]*inode, 0, len(n.kids)+1), n.kids...)
	}
	if n.refs != nil {
		nn.refs = append(make([]leafRef, 0, len(n.refs)+1), n.refs...)
	}
	return nn
}
