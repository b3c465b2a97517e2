package tss

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

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
// every length L whose value set holds the header's first L bits of f.
// Each publish turns a changed field's triples into a stride table: its
// entry for the header's first 8 bits of f is the bitmap of candidate
// lengths 1..8, so one load answers them all; only lengths past 8 keep a
// (value, prefix) test each. A group is probed only when its class is a
// candidate on every field. The entries of a skipped group all differ from
// the header on some field's prefix, so none of them can cover it: pruning
// skips no match, and since entries are disjoint (Inv(2)) the pruned
// lookup returns the one entry the linear scan returns. If entries did
// overlap, it would return one of the covering entries, not necessarily
// the first in scan order.
//
// The groups sit in a tree with one level per constrained field: a field
// becomes a level (and the tree is rebuilt) when the first mask with a
// nonzero class on it is installed, at most once per field, so a field no
// mask constrains costs a lookup nothing. An inner node indexes its kids
// by the class of its level's field: kid c holds the groups of class c,
// and bit c of bits is set while it exists. A last-level node holds its
// groups, each in a ref with its class there. A lookup descends only into
// the children in bits & candidates[level]. One iterative walk (walk)
// serves the lookup, MissProbes and the insert-time overlap check: it
// hands each caller the candidate groups in tree order, and the caller
// probes them in its own loop. A walk with every class a candidate lists
// the groups for Entries, DeleteWhere and a rebuild.
//
// A snapshot holds the index's view by value (pruneView): the tree's root,
// its levels and the candidate tables. An install writes the tree in
// place, RCU-style, as an append behind a published length or a store
// into a cell [OVS lib/cmap.c; MemC3, Fan et al., NSDI'13]: a new kid fills
// its empty cell before its bit is set; a new ref lands past its leaf's
// published count before the count moves, and carries the epoch of its
// add, which the walk of an older snapshot skips before it loads the
// group. A copy of a group that only adds an entry (a one-entry group's
// second, a doubling) is stored over the group in its ref once complete,
// since every older snapshot skips that entry on its epoch. So an install
// copies nothing of the index. Every other write copies what a snapshot
// could see change, so each snapshot keeps the index it was published
// with: a removal and any other clone of a published group (a refresh's,
// a sweep's) copy the nodes on its path; a new level rebuilds the tree, at
// most once per field; and a publish rebuilds the candidate table of a
// field whose values changed. The index is built in New and kept under
// both scans: ScanPruned lookups walk the tree from the first mask, and
// the insert-time overlap check walks it under either scan.
//
// The insert-time overlap check walks the same tree. Its candidates on
// field f are the classes with a value agreeing with the new entry's key
// on the bits both masks constrain there: min(L, L_e) bits for a prefix
// mask.

// maxLevels bounds the pruned fields: every field of at most 63 bits, the
// first maxLevels of them in layout order.
const maxLevels = 8

// denseVals is the number of distinct values a (field, length) class holds
// before it turns dense: always a candidate, with no per-value state. A
// field matched exactly on an ever-new value (flow_setup's ip_src /32)
// pays one counter check per install once dense.
const denseVals = 8

// pfield locates one pruned field in a Vec: its bits start at bit shift of
// word word and may run into the next word. get returns the field's raw
// bits with the field's first (most significant) bit at bit 0, so a
// prefix of length L is the value's low L bits; raw returns them followed
// by whatever bits come after the field, which a prefix mask drops.
type pfield struct {
	word, shift, width uint8
}

func (f pfield) get(v bitvec.Vec) uint64 { return f.raw(v) & (1<<f.width - 1) }

func (f pfield) raw(v bitvec.Vec) uint64 {
	x := v[f.word] >> f.shift
	if f.shift+f.width > 64 {
		x |= v[f.word+1] << (64 - f.shift)
	}
	return x
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

// strideBits is the candidate table's stride: a field's first byte indexes
// it, so classes 1..8 cost one load together.
const strideBits = 8

// fieldCands is one field's published candidate table. dense holds class 0
// and the dense classes, candidates for every header. tab, indexed by the
// byte that starts at the field, holds every class 1..strideBits with a
// value equal to the first L bits of a header with that byte (a field
// narrower than a byte repeats its entries for every value of the bits
// after it). long holds a (value, prefix mask, class bit) triple for every
// value of every listed class longer than strideBits. They are rebuilt
// only when the field's class values change.
type fieldCands struct {
	f     pfield
	dense uint64
	tab   *[1 << strideBits]uint16
	long  []lenVal
}

type lenVal struct {
	v, m, bit uint64
}

// noShort is the stride table of a field with no listed class up to
// strideBits.
var noShort [1 << strideBits]uint16

// match returns the candidate classes of header h on the table's field:
// the dense ones, one load for the classes up to strideBits, then one
// XOR-and-mask per long triple.
func (fc *fieldCands) match(h bitvec.Vec) uint64 {
	k := fc.f.raw(h)
	c := fc.dense | uint64(fc.tab[uint8(k)])
	for _, p := range fc.long {
		if (k^p.v)&p.m == 0 {
			c |= p.bit
		}
	}
	return c
}

// inode is one node of the pruning tree. An inner node has one kid cell
// per class of its level's field (the field's width plus one), and bits
// has bit c set while kids[c] holds a node. A last-level node holds refs,
// its groups with their class on the last level's field, and bits is the
// union of those classes.
//
// Lock-free readers walk nodes the writer adds to. An add stores a new kid
// into its empty cell and then ORs in its bit, and writes a new ref past
// the published count (nrefs) before it moves the count, all atomically;
// the kid or the ref array it publishes is complete before that. A removal
// never writes a node a snapshot may reach: it copies the nodes on its path
// (own), as does a clone of a published group. epoch is the writer epoch
// that copied the node; such a node is reachable only once published, so
// the writes of its own epoch mutate it in place. A node an add makes has epoch 0, which no write
// runs in (New publishes first).
type inode struct {
	bits  atomic.Uint64
	epoch uint64
	kids  []atomic.Pointer[inode]
	refs  atomic.Pointer[leafRef] // the first cell of the ref array
	nrefs atomic.Uint32           // refs published
	capr  uint32                  // the ref array's length; the writer's alone
}

// leafRef is one group of a last-level node: the group, and in one word the
// epoch of the add that placed it, which a walk of a snapshot published
// before skips, above the group's class there. g is loaded and stored
// atomically (group, set): the writer stores a copy of the group that only
// adds entries over it in place.
type leafRef struct {
	g  unsafe.Pointer // *group
	ec uint64         // epoch<<8 | class
}

func newRef(g *group, epoch uint64, cls uint8) leafRef {
	return leafRef{g: unsafe.Pointer(g), ec: epoch<<8 | uint64(cls)}
}

func (r *leafRef) group() *group { return (*group)(atomic.LoadPointer(&r.g)) }
func (r *leafRef) set(g *group)  { atomic.StorePointer(&r.g, unsafe.Pointer(g)) }
func (r *leafRef) epoch() uint64 { return r.ec >> 8 }
func (r *leafRef) cls() uint8    { return uint8(r.ec) }

// loadRefs returns the node's published refs. The count is loaded first:
// the array loaded after it is the one the count was published with or a
// grown copy, and either holds that many refs.
func (n *inode) loadRefs() []leafRef {
	k := n.nrefs.Load()
	return unsafe.Slice(n.refs.Load(), k)
}

// appendRef adds r past the node's published refs, growing the array by
// doubling into a copy when it is full, and then publishes it.
func (n *inode) appendRef(r leafRef) {
	k := n.nrefs.Load()
	refs := unsafe.Slice(n.refs.Load(), n.capr)
	if k == n.capr {
		refs = append(make([]leafRef, 0, max(2*k, 2)), refs...)
		refs = refs[:cap(refs)]
		n.capr = uint32(len(refs))
		n.refs.Store(&refs[0])
	}
	refs[k] = r
	n.nrefs.Store(k + 1)
	n.bits.Or(1 << r.cls())
}

// pruneView is the part of the index a snapshot publishes, by value: the
// tree, its levels' fields and the candidate tables of every pruned field.
type pruneView struct {
	root   *inode
	levels []uint8 // field index of each tree level
	cands  []fieldCands
}

// groups returns the snapshot's groups for Entries: every group of its
// tree, sorted by (hash, mask words), which is OrderHash scan order.
func (sn *snapshot) groups() []*group {
	gs := make([]*group, 0, sn.masks)
	var w walk
	for g := w.every(&sn.prune, sn.epoch); g != nil; g = w.next() {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(a, b *group) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return compareKeys(a.mask, b.mask)
	})
	return gs
}

// candidates fills cand with header h's candidate classes on every level.
func (v *pruneView) candidates(h bitvec.Vec, cand *[maxLevels]uint64) {
	for d, f := range v.levels {
		cand[d] = v.cands[f].match(h)
	}
}

// walk is the one walk of the pruning tree, shared by the pruned lookup,
// MissProbes and the insert-time overlap check. With cand filled, first and
// then next return, in tree order, every group of a ref no newer than the
// walk's epoch whose class is in cand on every level. The path is an
// explicit stack: per inner level, the node and its candidate kids not yet
// visited. A leaf none of whose classes is a candidate is skipped without
// reading its refs.
type walk struct {
	cand    [maxLevels]uint64
	node    [maxLevels]*inode
	rest    [maxLevels]uint64
	refs    []leafRef // the current leaf's refs not yet visited
	ep      uint64
	d, last int
}

// first starts the walk over v's tree for a reader of epoch ep and returns
// its first group, or nil.
func (w *walk) first(v *pruneView, ep uint64) *group {
	w.ep, w.last, w.d = ep, len(v.levels)-1, -1
	switch n := v.root; {
	case n == nil || n.bits.Load()&w.cand[0] == 0:
	case w.last == 0:
		w.refs = n.loadRefs()
	default:
		w.node[0], w.rest[0], w.d = n, n.bits.Load()&w.cand[0], 0
	}
	return w.next()
}

// every starts a walk with every class a candidate: it returns, in tree
// order, every group of v a reader of epoch ep sees.
func (w *walk) every(v *pruneView, ep uint64) *group {
	for d := range w.cand {
		w.cand[d] = ^uint64(0)
	}
	return w.first(v, ep)
}

// next returns the walk's next group, or nil once it is done. A ref newer
// than the walk's epoch is skipped before its group is loaded, so a reader
// never meets a group added after its snapshot.
func (w *walk) next() *group {
	c, d, refs := w.cand[w.last], w.d, w.refs
	for {
		for i := range refs {
			if r := &refs[i]; c>>r.cls()&1 != 0 && r.epoch() <= w.ep {
				w.refs, w.d = refs[i+1:], d
				return r.group()
			}
		}
		for {
			if d < 0 {
				w.refs, w.d = nil, d
				return nil
			}
			m := w.rest[d]
			if m == 0 {
				d--
				continue
			}
			w.rest[d] = m & (m - 1)
			kid := w.node[d].kids[bits.TrailingZeros64(m)].Load()
			if d+1 < w.last {
				d++
				w.node[d], w.rest[d] = kid, kid.bits.Load()&w.cand[d]
			} else if kid.bits.Load()&c != 0 {
				refs = kid.loadRefs()
				break
			}
		}
	}
}

// scanPruned is the pruned lookup over one snapshot: the header's
// candidate classes per level from the published tables, then a walk of
// the candidate groups, each probed as the linear scan probes it. Probes
// and skips count the groups actually probed.
func (sn *snapshot) scanPruned(h bitvec.Vec) (e *Entry, probes, skips int) {
	var w walk
	sn.prune.candidates(h, &w.cand)
	for g := w.first(&sn.prune, sn.epoch); g != nil; g = w.next() {
		probes++
		var skip bool
		if e, skip = g.probe(h, sn.epoch); skip {
			skips++
		}
		if e != nil {
			break
		}
	}
	return e, probes, skips
}

// missProbes returns the candidate groups of h the snapshot's walk hands
// out: the probes a pruned lookup of h that misses makes.
func (sn *snapshot) missProbes(h bitvec.Vec) int {
	var w walk
	sn.prune.candidates(h, &w.cand)
	n := 0
	for g := w.first(&sn.prune, sn.epoch); g != nil; g = w.next() {
		n++
	}
	return n
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
// classifier's writer lock. view is what the next publish shares. epoch
// counts publishes: a node the writer copied since the last one carries it
// (own). fields never changes after New.
type pruneIndex struct {
	view     pruneView
	fields   []pfield
	levelSet uint64 // fields that are tree levels
	epoch    uint64

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
		x.view.cands[f] = fieldCands{f: pf, dense: 1, tab: &noShort}
	}
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
// snapshot shares.
func (x *pruneIndex) publish() pruneView {
	x.epoch++
	if x.dirty != 0 {
		x.view.cands = slices.Clone(x.view.cands)
		for m := x.dirty; m != 0; m &= m - 1 {
			f := bits.TrailingZeros64(m)
			fc := fieldCands{f: x.fields[f], dense: 1, tab: new([1 << strideBits]uint16)}
			for p := x.present[f]; p != 0; p &= p - 1 {
				l := uint8(bits.TrailingZeros64(p))
				vc := &x.vals[f][l]
				switch {
				case vc.vals == nil:
					fc.dense |= 1 << l
				case l <= strideBits:
					for _, v := range vc.vals {
						for i := v.v; i < uint64(len(fc.tab)); i += 1 << l {
							fc.tab[i] |= 1 << l
						}
					}
				default:
					for _, v := range vc.vals {
						fc.long = append(fc.long, lenVal{v: v.v, m: prefixMask(l), bit: 1 << l})
					}
				}
			}
			x.view.cands[f] = fc
			x.copied++
		}
		x.dirty = 0
	}
	return x.view
}

// addEntry counts key's value in each of its mask's classes cls.
func (x *pruneIndex) addEntry(key bitvec.Vec, cls *[maxLevels]uint8) {
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

// add places a new group, whose mask has classes cls, in the tree, first
// making a level of every field its mask is the first to constrain. Its
// ref carries the epoch of the next publish.
func (x *pruneIndex) add(g *group, cls *[maxLevels]uint8) {
	var need uint64
	for f := range x.fields {
		if cls[f] != 0 {
			need |= 1 << f
		}
	}
	if need&^x.levelSet != 0 {
		x.rebuild(x.levelSet | need)
	}
	x.addLeaf(cls, g, nextEpoch())
}

// remove drops g, whose mask has classes cls, from the tree.
func (x *pruneIndex) remove(g *group, cls *[maxLevels]uint8) {
	x.view.root = x.removeAt(x.view.root, 0, cls, g)
}

// replace stores ng, a copy of g, over g in its ref. With inPlace, ng only
// adds entries stamped after every published snapshot, which skip them, so
// the ref is written where every snapshot sharing its leaf reads it.
// Otherwise the nodes on its path are copied first (own), as for a
// removal, so each snapshot keeps g.
func (x *pruneIndex) replace(g, ng *group, inPlace bool) {
	cls := x.classes(g.mask)
	if !inPlace {
		x.view.root = x.own(x.view.root)
	}
	n, last := x.view.root, len(x.view.levels)-1
	for _, f := range x.view.levels[:last] {
		kid := n.kids[cls[f]].Load()
		if !inPlace {
			kid = x.own(kid)
			n.kids[cls[f]].Store(kid)
		}
		n = kid
	}
	refs := n.loadRefs()
	refs[slices.IndexFunc(refs, func(r leafRef) bool { return r.g == unsafe.Pointer(g) })].set(ng)
}

// rebuild makes the fields of set the tree's levels, in layout order, and
// rebuilds the tree over every group of the old one, in its order. The new
// tree is reachable only once published, so its refs carry epoch 0.
func (x *pruneIndex) rebuild(set uint64) {
	old := x.view
	x.levelSet = set
	x.view.levels = nil
	for m := set; m != 0; m &= m - 1 {
		x.view.levels = append(x.view.levels, uint8(bits.TrailingZeros64(m)))
	}
	x.view.root = nil
	var w walk
	for g := w.every(&old, allEpochs); g != nil; g = w.next() {
		cls := x.classes(g.mask)
		x.addLeaf(&cls, g, 0)
	}
}

// addLeaf places g's ref, of epoch ep, in the tree under classes cls, in
// place: into the leaf on its path, or as a new path from the first level
// it has no node on.
func (x *pruneIndex) addLeaf(cls *[maxLevels]uint8, g *group, ep uint64) {
	if x.view.root == nil {
		x.view.root = x.path(cls, 0, g, ep)
		return
	}
	n, last := x.view.root, len(x.view.levels)-1
	for d := 0; d < last; d++ {
		c := cls[x.view.levels[d]]
		kid := n.kids[c].Load()
		if kid == nil {
			n.kids[c].Store(x.path(cls, d+1, g, ep))
			n.bits.Or(1 << c)
			return
		}
		n = kid
	}
	n.appendRef(newRef(g, ep, cls[x.view.levels[last]]))
}

// path returns a new subtree holding g's ref alone, from level d down.
func (x *pruneIndex) path(cls *[maxLevels]uint8, d int, g *group, ep uint64) *inode {
	f := x.view.levels[d]
	n := &inode{}
	if d == len(x.view.levels)-1 {
		n.appendRef(newRef(g, ep, cls[f]))
		return n
	}
	c := cls[f]
	n.kids = make([]atomic.Pointer[inode], x.fields[f].width+1)
	n.kids[c].Store(x.path(cls, d+1, g, ep))
	n.bits.Store(1 << c)
	return n
}

// removeAt drops g, under classes cls, from the subtree n of level d and
// returns the subtree left: nil once empty, else n if nothing on the path
// needed a copy, else a copy (own).
func (x *pruneIndex) removeAt(n *inode, d int, cls *[maxLevels]uint8, g *group) *inode {
	c := cls[x.view.levels[d]]
	if d == len(x.view.levels)-1 {
		if n.nrefs.Load() == 1 {
			return nil
		}
		n = x.own(n)
		refs := n.loadRefs()
		i := slices.IndexFunc(refs, func(r leafRef) bool { return r.g == unsafe.Pointer(g) })
		copy(refs[i:], refs[i+1:])
		refs[len(refs)-1] = leafRef{} // spare room must not pin a removed group
		n.nrefs.Store(uint32(len(refs) - 1))
		var b uint64
		for i := range refs[:len(refs)-1] {
			b |= 1 << refs[i].cls()
		}
		n.bits.Store(b)
		return n
	}
	kid := n.kids[c].Load()
	nk := x.removeAt(kid, d+1, cls, g)
	switch {
	case nk == kid:
		return n // the kid was written in place
	case nk == nil && n.bits.Load() == 1<<c:
		return nil
	}
	n = x.own(n)
	n.kids[c].Store(nk)
	if nk == nil {
		n.bits.And(^(uint64(1) << c))
	}
	return n
}

// own returns n if the writer may mutate it, else a copy.
func (x *pruneIndex) own(n *inode) *inode {
	if n.epoch == x.epoch {
		return n
	}
	x.copied++
	nn := &inode{epoch: x.epoch}
	nn.bits.Store(n.bits.Load())
	if n.kids != nil {
		nn.kids = make([]atomic.Pointer[inode], len(n.kids))
		for i := range n.kids {
			nn.kids[i].Store(n.kids[i].Load())
		}
		return nn
	}
	refs := slices.Clone(n.loadRefs())
	nn.refs.Store(&refs[0])
	nn.nrefs.Store(uint32(len(refs)))
	nn.capr = uint32(len(refs))
	return nn
}
