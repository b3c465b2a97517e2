package tss

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// groupOf returns the writer's group of mask, or nil.
func (c *Classifier) groupOf(mask bitvec.Vec) *group { return c.byMask.get(mask, c.hashMask(mask)) }

// treeGroups returns the groups of sn's tree, as its refs hold them now, in
// the order a walk with every class a candidate hands them out. The order
// is fixed for as long as sn lives: later refs carry later epochs, which
// the walk skips, and a removal or clone copies the nodes it changes.
func (sn *snapshot) treeGroups() []*group {
	var gs []*group
	var w walk
	for g := w.every(&sn.prune, sn.epoch); g != nil; g = w.next() {
		gs = append(gs, g)
	}
	return gs
}

// groupOf returns sn's group of mask, as its ref holds it now, or nil.
func (sn *snapshot) groupOf(mask bitvec.Vec) *group {
	for _, g := range sn.treeGroups() {
		if g.mask.Equal(mask) {
			return g
		}
	}
	return nil
}

// list returns every group of the directory, first and ties, each once.
func (d *maskDir) list() []*group {
	var gs []*group
	for h, g := range d.first {
		gs = append(append(gs, g), d.ties[h]...)
	}
	return gs
}

// checkPruneIndex fails t unless sn's pruning index describes the writer's
// groups (byMask, which sn was published from) exactly: every field some
// mask constrains is a tree level; the tree holds every group once and
// nothing else, each in a ref that holds the writer's current pointer to
// it, under the path of its mask's classes, no newer than sn, with no
// empty node and every bitmap equal to what its node holds; and each
// field's candidate table lists, for every class its entries occupy,
// either exactly their values or the class as dense, and nothing for a
// class no entry occupies.
func checkPruneIndex(t *testing.T, c *Classifier, sn *snapshot) {
	t.Helper()
	x, v := c.prune, sn.prune
	want := map[*group]bool{} // the writer's groups, until the tree names them
	var levels uint64
	for _, f := range v.levels {
		levels |= 1 << f
	}
	// occupied[d] has bit l set while class l of field d holds entries;
	// vals[d][l] collects the values of a class the reference lists, whose
	// values are compared. A dense class's are not.
	ref := refCands(x)
	var occupied [maxLevels]uint64
	var vals [maxLevels][64]map[uint64]bool
	dir := c.byMask.list()
	if len(dir) != sn.masks {
		t.Fatalf("writer holds %d groups, snapshot %d masks", len(dir), sn.masks)
	}
	for _, g := range dir {
		want[g] = true
		cls := x.classes(g.mask)
		for f := range x.fields {
			if cls[f] != 0 && levels>>f&1 == 0 {
				t.Fatalf("group %s constrains field %d, not a tree level", g.mask.Format(c.layout), f)
			}
		}
		var listed [maxLevels]int // fields whose class here lists values
		n := 0
		for d, l := range cls[:len(x.fields)] {
			if l == 0 {
				continue
			}
			occupied[d] |= 1 << l
			if ref[d].dense>>l&1 == 0 {
				listed[n], n = d, n+1
				if vals[d][l] == nil {
					vals[d][l] = map[uint64]bool{}
				}
			}
		}
		if n == 0 {
			continue
		}
		var last [maxLevels]uint64
		for _, d := range listed[:n] {
			last[d] = ^uint64(0)
		}
		g.each(allEpochs, func(e *Entry) bool {
			for _, d := range listed[:n] {
				if v := x.fields[d].get(e.Key); v != last[d] {
					vals[d][cls[d]][v], last[d] = true, v
				}
			}
			return true
		})
	}

	seen := 0
	var walk func(n *inode, d int, path [maxLevels]uint8)
	walk = func(n *inode, d int, path [maxLevels]uint8) {
		if d == len(v.levels)-1 {
			var union uint64
			refs := n.loadRefs()
			if len(refs) == 0 || n.kids != nil {
				t.Fatal("empty last-level node")
			}
			for i := range refs {
				r := &refs[i]
				g := r.group()
				if r.epoch() > sn.epoch {
					t.Fatalf("ref of group %p has epoch %d, after its snapshot's %d", g, r.epoch(), sn.epoch)
				}
				path[d] = r.cls()
				union |= 1 << r.cls()
				if !want[g] {
					t.Fatalf("tree holds group %p, not a current group of the writer or held twice", g)
				}
				cls := x.classes(g.mask)
				for l, f := range v.levels {
					if cls[f] != path[l] {
						t.Fatalf("group %s under path %v, classes %v", g.mask.Format(c.layout), path, cls)
					}
				}
				delete(want, g)
				seen++
			}
			if union != n.bits.Load() {
				t.Fatalf("last-level bits %b, refs' classes %b", n.bits.Load(), union)
			}
			return
		}
		if n == nil || n.bits.Load() == 0 || len(n.kids) != int(x.fields[v.levels[d]].width)+1 || n.nrefs.Load() != 0 {
			t.Fatalf("inner node: bits %b, %d kid cells, %d refs", n.bits.Load(), len(n.kids), n.nrefs.Load())
		}
		for c := range n.kids {
			kid := n.kids[c].Load()
			if (kid != nil) != (n.bits.Load()>>c&1 == 1) {
				t.Fatalf("inner node: bits %b, kid %d %p", n.bits.Load(), c, kid)
			}
			if kid != nil {
				path[d] = uint8(c)
				walk(kid, d+1, path)
			}
		}
	}
	if v.root != nil {
		walk(v.root, 0, [maxLevels]uint8{})
	}
	if seen != sn.masks || len(want) != 0 {
		t.Fatalf("tree holds %d groups, the snapshot %d; %d of the writer's are missing", seen, sn.masks, len(want))
	}

	for d := range x.fields {
		fr := ref[d]
		var listed [64]map[uint64]bool
		for _, p := range fr.vals {
			l := uint8(bits.TrailingZeros64(p.bit))
			if listed[l] == nil {
				listed[l] = map[uint64]bool{}
			}
			listed[l][p.v] = true
		}
		for l := uint8(1); l < 64; l++ {
			dense, occ := fr.dense>>l&1 == 1, occupied[d]>>l&1 == 1
			switch {
			case !occ && (dense || listed[l] != nil):
				t.Fatalf("level %d: empty class %d still listed", d, l)
			case occ && dense && listed[l] != nil:
				t.Fatalf("level %d: dense class %d lists values", d, l)
			case occ && !dense && len(listed[l]) != len(vals[d][l]):
				t.Fatalf("level %d class %d: %d values listed, entries hold %d", d, l, len(listed[l]), len(vals[d][l]))
			case occ && !dense:
				for v := range vals[d][l] {
					if !listed[l][v] {
						t.Fatalf("level %d class %d: value %x missing", d, l, v)
					}
				}
			}
		}
		checkCandTable(t, d, &v.cands[d], &fr)
	}
}

// candRef is the reference candidate table of one pruned field, as
// publish built it before the stride table: class 0 and the dense classes
// in dense, and a (value, prefix mask, class bit) triple for every value of
// every other class.
type candRef struct {
	f     pfield
	dense uint64
	vals  []lenVal
}

// refCands builds every pruned field's reference table from the writer's
// counts. Between writes they are what the last publish saw, so the result
// describes the current snapshot.
func refCands(x *pruneIndex) []candRef {
	ref := make([]candRef, len(x.fields))
	for f, pf := range x.fields {
		fr := candRef{f: pf, dense: 1}
		for p := x.present[f]; p != 0; p &= p - 1 {
			l := uint8(bits.TrailingZeros64(p))
			vc := &x.vals[f][l]
			if vc.vals == nil {
				fr.dense |= 1 << l
			}
			for _, v := range vc.vals {
				fr.vals = append(fr.vals, lenVal{v: v.v, m: prefixMask(l), bit: 1 << l})
			}
		}
		ref[f] = fr
	}
	return ref
}

// matchRef returns the candidate classes of h on the reference table's
// field: one XOR-and-mask per (value, class) triple.
func (fr *candRef) matchRef(h bitvec.Vec) uint64 {
	k, c := fr.f.get(h), fr.dense
	for _, p := range fr.vals {
		if (k^p.v)&p.m == 0 {
			c |= p.bit
		}
	}
	return c
}

// checkCandTable fails t unless published table fc encodes reference fr
// exactly: the same class 0 and dense classes, each stride entry the short
// classes whose value the index agrees with, and long fr's triples of the
// classes past the stride, in fr's order.
func checkCandTable(t *testing.T, d int, fc *fieldCands, fr *candRef) {
	t.Helper()
	if fc.dense != fr.dense {
		t.Fatalf("level %d: dense classes %b, reference %b", d, fc.dense, fr.dense)
	}
	var long, short []lenVal
	for _, p := range fr.vals {
		if p.bit > 1<<strideBits {
			long = append(long, p)
		} else {
			short = append(short, p)
		}
	}
	if !slices.Equal(fc.long, long) {
		t.Fatalf("level %d: long triples %x, reference %x", d, fc.long, long)
	}
	for i := range fc.tab {
		var want uint64
		for _, p := range short {
			if (uint64(i)^p.v)&p.m == 0 {
				want |= p.bit
			}
		}
		if uint64(fc.tab[i]) != want {
			t.Fatalf("level %d: stride entry %#x = %b, reference %b", d, i, fc.tab[i], want)
		}
	}
}

// FuzzPruneCandidates checks every published candidate table against the
// reference triple loop (matchRef). Fuzz bytes install and remove entries
// whose masks are, per field, a prefix of a length clustered around the
// stride (0, 1, 3, 8, 9, 16, the full width, or any), or a scattered
// non-prefix; keys repeat one fuzz byte across the field, so a class
// collects values, turns dense past denseVals and empties again. After
// every publish the index must describe the writer (checkPruneIndex) and
// every field's match of random and near-entry headers must equal the
// reference's. The first byte picks the layout: HYP (one 3-bit field,
// narrower than the stride), IPv4TuplePort (ip_dst straddles two words) or
// IPv4Tuple.
func FuzzPruneCandidates(f *testing.F) {
	for s := int64(0); s < 6; s++ {
		seed := make([]byte, 700)
		rand.New(rand.NewSource(s)).Read(seed)
		seed[0] = byte(s)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := opBytes(data)
		l := []*bitvec.Layout{bitvec.HYP, bitvec.IPv4TuplePort, bitvec.IPv4Tuple}[in.next()%3]
		c := New(l, Options{DisableOverlapCheck: true})
		rng := rand.New(rand.NewSource(int64(in.next16())))
		var live []*Entry
		for op := 0; len(in) > 0 && op < 200; op++ {
			if sel := in.next(); sel%4 == 3 && len(live) > 0 {
				i := in.next() % len(live)
				deleteEntry(c, live[i].Key, live[i].Mask)
				live = slices.Delete(live, i, i+1)
			} else {
				key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
				for f := 0; f < l.NumFields(); f++ {
					w := l.Field(f).Width
					n, v := in.next(), in.next()
					for b := 0; b < w; b++ {
						if v>>(b%8)&1 == 1 {
							key.SetFieldBit(l, f, b)
						}
					}
					if n%8 == 7 {
						for b := 0; b < w; b++ {
							if rng.Intn(3) == 0 {
								mask.SetFieldBit(l, f, b)
							}
						}
						continue
					}
					plen := min([]int{0, 1, 3, 8, 9, 16, w, n / 8}[n%8], w)
					mask = mask.Or(bitvec.PrefixMask(l, f, plen))
				}
				e := &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}
				if err := c.Insert(e, 0); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			}
			sn := c.snap.Load()
			checkPruneIndex(t, c, sn)
			ref := refCands(c.prune)
			for i := 0; i < 16; i++ {
				h := bitvec.NewVec(l)
				if len(live) > 0 && i%2 == 0 {
					copy(h, live[rng.Intn(len(live))].Key)
					h.ClearBit(rng.Intn(l.Bits()))
				} else {
					for f := 0; f < l.NumFields(); f++ {
						h.SetField(l, f, rng.Uint64())
					}
				}
				for f := range ref {
					if got, want := sn.prune.cands[f].match(h), ref[f].matchRef(h); got != want {
						t.Fatalf("op %d: field %d candidates of %s = %b, reference %b", op, f, h.Format(l), got, want)
					}
				}
			}
		}
	})
}

// refWalk appends to gs, in tree order (depth first, classes ascending),
// every group under n whose class is in cand on every level: the recursive
// walk that walk replaced, kept as its reference.
func refWalk(v *pruneView, n *inode, d int, cand *[maxLevels]uint64, gs []*group) []*group {
	if n == nil {
		return gs
	}
	if d == len(v.levels)-1 {
		refs := n.loadRefs()
		for i := range refs {
			if cand[d]>>refs[i].cls()&1 != 0 {
				gs = append(gs, refs[i].group())
			}
		}
		return gs
	}
	for m := n.bits.Load() & cand[d]; m != 0; m &= m - 1 {
		gs = refWalk(v, n.kids[bits.TrailingZeros64(m)].Load(), d+1, cand, gs)
	}
	return gs
}

// TestWalkOrder checks that walk hands out exactly the candidate groups of
// the recursive reference, in the same order, so a pruned lookup's probe
// count on a hit is the one it always was. Trees of one level (HYP), three
// (the attack family) and six (random masks over every IPv4TuplePort field)
// are walked with header candidates and with random candidate bitmaps.
func TestWalkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name   string
		levels int
		build  func() *Classifier
	}{
		{"HYP", 1, func() *Classifier {
			c := New(bitvec.HYP, Options{})
			f := 0
			for v := uint64(0); v < 4; v++ {
				key := bitvec.NewVec(bitvec.HYP)
				key.SetField(bitvec.HYP, f, v<<1)
				mustInsertBatch(t, c, []*Entry{{Key: key, Mask: bitvec.PrefixMask(bitvec.HYP, f, 2), Action: flowtable.Drop}}, 0)
			}
			return c
		}},
		{"attack", 3, func() *Classifier {
			c := New(bitvec.IPv4Tuple, Options{DisableOverlapCheck: true})
			mustInsertBatch(t, c, attackEntries(bitvec.IPv4Tuple, 2048), 0)
			return c
		}},
		{"random", 6, func() *Classifier {
			l := bitvec.IPv4TuplePort
			c := New(l, Options{DisableOverlapCheck: true})
			for i := 0; i < 300; i++ {
				key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
				for f := 0; f < l.NumFields(); f++ {
					w := l.Field(f).Width
					mask = mask.Or(bitvec.PrefixMask(l, f, min([]int{0, 0, 1, 2, 8, 9, w}[rng.Intn(7)], w)))
					key.SetField(l, f, rng.Uint64())
				}
				if err := c.Insert(&Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}, 0); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}},
	} {
		name, c := tc.name, tc.build()
		sn := c.snap.Load()
		v := &sn.prune
		if len(v.levels) != tc.levels {
			t.Fatalf("%s: %d tree levels, want %d", name, len(v.levels), tc.levels)
		}
		for i := 0; i < 2000; i++ {
			var w walk
			if i%2 == 0 {
				h := bitvec.NewVec(c.layout)
				for f := 0; f < c.layout.NumFields(); f++ {
					h.SetField(c.layout, f, rng.Uint64()&(1<<rng.Intn(8)-1))
				}
				v.candidates(h, &w.cand)
			} else {
				for d := range w.cand {
					w.cand[d] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
			}
			want := refWalk(v, v.root, 0, &w.cand, nil)
			var got []*group
			for g := w.first(v, sn.epoch); g != nil; g = w.next() {
				got = append(got, g)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: walk visits %v, reference %v", name, got, want)
			}
		}
	}
}

// TestPruneDenseClass follows one (field, length) class through its life:
// up to denseVals distinct values it lists them, one more turns it dense,
// deletions keep it dense until it empties, and then it is gone. Lookups
// stay exact throughout, and the pruned lookup of a class member probes
// one group however many values the class holds.
func TestPruneDenseClass(t *testing.T) {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	proto, _ := l.FieldIndex("ip_proto")
	c := New(l, Options{})
	mask := bitvec.PrefixMask(l, sip, 32).Or(bitvec.FieldMask(l, proto))
	var es []*Entry
	for i := 0; i <= denseVals+2; i++ {
		key := bitvec.NewVec(l)
		key.SetField(l, sip, uint64(0x0a000000+i))
		key.SetField(l, proto, 6)
		es = append(es, &Entry{Key: key, Mask: mask, Action: flowtable.Drop})
	}
	other := &Entry{Key: bitvec.NewVec(l), Mask: bitvec.PrefixMask(l, sip, 8).Or(bitvec.FieldMask(l, proto)), Action: flowtable.Allow}
	mustInsertBatch(t, c, []*Entry{other}, 0)
	checkPruneIndex(t, c, c.snap.Load())
	d := 0 // ip_src is the first level
	for i, e := range es {
		mustInsertBatch(t, c, []*Entry{e}, 0)
		sn := c.snap.Load()
		checkPruneIndex(t, c, sn)
		if dense := sn.prune.cands[d].dense>>32&1 == 1; dense != (i >= denseVals) {
			t.Fatalf("after %d values: dense = %v", i+1, dense)
		}
	}
	for _, e := range es {
		got, probes, ok := c.Lookup(e.Key, 0)
		if !ok || got != e || probes != 1 {
			t.Fatalf("lookup of %s = (%v, %d probes)", e.Format(l), got, probes)
		}
	}
	for i, e := range es {
		if !deleteEntry(c, e.Key, e.Mask) {
			t.Fatal("delete failed")
		}
		sn := c.snap.Load()
		checkPruneIndex(t, c, sn)
		if dense := sn.prune.cands[d].dense>>32&1 == 1; dense != (i < len(es)-1) {
			t.Fatalf("after %d deletes: dense = %v", i+1, dense)
		}
	}
	if got, _, _ := c.Lookup(other.Key, 0); got != other {
		t.Fatal("surviving entry lost")
	}
}

// TestPrunedStraddlingField checks the pruned lookup against brute force
// on a layout whose fields straddle word boundaries (ip_dst spans words 0
// and 1 of IPv4TuplePort) and on masks that are not prefixes, which the
// index must never prune.
func TestPrunedStraddlingField(t *testing.T) {
	l := bitvec.IPv4TuplePort
	rng := rand.New(rand.NewSource(3))
	c := New(l, Options{})
	var es []*Entry
	for i := 0; i < 400; i++ {
		key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
		for f := 0; f < l.NumFields(); f++ {
			w := l.Field(f).Width
			plen := rng.Intn(w + 1)
			for b := 0; b < w; b++ {
				// One field in five is a scattered, non-prefix mask.
				if b < plen || rng.Intn(5) == 0 && rng.Intn(w) < 2 {
					mask.SetFieldBit(l, f, b)
					if rng.Intn(2) == 1 {
						key.SetFieldBit(l, f, b)
					}
				}
			}
		}
		e := &Entry{Key: key, Mask: mask, Action: flowtable.Drop}
		if c.Insert(e, 0) == nil {
			es = append(es, e)
		}
	}
	checkPruneIndex(t, c, c.snap.Load())
	headers := make([]bitvec.Vec, 0, 2000)
	for _, e := range es {
		h := e.Key.Clone()
		for b := 0; b < l.Bits(); b++ {
			if !e.Mask.Bit(b) && rng.Intn(2) == 1 {
				h.SetBit(b)
			}
		}
		headers = append(headers, h)
	}
	for i := 0; i < 1000; i++ {
		h := bitvec.NewVec(l)
		for f := 0; f < l.NumFields(); f++ {
			h.SetField(l, f, rng.Uint64())
		}
		headers = append(headers, h)
	}
	for _, h := range headers {
		got, _, _ := c.Lookup(h, 0)
		i := slices.IndexFunc(es, func(e *Entry) bool { return bitvec.Covers(e.Key, e.Mask, h) })
		if i < 0 && got != nil || i >= 0 && got != es[i] {
			t.Fatalf("lookup %s = %v, brute force index %d", h.Format(l), got, i)
		}
	}
}
