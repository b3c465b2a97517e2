package tss

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// checkPruneIndex fails t unless sn's pruning index describes the writer's
// groups (byMask, which sn was published from) exactly: every field some
// mask constrains is a tree level; the tree holds every group's id once,
// under the path of its mask's classes, with no empty node and every bitmap
// equal to what its node holds; the id table maps each id to its group and
// holds nothing else; and each field's candidate table lists, for every
// class its entries occupy, either exactly their values or the class as
// dense, and nothing for a class no entry occupies.
func checkPruneIndex(t *testing.T, c *Classifier, sn *snapshot) {
	t.Helper()
	x, v := c.prune, sn.prune
	want := map[*group]bool{}
	var levels uint64
	for _, f := range v.levels {
		levels |= 1 << f
	}
	type class struct {
		d int
		l uint8
	}
	vals := map[class]map[uint64]bool{}
	if len(c.byMask) != sn.masks {
		t.Fatalf("writer holds %d groups, snapshot %d masks", len(c.byMask), sn.masks)
	}
	for _, g := range c.byMask {
		want[g] = true
		cls := x.classes(g.mask)
		for f := range x.fields {
			if cls[f] != 0 && levels>>f&1 == 0 {
				t.Fatalf("group %s constrains field %d, not a tree level", g.mask.Format(c.layout), f)
			}
		}
		if v.groups.at(g.id) != g {
			t.Fatalf("id %d of group %s names another group", g.id, g.mask.Format(c.layout))
		}
		g.each(allEpochs, func(e *Entry) bool {
			for d, f := range x.fields {
				if cls[d] == 0 {
					continue
				}
				k := class{d, cls[d]}
				if vals[k] == nil {
					vals[k] = map[uint64]bool{}
				}
				vals[k][f.get(e.Key)] = true
			}
			return true
		})
	}

	held := 0
	for _, ch := range v.groups {
		for _, g := range ch {
			if g != nil {
				held++
			}
		}
	}
	if held != sn.masks {
		t.Fatalf("id table holds %d groups, snapshot %d", held, sn.masks)
	}

	seen := 0
	var walk func(n *inode, d int, path [maxLevels]uint8)
	walk = func(n *inode, d int, path [maxLevels]uint8) {
		if d == len(v.levels)-1 {
			var union uint64
			if len(n.refs) == 0 {
				t.Fatal("empty last-level node")
			}
			for _, r := range n.refs {
				path[d] = r.cls
				union |= 1 << r.cls
				g := v.groups.at(r.id)
				if !want[g] {
					t.Fatalf("tree holds id %d, no group of the snapshot", r.id)
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
			if union != n.bits {
				t.Fatalf("last-level bits %b, refs' classes %b", n.bits, union)
			}
			return
		}
		if n == nil || n.bits == 0 || len(n.kids) != bits.OnesCount64(n.bits) {
			t.Fatalf("inner node: bits %b, %d kids", n.bits, len(n.kids))
		}
		k := 0
		for m := n.bits; m != 0; m &= m - 1 {
			path[d] = uint8(bits.TrailingZeros64(m))
			walk(n.kids[k], d+1, path)
			k++
		}
	}
	if v.root != nil {
		walk(v.root, 0, [maxLevels]uint8{})
	}
	if len(want) != 0 || seen != sn.masks {
		t.Fatalf("tree holds %d groups, %d of the snapshot's %d missing", seen, len(want), sn.masks)
	}

	for d := range x.fields {
		fc := v.cands[d]
		if fc.dense&1 == 0 {
			t.Fatalf("level %d: class 0 is not a candidate", d)
		}
		listed := map[class]map[uint64]bool{}
		for _, p := range fc.vals {
			l := uint8(bits.TrailingZeros64(p.bit))
			if p.bit != 1<<l || p.m != prefixMask(l) {
				t.Fatalf("level %d: value %x lists class bit %x, mask %x", d, p.v, p.bit, p.m)
			}
			k := class{d, l}
			if listed[k] == nil {
				listed[k] = map[uint64]bool{}
			}
			listed[k][p.v] = true
		}
		for l := uint8(1); l < 64; l++ {
			k := class{d, l}
			dense := fc.dense>>l&1 == 1
			switch {
			case vals[k] == nil && (dense || listed[k] != nil):
				t.Fatalf("level %d: empty class %d still listed", d, l)
			case vals[k] != nil && dense && listed[k] != nil:
				t.Fatalf("level %d: dense class %d lists values", d, l)
			case vals[k] != nil && !dense && len(listed[k]) != len(vals[k]):
				t.Fatalf("level %d class %d: %d values listed, entries hold %d", d, l, len(listed[k]), len(vals[k]))
			case vals[k] != nil && !dense:
				for v := range vals[k] {
					if !listed[k][v] {
						t.Fatalf("level %d class %d: value %x missing", d, l, v)
					}
				}
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
		if !c.Delete(e.Key, e.Mask) {
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
