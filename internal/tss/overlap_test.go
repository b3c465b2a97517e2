package tss

import (
	"errors"
	"fmt"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// firstOverlap is the brute-force overlap check: the first entry, in
// Entries' OrderHash group order, whose match region intersects e's.
func firstOverlap(c *Classifier, e *Entry) *Entry {
	for _, ex := range c.Entries() {
		if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
			return ex
		}
	}
	return nil
}

// checkOverlapExact inserts e and asserts the classifier's verdict is the
// brute-force one: rejected iff some installed entry overlaps e, and then
// with an Existing that overlaps e and sits in the first overlapping mask
// group in OrderHash order (which entry of a multi-entry group is reported
// depends on slot order). A rejected insert must leave the cache as it was.
func checkOverlapExact(t *testing.T, c *Classifier, e *Entry) error {
	t.Helper()
	want := firstOverlap(c, e)
	masks, entries := c.MaskCount(), c.EntryCount()
	err := c.Insert(e, 0)
	var ov *ErrOverlap
	switch {
	case want == nil && err != nil:
		t.Fatalf("insert %s rejected (%v), brute force finds no overlap", e.Format(c.Layout()), err)
	case want != nil && !errors.As(err, &ov):
		t.Fatalf("insert %s returned %v, brute force finds overlap with %s",
			e.Format(c.Layout()), err, want.Format(c.Layout()))
	case want != nil:
		if !bitvec.Overlap(e.Key, e.Mask, ov.Existing.Key, ov.Existing.Mask) {
			t.Fatalf("reported Existing %s does not overlap %s", ov.Existing.Format(c.Layout()), e.Format(c.Layout()))
		}
		if !ov.Existing.Mask.Equal(want.Mask) {
			t.Fatalf("reported Existing under mask %s, first overlapping group in OrderHash order is %s",
				ov.Existing.Mask.Format(c.Layout()), want.Mask.Format(c.Layout()))
		}
		if c.MaskCount() != masks || c.EntryCount() != entries {
			t.Fatal("rejected insert changed the cache")
		}
	}
	return err
}

// TestOverlapCheckExact pins the insert-time independence check (Inv(2))
// to the brute-force answer on each shape the streamed check treats
// differently: one-entry groups whose inlined first mask word agrees or
// disagrees with the new entry, masks too wide to inline (sparseOK false),
// multi-entry groups whose mask is or is not a subset of the new entry's,
// and overlaps at every scan position of a population spanning several
// probe-mirror chunks.
func TestOverlapCheckExact(t *testing.T) {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	dp, _ := l.FieldIndex("tp_dst")
	mk := func(srcLen int, src uint64, dpLen int, dport uint64) *Entry {
		mask := bitvec.PrefixMask(l, sip, srcLen).Or(bitvec.PrefixMask(l, dp, dpLen))
		key := bitvec.NewVec(l)
		key.SetField(l, sip, src)
		key.SetField(l, dp, dport)
		return &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}
	}
	wide := bitvec.MustLayout(
		bitvec.Field{Name: "w0", Width: 64}, bitvec.Field{Name: "w1", Width: 64},
		bitvec.Field{Name: "w2", Width: 64}, bitvec.Field{Name: "w3", Width: 64},
		bitvec.Field{Name: "w4", Width: 64}, bitvec.Field{Name: "w5", Width: 64},
		bitvec.Field{Name: "w6", Width: 64}, bitvec.Field{Name: "w7", Width: 64})
	// Eight nonzero mask words: more than a SparseMask inlines.
	mkWide := func(mask0, mask7, key7 uint64) *Entry {
		mask, key := bitvec.NewVec(wide), bitvec.NewVec(wide)
		for w := range mask {
			mask[w] = 0xff
		}
		mask[0], mask[7] = mask0, mask7
		key[7] = key7 & mask7
		return &Entry{Key: key, Mask: mask, Action: flowtable.Drop}
	}
	if _, ok := bitvec.NewSparseMask(mkWide(0xff, 0xff, 0).Mask); ok {
		t.Fatal("wide layout's masks fit inline; the non-inline cases test nothing")
	}

	cases := []struct {
		name     string
		layout   *bitvec.Layout
		existing []*Entry
		e        *Entry
		overlap  bool
	}{
		{"one-entry group, first word agrees, later word disagrees", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80)}, mk(16, 0x0a010000, 16, 443), false},
		{"one-entry group, every word agrees", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80)}, mk(16, 0x0a010000, 16, 80), true},
		{"one-entry group, first word disagrees", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80)}, mk(16, 0x0b010000, 16, 80), false},
		{"one-entry group, new mask leaves the first word free", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80)}, mk(0, 0, 16, 80), true},
		{"non-inline one-entry group, disagrees in the last word", wide,
			[]*Entry{mkWide(0xff, 0xff, 1)}, mkWide(0x1ff, 0x0f, 2), false},
		{"non-inline one-entry group, agrees in every word", wide,
			[]*Entry{mkWide(0xff, 0xff, 1)}, mkWide(0x1ff, 0x0f, 1), true},
		{"non-inline multi-entry group, mask a subset, no overlap", wide,
			[]*Entry{mkWide(0xff, 0xff, 1), mkWide(0xff, 0xff, 2)}, mkWide(0x1ff, 0xff, 3), false},
		{"non-inline multi-entry group, mask not a subset, overlap", wide,
			[]*Entry{mkWide(0xff, 0xff, 1), mkWide(0xff, 0xff, 2)}, mkWide(0x1ff, 0x0f, 2), true},
		{"multi-entry group, mask not a subset, overlap", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80), mk(8, 0x0b000000, 16, 80), mk(8, 0x0c000000, 16, 80)},
			mk(16, 0x0b070000, 0, 0), true},
		{"multi-entry group, mask not a subset, no overlap", l,
			[]*Entry{mk(8, 0x0a000000, 16, 80), mk(8, 0x0b000000, 16, 80), mk(8, 0x0c000000, 16, 80)},
			mk(16, 0x0d070000, 0, 0), false},
		{"multi-entry group, mask a subset, overlap", l,
			[]*Entry{mk(8, 0x0a000000, 0, 0), mk(8, 0x0b000000, 0, 0)}, mk(16, 0x0b070000, 16, 22), true},
		{"multi-entry group, mask a subset, no overlap", l,
			[]*Entry{mk(8, 0x0a000000, 0, 0), mk(8, 0x0b000000, 0, 0)}, mk(16, 0x0e070000, 16, 22), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.layout, Options{})
			mustInsertBatch(t, c, tc.existing, 0)
			if err := checkOverlapExact(t, c, tc.e); (err != nil) != tc.overlap {
				t.Errorf("overlap = %v, want %v", err != nil, tc.overlap)
			}
		})
	}

	// Every scan position of a multi-chunk population, chunk boundaries
	// included: an entry more specific than the group's sole entry (same
	// key, one more ip_dst bit) overlaps exactly that entry; the same entry
	// with its last tp_dst key bit flipped agrees on the inlined first word
	// and overlaps a neighbour or nothing.
	t.Run("every scan position of 600 masks", func(t *testing.T) {
		c := New(l, Options{})
		mustInsertBatch(t, c, attackEntries(l, 600), 0)
		for pos, ex := range c.Entries() {
			inner := &Entry{Key: ex.Key.Clone(), Mask: ex.Mask.Or(bitvec.PrefixMask(l, dip, 1)), Action: flowtable.Allow}
			if err := checkOverlapExact(t, c, inner); err == nil {
				t.Fatalf("position %d: entry inside %s accepted", pos, ex.Format(l))
			}
			flipped := &Entry{Key: inner.Key.Clone(), Mask: inner.Mask, Action: flowtable.Allow}
			last := -1
			for b := 0; b < l.Bits(); b++ {
				if flipped.Mask.Bit(b) && b >= l.FieldOffset(dp) {
					last = b
				}
			}
			if flipped.Key.Bit(last) {
				flipped.Key.ClearBit(last)
			} else {
				flipped.Key.SetBit(last)
			}
			if checkOverlapExact(t, c, flipped) == nil { // accepted: take it out again
				if !deleteEntry(c, flipped.Key, flipped.Mask) {
					t.Fatalf("position %d: accepted entry not deletable", pos)
				}
			}
		}
	})
}

// TestOverlapCheckFindsFirstInScanOrder: when several groups overlap the
// new entry, Existing comes from the earliest in OrderHash scan order,
// under every order and under the pruned and the linear scan.
func TestOverlapCheckFindsFirstInScanOrder(t *testing.T) {
	l := bitvec.IPv4Tuple
	dip, _ := l.FieldIndex("ip_dst")
	for _, order := range []MaskOrder{OrderHash, OrderInsertion} {
		for _, linear := range []bool{false, true} {
			t.Run(fmt.Sprintf("order=%d/linear=%v", order, linear), func(t *testing.T) {
				scan := ScanPruned
				if linear {
					scan = ScanLinear
				}
				c := New(l, Options{Order: order, Scan: scan})
				mustInsertBatch(t, c, attackEntries(l, 300), 0)
				// A wildcard-heavy entry overlapping many groups: the ip_dst
				// bit keeps it a new mask, nothing else is constrained.
				e := &Entry{Key: bitvec.NewVec(l), Mask: bitvec.PrefixMask(l, dip, 1), Action: flowtable.Allow}
				if err := checkOverlapExact(t, c, e); err == nil {
					t.Fatal("wildcard entry accepted over the attack population")
				}
			})
		}
	}
}
