package tss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// model is a naive reference implementation of the classifier: a flat
// slice of disjoint entries with linear operations.
type model struct {
	entries []*Entry
}

func (m *model) lookup(h bitvec.Vec) *Entry {
	for _, e := range m.entries {
		if bitvec.Covers(e.Key, e.Mask, h) {
			return e
		}
	}
	return nil
}

func (m *model) insert(e *Entry) bool {
	for _, ex := range m.entries {
		if ex.Key.Equal(e.Key) && ex.Mask.Equal(e.Mask) {
			ex.Action = e.Action
			return true // refresh
		}
	}
	for _, ex := range m.entries {
		if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
			return false
		}
	}
	m.entries = append(m.entries, e)
	return true
}

func (m *model) delete(key, mask bitvec.Vec) bool {
	for i, ex := range m.entries {
		if ex.Key.Equal(key) && ex.Mask.Equal(mask) {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return true
		}
	}
	return false
}

// TestModelBasedRandomOps drives random insert/delete/lookup/expire
// sequences through the classifier and the reference model in lockstep.
func TestModelBasedRandomOps(t *testing.T) {
	l := bitvec.HYP2
	for _, order := range []MaskOrder{OrderHash, OrderInsertion} {
		rng := rand.New(rand.NewSource(int64(order)*7 + 1))
		c := New(l, Options{Order: order})
		m := &model{}
		randomEntry := func() *Entry {
			key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
			for b := 0; b < l.Bits(); b++ {
				if rng.Intn(3) > 0 {
					mask.SetBit(b)
					if rng.Intn(2) == 1 {
						key.SetBit(b)
					}
				}
			}
			return &Entry{Key: key, Mask: mask, Action: flowtable.Action(rng.Intn(2))}
		}
		randomHeader := func() bitvec.Vec {
			h := bitvec.NewVec(l)
			h.SetField(l, 0, uint64(rng.Intn(8)))
			h.SetField(l, 1, uint64(rng.Intn(16)))
			return h
		}
		for op := 0; op < 4000; op++ {
			switch rng.Intn(4) {
			case 0: // insert
				e := randomEntry()
				e2 := &Entry{Key: e.Key.Clone(), Mask: e.Mask.Clone(), Action: e.Action}
				errC := c.Insert(e, int64(op))
				okM := m.insert(e2)
				if (errC == nil) != okM {
					t.Fatalf("op %d: insert disagreement: classifier err=%v model ok=%v",
						op, errC, okM)
				}
			case 1: // delete
				var key, mask bitvec.Vec
				if len(m.entries) > 0 && rng.Intn(2) == 0 {
					victim := m.entries[rng.Intn(len(m.entries))]
					key, mask = victim.Key.Clone(), victim.Mask.Clone()
				} else {
					e := randomEntry()
					key, mask = e.Key, e.Mask
				}
				if got, want := c.Delete(key, mask), m.delete(key, mask); got != want {
					t.Fatalf("op %d: delete disagreement: %v vs %v", op, got, want)
				}
			case 2, 3: // lookup
				h := randomHeader()
				eC, _, okC := c.Lookup(h, int64(op))
				eM := m.lookup(h)
				if okC != (eM != nil) {
					t.Fatalf("op %d: lookup hit disagreement for %s", op, h.Format(l))
				}
				if okC && (eC.Action != eM.Action || !eC.Key.Equal(eM.Key) || !eC.Mask.Equal(eM.Mask)) {
					t.Fatalf("op %d: lookup result disagreement", op)
				}
			}
			if c.EntryCount() != len(m.entries) {
				t.Fatalf("op %d: entry count %d vs model %d", op, c.EntryCount(), len(m.entries))
			}
		}
	}
}

// TestInsertDeleteRoundTripQuick: inserting then deleting a random valid
// entry leaves the classifier where it started.
func TestInsertDeleteRoundTripQuick(t *testing.T) {
	l := bitvec.IPv4Tuple
	f := func(kw, mw [2]uint64) bool {
		c := New(l, Options{})
		mask := bitvec.NewVec(l)
		copy(mask, mw[:])
		for b := l.Bits(); b < len(mask)*64; b++ {
			mask.ClearBit(b)
		}
		key := bitvec.NewVec(l)
		copy(key, kw[:])
		key = key.And(mask)
		e := &Entry{Key: key, Mask: mask, Action: flowtable.Allow}
		if err := c.Insert(e, 0); err != nil {
			return false
		}
		if c.EntryCount() != 1 || c.MaskCount() != 1 {
			return false
		}
		if !c.Delete(key, mask) {
			return false
		}
		return c.EntryCount() == 0 && c.MaskCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLookupNeverFalseHitQuick: a lookup hit's entry always covers the
// header (no hash-collision false positives).
func TestLookupNeverFalseHitQuick(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 64)
	f := func(hw [2]uint64) bool {
		h := bitvec.NewVec(l)
		copy(h, hw[:])
		for b := l.Bits(); b < len(h)*64; b++ {
			h.ClearBit(b)
		}
		e, _, ok := c.Lookup(h, 0)
		if !ok {
			return true
		}
		return bitvec.Covers(e.Key, e.Mask, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
