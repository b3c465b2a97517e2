package tss

import (
	"slices"
	"sort"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// refMask is one distinct mask of the reference model with its live entry
// count and the OrderHash sort key.
type refMask struct {
	mask bitvec.Vec
	key  string
	hash uint64
	n    int
}

// refClassifier is the brute-force classifier FuzzClassifierOps checks
// against: a flat list of disjoint entries, linear bitvec.Covers lookup,
// linear bitvec.Overlap insert check, and the scan order recomputed from
// the mask list (creation order, or sorted by (hash, mask key) for
// OrderHash). It shares *Entry pointers with the classifier under test, so
// verdicts compare by identity.
type refClassifier struct {
	order   MaskOrder
	entries []*Entry
	masks   []*refMask          // creation order
	byKey   map[string]*refMask // masks by mask key
	pos     map[string]int      // 1-based scan position by mask key; nil = recompute
}

func (r *refClassifier) index(key, mask bitvec.Vec) int {
	for i, e := range r.entries {
		if e.Key.Equal(key) && e.Mask.Equal(mask) {
			return i
		}
	}
	return -1
}

func (r *refClassifier) add(e *Entry) {
	r.entries = append(r.entries, e)
	mk := e.Mask.Key()
	if m := r.byKey[mk]; m != nil {
		m.n++
		return
	}
	m := &refMask{mask: e.Mask, key: mk, hash: e.Mask.Hash(), n: 1}
	r.masks = append(r.masks, m)
	r.byKey[mk] = m
	r.pos = nil
}

// insert mirrors Classifier.Insert's acceptance: refresh an equal
// (key, mask), reject an overlap, else add.
func (r *refClassifier) insert(e *Entry) bool {
	if i := r.index(e.Key, e.Mask); i >= 0 {
		r.entries[i] = e
		return true
	}
	for _, ex := range r.entries {
		if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
			return false
		}
	}
	r.add(e)
	return true
}

func (r *refClassifier) removeAt(i int) {
	mk := r.entries[i].Mask.Key()
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	m := r.byKey[mk]
	if m.n--; m.n == 0 {
		r.masks = slices.DeleteFunc(r.masks, func(x *refMask) bool { return x == m })
		delete(r.byKey, mk)
		r.pos = nil
	}
}

func (r *refClassifier) deleteWhere(pred func(*Entry) bool) int {
	n := 0
	for i := 0; i < len(r.entries); {
		if pred(r.entries[i]) {
			r.removeAt(i)
			n++
		} else {
			i++
		}
	}
	return n
}

// lookup returns the covering entry and the probe count TSS must report:
// the 1-based scan position of its mask, or |M| on a miss.
func (r *refClassifier) lookup(h bitvec.Vec) (*Entry, int) {
	if r.pos == nil {
		scan := slices.Clone(r.masks)
		if r.order == OrderHash {
			sort.Slice(scan, func(i, j int) bool {
				if scan[i].hash != scan[j].hash {
					return scan[i].hash < scan[j].hash
				}
				return scan[i].key < scan[j].key
			})
		}
		r.pos = make(map[string]int, len(scan))
		for i, m := range scan {
			r.pos[m.key] = i + 1
		}
	}
	for _, e := range r.entries {
		if bitvec.Covers(e.Key, e.Mask, h) {
			return e, r.pos[e.Mask.Key()]
		}
	}
	return nil, len(r.masks)
}

// opBytes hands out fuzz input a byte at a time (zeros once exhausted).
type opBytes []byte

func (b *opBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func (b *opBytes) next16() int { return b.next()<<8 | b.next() }

// frozenView is a snapshot loaded before a write sequence and what it
// answered then; after the writes it must answer the same.
type frozenView struct {
	sn   *snapshot
	hs   []bitvec.Vec
	want []BatchResult
}

var (
	fuzzAttack = attackEntries(bitvec.IPv4Tuple, 32*16*16)
	fuzzExact  = exactEntries(bitvec.IPv4Tuple, 1000)
)

// fresh copies a template entry: the classifier keeps the pointer it is
// given and refreshes swap pointers, so every install needs its own.
func fresh(e *Entry, a flowtable.Action) *Entry {
	return &Entry{Key: e.Key, Mask: e.Mask, Action: a, RuleName: e.RuleName}
}

// FuzzClassifierOps is the differential fuzz target for every classifier
// write path: random sequences of insert, refresh, delete, DeleteWhere and
// lookup run against refClassifier, asserting equal insert acceptance,
// equal verdicts by entry identity, equal mask and entry counts, equal
// probe counts under a linear scan, and snapshot isolation — a snapshot
// loaded before a run of writes answers exactly as it did, so
// copy-on-write never mutates anything a reader can still see. The first
// byte picks the scan, pruned or linear (bit 3), and the order (bit 0). Every
// lookup is also checked against its group-by-group reference over the
// same snapshot (checkScan), so a probe record that drifts from its group
// fails here, and after every write the pruning index must describe the
// snapshot exactly (checkPruneIndex). The base population (260–459 attack
// masks plus a 50–249-entry exact-match group, or an 800–999-entry one
// whose slot table has a two-level directory when bit 2 of the first byte
// is set) spans several probe-mirror chunks, group slot pages and
// directory leaves, so splits, page and leaf copies and compaction across
// those boundaries are all on the path.
func FuzzClassifierOps(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 200, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{2, 7, 9, 3, 2, 5, 4, 0, 0, 1, 9, 5, 17, 2, 3, 0, 4, 1, 1})
	f.Add([]byte{8, 200, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{13, 7, 9, 3, 2, 5, 4, 0, 0, 1, 9, 5, 17, 2, 3, 0, 4, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := bitvec.IPv4Tuple
		in := opBytes(data)
		cfg := in.next()
		ref := &refClassifier{order: OrderHash, byKey: map[string]*refMask{}}
		if cfg&1 == 1 {
			ref.order = OrderInsertion
		}
		scan := ScanPruned
		if cfg&8 != 0 {
			scan = ScanLinear
		}
		c := New(l, Options{Order: ref.order, Scan: scan})
		hd := c.NewHandle()
		var base []*Entry
		for _, e := range fuzzAttack[:260+in.next()%200] {
			base = append(base, fresh(e, flowtable.Drop))
		}
		exact := 50 + in.next()%200
		if cfg&4 != 0 {
			exact += 750
		}
		for _, e := range fuzzExact[:exact] {
			base = append(base, fresh(e, flowtable.Allow))
		}
		mustInsertBatch(t, c, base, 0)
		for _, e := range base {
			ref.add(e)
		}

		// header builds a lookup key: an installed entry's key (a hit),
		// optionally with one bit flipped (a near miss), or fuzz words.
		header := func() bitvec.Vec {
			h := bitvec.NewVec(l)
			switch sel := in.next(); {
			case sel%4 == 3 || len(ref.entries) == 0:
				h[0] = uint64(in.next16())<<48 | uint64(in.next16())
				h[1] = uint64(in.next16()) << 24
				for b := l.Bits(); b < len(h)*64; b++ {
					h.ClearBit(b)
				}
			default:
				copy(h, ref.entries[in.next16()%len(ref.entries)].Key)
				if sel%4 == 1 {
					b := in.next() % l.Bits()
					if h.Bit(b) {
						h.ClearBit(b)
					} else {
						h.SetBit(b)
					}
				}
			}
			return h
		}
		// entry picks an install: an attack or exact template, or an entry
		// of fuzz-chosen prefix lengths and key bits (often overlapping).
		entry := func() *Entry {
			a := flowtable.Action(in.next() % 2)
			switch in.next() % 3 {
			case 0:
				return fresh(fuzzAttack[in.next16()%len(fuzzAttack)], a)
			case 1:
				return fresh(fuzzExact[in.next()%len(fuzzExact)], a)
			}
			mask := bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				mask = mask.Or(bitvec.PrefixMask(l, f, in.next()%(l.Field(f).Width+1)))
			}
			key := bitvec.NewVec(l)
			key[0] = uint64(in.next16())<<48 | uint64(in.next16())<<16
			key[1] = uint64(in.next16()) << 24
			return &Entry{Key: key.And(mask), Mask: mask, Action: a, RuleName: "fuzz"}
		}
		// lookup scans sn and checks the answer against the group-by-group
		// reference scan.
		lookup := func(sn *snapshot, h bitvec.Vec, now int64) BatchResult {
			e, probes, skips, ok := hd.lookupSnap(sn, h, now)
			checkScan(t, c, sn, h, e, probes, skips)
			return BatchResult{Entry: e, Probes: probes, OK: ok}
		}
		freeze := func() *frozenView {
			v := &frozenView{sn: c.snap.Load()}
			for i := 0; i < 12; i++ {
				h := header()
				v.hs = append(v.hs, h)
				v.want = append(v.want, lookup(v.sn, h, 0))
			}
			return v
		}
		thawCheck := func(v *frozenView) {
			for i, h := range v.hs {
				if got := lookup(v.sn, h, 0); got != v.want[i] {
					t.Fatalf("snapshot answered %+v after writes, %+v before", got, v.want[i])
				}
			}
		}

		view := freeze()
		for op := 1; len(in) > 0 && op <= 400; op++ {
			now := int64(op)
			kind := in.next() % 8
			switch kind {
			case 0, 1: // insert
				e := entry()
				err := c.Insert(e, now)
				if ok := ref.insert(e); ok != (err == nil) {
					t.Fatalf("op %d: insert %s: classifier err=%v, reference accepts=%v", op, e.Format(l), err, ok)
				}
			case 2: // refresh an installed entry with a new action
				if len(ref.entries) == 0 {
					continue
				}
				old := ref.entries[in.next16()%len(ref.entries)]
				e := fresh(old, 1-old.Action)
				if err := c.Insert(e, now); err != nil || !ref.insert(e) {
					t.Fatalf("op %d: refresh %s failed: %v", op, e.Format(l), err)
				}
			case 3: // delete an installed entry, or a template that may not be
				var key, mask bitvec.Vec
				if len(ref.entries) > 0 && in.next()%4 != 0 {
					e := ref.entries[in.next16()%len(ref.entries)]
					key, mask = e.Key, e.Mask
				} else {
					e := entry()
					key, mask = e.Key, e.Mask
				}
				i := ref.index(key, mask)
				if got := c.Delete(key, mask); got != (i >= 0) {
					t.Fatalf("op %d: delete = %v, reference holds it: %v", op, got, i >= 0)
				}
				if i >= 0 {
					ref.removeAt(i)
				}
			case 4: // sweep: delete a fuzz-chosen hash class
				mod := uint64(2 + in.next()%13)
				rem := uint64(in.next()) % mod
				pred := func(e *Entry) bool { return keyHash(e.Key)%mod == rem }
				if got, want := c.DeleteWhere(pred), ref.deleteWhere(pred); got != want {
					t.Fatalf("op %d: DeleteWhere removed %d, reference %d", op, got, want)
				}
			case 5: // the snapshot taken before the last writes still answers the same
				thawCheck(view)
				view = freeze()
			default: // lookup
				h := header()
				sn := c.snap.Load()
				got := lookup(sn, h, now)
				want, wantProbes := ref.lookup(h)
				// A pruned lookup's probes are checkScan's to check.
				if got.Entry != want || got.OK != (want != nil) || !sn.pruned(scan) && got.Probes != wantProbes {
					t.Fatalf("op %d: lookup %s = (%v, %d probes), reference (%v, %d probes)",
						op, h.Format(l), got.Entry, got.Probes, want, wantProbes)
				}
			}
			if c.EntryCount() != len(ref.entries) || c.MaskCount() != len(ref.masks) {
				t.Fatalf("op %d: classifier %d entries / %d masks, reference %d / %d",
					op, c.EntryCount(), c.MaskCount(), len(ref.entries), len(ref.masks))
			}
			if kind <= 4 { // a write
				checkPruneIndex(t, c, c.snap.Load())
			}
		}
		thawCheck(view)
		// Every installed entry answers its own key, at its scan position
		// when the lookup is linear.
		for _, e := range ref.entries {
			sn := c.snap.Load()
			got := lookup(sn, e.Key, 0)
			_, wantProbes := ref.lookup(e.Key)
			if got.Entry != e || !sn.pruned(scan) && got.Probes != wantProbes {
				t.Fatalf("entry %s: lookup of its key = (%v, %d probes), want itself at %d",
					e.Format(l), got.Entry, got.Probes, wantProbes)
			}
		}
	})
}
