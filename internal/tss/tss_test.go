package tss

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

func entry(l *bitvec.Layout, pat string, a flowtable.Action) *Entry {
	k, m := bitvec.MustPattern(l, pat)
	return &Entry{Key: k, Mask: m, Action: a}
}

func hyp(val uint64) bitvec.Vec {
	h := bitvec.NewVec(bitvec.HYP)
	h.SetField(bitvec.HYP, 0, val)
	return h
}

// loadFig3 installs the paper's Fig. 3 wildcarding MFC:
// 001->allow, 1**->deny, 01*->deny, 000->deny (4 entries, 3 masks).
func loadFig3(t *testing.T, c *Classifier) {
	t.Helper()
	for i, pat := range []string{"001", "1**", "01*", "000"} {
		a := flowtable.Drop
		if i == 0 {
			a = flowtable.Allow
		}
		if err := c.Insert(entry(bitvec.HYP, pat, a), 0); err != nil {
			t.Fatalf("insert %s: %v", pat, err)
		}
	}
}

func TestFig3Construction(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	if got := c.MaskCount(); got != 3 {
		t.Errorf("masks = %d, want 3 (Fig. 3)", got)
	}
	if got := c.EntryCount(); got != 4 {
		t.Errorf("entries = %d, want 4 (Fig. 3)", got)
	}
	// Classification agrees with the Fig. 1 flow table on all 8 headers.
	tbl := flowtable.Fig1()
	for v := uint64(0); v < 8; v++ {
		e, _, ok := c.Lookup(hyp(v), 0)
		if !ok {
			t.Fatalf("header %03b missed; MFC incomplete", v)
		}
		if want := tbl.Lookup(hyp(v)).Action; e.Action != want {
			t.Errorf("header %03b -> %v, want %v", v, e.Action, want)
		}
	}
}

func TestFig2ExactMatchConstruction(t *testing.T) {
	// Fig. 2: the exact-match strategy fills all 8 keys under one mask.
	c := New(bitvec.HYP, Options{})
	for v := uint64(0); v < 8; v++ {
		a := flowtable.Drop
		if v == 1 {
			a = flowtable.Allow
		}
		e := &Entry{Key: hyp(v), Mask: bitvec.FullMask(bitvec.HYP), Action: a}
		if err := c.Insert(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.MaskCount() != 1 {
		t.Errorf("masks = %d, want 1 (Fig. 2: single exact-match mask)", c.MaskCount())
	}
	if c.EntryCount() != 8 {
		t.Errorf("entries = %d, want 8 (Fig. 2: exponential space)", c.EntryCount())
	}
	// With one mask every lookup takes exactly one probe: optimal time.
	_, probes, ok := c.Lookup(hyp(6), 0)
	if !ok || probes != 1 {
		t.Errorf("lookup probes = %d (hit=%v), want 1 probe hit", probes, ok)
	}
}

func TestLookupEarlyExit(t *testing.T) {
	// With disjoint entries the first hit is the only hit, so probes on a
	// hit are at most the mask count, and a miss probes every mask.
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	_, probes, ok := c.Lookup(hyp(1), 0)
	if !ok {
		t.Fatal("001 must hit")
	}
	if probes < 1 || probes > 3 {
		t.Errorf("hit probes = %d, want 1..3", probes)
	}
	// A full miss of the linear scan costs |M| probes. (Empty a fresh
	// classifier of the covering entries so a miss is possible: use a
	// single entry.)
	c2 := New(bitvec.HYP, Options{Scan: ScanLinear})
	if err := c2.Insert(entry(bitvec.HYP, "001", flowtable.Allow), 0); err != nil {
		t.Fatal(err)
	}
	if err := c2.Insert(entry(bitvec.HYP, "111", flowtable.Drop), 0); err != nil {
		t.Fatal(err)
	}
	_, probes, ok = c2.Lookup(hyp(2), 0)
	if ok {
		t.Fatal("010 must miss")
	}
	if probes != c2.MaskCount() {
		t.Errorf("miss probes = %d, want |M| = %d", probes, c2.MaskCount())
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	// §4.1: installing the Fig. 1 flow table as-is violates Inv(2).
	c := New(bitvec.HYP, Options{})
	if err := c.Insert(entry(bitvec.HYP, "001", flowtable.Allow), 0); err != nil {
		t.Fatal(err)
	}
	err := c.Insert(entry(bitvec.HYP, "***", flowtable.Drop), 0)
	var ov *ErrOverlap
	if !errors.As(err, &ov) {
		t.Fatalf("overlapping insert returned %v, want ErrOverlap", err)
	}
	if ov.Existing == nil || ov.Existing.Action != flowtable.Allow {
		t.Error("ErrOverlap should report the conflicting entry")
	}
	if c.EntryCount() != 1 || c.MaskCount() != 1 {
		t.Error("failed insert must not change the cache")
	}
}

func TestInsertOverlapSameGroupFastPath(t *testing.T) {
	// Overlap where the existing group's mask is a subset of the new
	// entry's mask exercises the single-probe detection path.
	l := bitvec.HYP
	c := New(l, Options{})
	if err := c.Insert(entry(l, "1**", flowtable.Drop), 0); err != nil {
		t.Fatal(err)
	}
	err := c.Insert(entry(l, "111", flowtable.Drop), 0)
	var ov *ErrOverlap
	if !errors.As(err, &ov) {
		t.Fatalf("want ErrOverlap, got %v", err)
	}
}

func TestInsertIdempotentRefresh(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	if err := c.Insert(entry(bitvec.HYP, "001", flowtable.Allow), 5); err != nil {
		t.Fatal(err)
	}
	// Same key/mask, new action: refresh in place.
	e2 := entry(bitvec.HYP, "001", flowtable.Drop)
	if err := c.Insert(e2, 9); err != nil {
		t.Fatalf("idempotent reinstall failed: %v", err)
	}
	if c.EntryCount() != 1 {
		t.Errorf("entries = %d after refresh, want 1", c.EntryCount())
	}
	got, _, _ := c.Lookup(hyp(1), 9)
	if got.Action != flowtable.Drop {
		t.Error("refresh did not update the action")
	}
}

func TestInsertValidation(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	key, _ := bitvec.MustPattern(bitvec.HYP, "111")
	bad := &Entry{Key: key, Mask: bitvec.NewVec(bitvec.HYP)}
	if err := c.Insert(bad, 0); err == nil {
		t.Error("non-canonical key accepted")
	}
	tooLong := &Entry{Key: make(bitvec.Vec, 4), Mask: make(bitvec.Vec, 4)}
	if err := c.Insert(tooLong, 0); err == nil {
		t.Error("wrong-length entry accepted")
	}
}

func TestDelete(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	k, m := bitvec.MustPattern(bitvec.HYP, "1**")
	if !c.Delete(k, m) {
		t.Fatal("delete of existing entry failed")
	}
	if c.Delete(k, m) {
		t.Error("double delete succeeded")
	}
	if c.MaskCount() != 2 {
		t.Errorf("masks = %d after deleting sole entry of mask 100, want 2", c.MaskCount())
	}
	// Header 100 now misses: packets fall back to the slow path, the
	// behaviour MFCGuard exploits.
	if _, _, ok := c.Lookup(hyp(4), 0); ok {
		t.Error("deleted entry still matches")
	}
	// Deleting an entry whose mask group retains other entries keeps the
	// mask: remove 000 (mask 111 also holds 001).
	k2, m2 := bitvec.MustPattern(bitvec.HYP, "000")
	if !c.Delete(k2, m2) {
		t.Fatal("delete 000 failed")
	}
	if c.MaskCount() != 2 {
		t.Errorf("masks = %d, want 2 (mask 111 still has the allow key)", c.MaskCount())
	}
	// Deleting with an unknown mask is a no-op.
	if c.Delete(hyp(0), bitvec.PrefixMask(bitvec.HYP, 0, 2)) {
		t.Error("delete with unknown mask succeeded")
	}
}

func TestDeleteWhere(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	n := c.DeleteWhere(func(e *Entry) bool { return e.Action == flowtable.Drop })
	if n != 3 {
		t.Errorf("DeleteWhere removed %d, want 3", n)
	}
	if c.EntryCount() != 1 || c.MaskCount() != 1 {
		t.Errorf("after wipe: %d entries %d masks, want 1/1", c.EntryCount(), c.MaskCount())
	}
	// The allow entry survives: MFCGuard requirement (i) in §8.
	e, _, ok := c.Lookup(hyp(1), 0)
	if !ok || e.Action != flowtable.Allow {
		t.Error("allow entry did not survive the wipe")
	}
}

func TestExpireIdle(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	// Touch the allow entry at t=100; the deny entries stay at t=0.
	c.Lookup(hyp(1), 100)
	evicted := c.ExpireIdle(105, 10)
	if evicted != 3 {
		t.Errorf("evicted %d, want 3 (10s idle timeout)", evicted)
	}
	if c.EntryCount() != 1 {
		t.Errorf("entries = %d, want 1", c.EntryCount())
	}
	// The fresh entry expires once it has been idle 10s.
	if n := c.ExpireIdle(110, 10); n != 1 {
		t.Errorf("second expiry = %d, want 1", n)
	}
}

func TestStats(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	c.Lookup(hyp(1), 0)
	c.Lookup(hyp(7), 0)
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 2 lookups 2 hits", s)
	}
	if s.Inserted != 4 {
		t.Errorf("inserted = %d, want 4", s.Inserted)
	}
	if s.Probes < 2 {
		t.Errorf("probes = %d, want >= 2", s.Probes)
	}
}

func TestEntriesAndMasksSnapshot(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	if got := len(c.Entries()); got != 4 {
		t.Errorf("Entries() len = %d, want 4", got)
	}
	if got := len(c.Masks()); got != 3 {
		t.Errorf("Masks() len = %d, want 3", got)
	}
	// Mutating the snapshot must not affect the classifier.
	c.Masks()[0].SetBit(0)
	if c.MaskCount() != 3 {
		t.Error("snapshot aliased internal state")
	}
}

func TestProbePosition(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	seen := map[int]bool{}
	for _, m := range c.Masks() {
		pos := c.ProbePosition(m)
		if pos < 1 || pos > 3 || seen[pos] {
			t.Fatalf("bad probe position %d", pos)
		}
		seen[pos] = true
	}
	if got := c.ProbePosition(bitvec.PrefixMask(bitvec.HYP, 0, 2).Or(bitvec.NewVec(bitvec.HYP))); got != 0 {
		// PrefixMask(2) = 110 which IS in Fig. 3... use an absent mask.
		_ = got
	}
	absent := bitvec.NewVec(bitvec.HYP)
	absent.SetFieldBit(bitvec.HYP, 0, 2) // 001 mask — absent
	if got := c.ProbePosition(absent); got != 0 {
		t.Errorf("absent mask position = %d, want 0", got)
	}
}

func TestMaskOrderInsertion(t *testing.T) {
	c := New(bitvec.HYP, Options{Order: OrderInsertion})
	loadFig3(t, c)
	masks := c.Masks()
	want := []string{"111", "100", "110"} // insertion order of Fig. 3
	for i, m := range masks {
		if got := m.Format(bitvec.HYP); got != want[i] {
			t.Errorf("mask[%d] = %s, want %s", i, got, want[i])
		}
	}
}

// TestLookupZeroAlloc asserts the classifier hot path never allocates, on
// hits and on full-scan misses — the tentpole invariant. The scratch-free
// probe (HashMasked/EqualMasked over the mask's nonzero words) is what
// makes this possible.
func TestLookupZeroAlloc(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 64)
	hit := bitvec.NewVec(l)
	sip, _ := l.FieldIndex("ip_src")
	dp, _ := l.FieldIndex("tp_dst")
	hit.SetFieldBit(l, sip, 0)
	hit.SetFieldBit(l, dp, 0) // the (i=1, j=1) entry's key
	if _, _, ok := c.Lookup(hit, 0); !ok {
		t.Fatal("expected probe header to hit")
	}
	miss := bitvec.NewVec(l)
	miss.SetField(l, sip, 0xffffffff)
	if _, _, ok := c.Lookup(miss, 0); ok {
		t.Fatal("expected probe header to miss")
	}
	if a := testing.AllocsPerRun(200, func() { c.Lookup(hit, 0) }); a != 0 {
		t.Errorf("Lookup(hit) allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { c.Lookup(miss, 0) }); a != 0 {
		t.Errorf("Lookup(miss) allocates %v/op, want 0", a)
	}
	hs := []bitvec.Vec{hit, hit, hit}
	out := make([]BatchResult, len(hs))
	if a := testing.AllocsPerRun(200, func() { c.LookupBatch(hs, 0, out) }); a != 0 {
		t.Errorf("LookupBatch allocates %v/op, want 0", a)
	}
}

// FuzzHashMasked cross-checks the fused sparse primitives against their
// materialised equivalents: HashMasked/SparseMask.Hash must equal
// keyHash(h AND m), and EqualMasked/SparseMask.EqualKey must agree with
// building h AND m and comparing, for arbitrary header/mask/key words.
func FuzzHashMasked(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0xffffffffffffffff), uint64(0xff), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint64(1)<<63, uint64(0), uint64(0), uint64(0xf0f0), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, h0, h1, m0, m1, k0, k1 uint64) {
		l := bitvec.IPv4Tuple
		h, m, kh := bitvec.NewVec(l), bitvec.NewVec(l), bitvec.NewVec(l)
		copy(h, []uint64{h0, h1})
		copy(m, []uint64{m0, m1})
		copy(kh, []uint64{k0, k1})
		words := m.NonzeroWords()
		masked := h.And(m)
		if got, want := bitvec.HashMasked(h, m, words), keyHash(masked); got != want {
			t.Errorf("HashMasked = %#x, keyHash(h AND m) = %#x", got, want)
		}
		key := kh.And(m) // canonical: key ⊆ mask
		if got, want := bitvec.EqualMasked(key, h, m, words), key.Equal(masked); got != want {
			t.Errorf("EqualMasked = %v, materialised equality = %v", got, want)
		}
		if sp, ok := bitvec.NewSparseMask(m); ok {
			if got, want := sp.Hash(h), keyHash(masked); got != want {
				t.Errorf("SparseMask.Hash = %#x, keyHash(h AND m) = %#x", got, want)
			}
			if got, want := sp.EqualKey(key, h), key.Equal(masked); got != want {
				t.Errorf("SparseMask.EqualKey = %v, materialised equality = %v", got, want)
			}
		} else {
			t.Error("IPv4Tuple mask must fit a SparseMask inline")
		}
	})
}

func TestHashOrderDeterministic(t *testing.T) {
	build := func() []bitvec.Vec {
		c := New(bitvec.HYP, Options{})
		loadFig3(t, c)
		return c.Masks()
	}
	a, b := build(), build()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("OrderHash scan order not deterministic")
		}
	}
}

// TestAgainstLinearReference is the core correctness property: TSS lookup
// over a disjoint entry set returns exactly what a linear scan of the same
// entries returns, for random entry sets and random headers.
func TestAgainstLinearReference(t *testing.T) {
	l := bitvec.IPv4Tuple
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		c := New(l, Options{})
		var ref []*Entry
		// Grow a random disjoint set by attempted inserts.
		for i := 0; i < 300; i++ {
			key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				plen := rng.Intn(l.Field(f).Width + 1)
				for b := 0; b < plen; b++ {
					mask.SetFieldBit(l, f, b)
					if rng.Intn(2) == 1 {
						key.SetFieldBit(l, f, b)
					}
				}
			}
			e := &Entry{Key: key, Mask: mask, Action: flowtable.Action(rng.Intn(2))}
			if err := c.Insert(e, 0); err == nil {
				ref = append(ref, e)
			}
		}
		if len(ref) < 2 {
			t.Fatal("random generator produced no insertable entries")
		}
		for n := 0; n < 500; n++ {
			h := bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				h.SetField(l, f, rng.Uint64())
			}
			got, _, ok := c.Lookup(h, 0)
			var want *Entry
			for _, e := range ref {
				if bitvec.Covers(e.Key, e.Mask, h) {
					want = e
					break // disjointness: at most one can match
				}
			}
			if (want != nil) != ok || (ok && got != want) {
				t.Fatalf("lookup mismatch: got %v ok=%v, want %v", got, ok, want)
			}
		}
	}
}

// TestDisjointnessInvariantHolds checks that after any accepted insert
// sequence all entries are pairwise disjoint (Inv(2)).
func TestDisjointnessInvariantHolds(t *testing.T) {
	l := bitvec.HYP2
	rng := rand.New(rand.NewSource(5))
	c := New(l, Options{})
	for i := 0; i < 200; i++ {
		key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
		for b := 0; b < l.Bits(); b++ {
			if rng.Intn(2) == 1 {
				mask.SetBit(b)
				if rng.Intn(2) == 1 {
					key.SetBit(b)
				}
			}
		}
		c.Insert(&Entry{Key: key, Mask: mask, Action: flowtable.Drop}, 0)
	}
	es := c.Entries()
	for i := range es {
		for j := i + 1; j < len(es); j++ {
			if bitvec.Overlap(es[i].Key, es[i].Mask, es[j].Key, es[j].Mask) {
				t.Fatalf("entries %d and %d overlap after inserts", i, j)
			}
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				c.Lookup(hyp(uint64(rng.Intn(8))), int64(i))
			}
		}(int64(w))
	}
	wg.Wait()
	if s := c.Stats(); s.Lookups != 8000 {
		t.Errorf("lookups = %d, want 8000", s.Lookups)
	}
}

func TestDump(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	c.Lookup(hyp(4), 7)
	var buf strings.Builder
	c.Dump(&buf, bitvec.HYP)
	out := buf.String()
	for _, needle := range []string{"mask 1/3", "mask 3/3", "hits=1", "last=7", "001"} {
		if !strings.Contains(out, needle) {
			t.Errorf("dump missing %q:\n%s", needle, out)
		}
	}
}

func TestEntryFormat(t *testing.T) {
	e := entry(bitvec.HYP, "01*", flowtable.Drop)
	if got := e.Format(bitvec.HYP); got != "01* -> deny" {
		t.Errorf("Format = %q", got)
	}
}

// Observation 1: the linear scan's lookup cost grows linearly with |M|. We
// verify the probe count (the algorithmic quantity) exactly; wall-clock
// linearity is exercised by BenchmarkLookupMasks below and the top-level
// Fig. 9a bench.
func TestObservation1ProbesLinear(t *testing.T) {
	l := bitvec.IPv4Tuple
	for _, masks := range []int{1, 4, 16, 64} {
		c := New(l, Options{DisableOverlapCheck: true, Scan: ScanLinear})
		populateDistinctMasks(c, l, masks)
		h := bitvec.NewVec(l)
		h.SetField(l, 0, 0xffffffff) // matches nothing installed
		_, probes, ok := c.Lookup(h, 0)
		if ok {
			t.Fatal("expected a miss")
		}
		if probes != masks {
			t.Errorf("miss probes = %d, want |M| = %d", probes, masks)
		}
	}
}

// populateDistinctMasks installs n entries with n distinct masks shaped
// like TSE deny megaflows (prefix combinations over ip_src/tp_dst, with an
// ip_dst prefix dimension unlocking mask counts past 512; mirrored by
// populateMasks in internal/experiments/staged.go — keep in sync so the
// stagedscan table stays comparable). The first 512
// masks (k == 0) are pairwise disjoint; the k > 0 extension reuses the same
// ip_src/tp_dst key bits and may overlap the k == 0 plane, so callers
// needing more than 512 masks must disable the overlap check (the
// large-mask-count benchmarks do).
func populateDistinctMasks(c *Classifier, l *bitvec.Layout, n int) {
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	dp, _ := l.FieldIndex("tp_dst")
	count := 0
	for k := 0; k <= 32 && count < n; k++ {
		for i := 1; i <= 32 && count < n; i++ {
			for j := 1; j <= 16 && count < n; j++ {
				mask := bitvec.PrefixMask(l, sip, i).Or(bitvec.PrefixMask(l, dp, j))
				key := bitvec.NewVec(l)
				// Key: 0...01 prefix in each field so entries are disjoint
				// (first i-1 bits zero, bit i-1 set).
				key.SetFieldBit(l, sip, i-1)
				key.SetFieldBit(l, dp, j-1)
				if k > 0 {
					mask = mask.Or(bitvec.PrefixMask(l, dip, k))
					key.SetFieldBit(l, dip, k-1)
				}
				if err := c.Insert(&Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}, 0); err != nil {
					panic(err)
				}
				count++
			}
		}
	}
	if count < n {
		panic(fmt.Sprintf("could only build %d masks", count))
	}
}

// BenchmarkLookupMasks times the scan: full misses (the worst case) over
// 16 to 4 096 masks, and at 8 192 masks hits on the SipSpDp attack family
// at uniformly random scan positions — the regime of an attack replay,
// where most lookups end on a match somewhere in the scan.
func BenchmarkLookupMasks(b *testing.B) {
	l := bitvec.IPv4Tuple
	for _, masks := range []int{16, 256, 4096, 8192} {
		b.Run(fmt.Sprintf("masks=%d", masks), func(b *testing.B) {
			c := New(l, Options{DisableOverlapCheck: true})
			miss := bitvec.NewVec(l)
			miss.SetField(l, 0, 0xffffffff)
			hs := []bitvec.Vec{miss}
			if masks < 8192 {
				populateDistinctMasks(c, l, masks)
			} else {
				// The family is disjoint, so each key hits at its own mask's
				// scan position.
				es := attackEntries(l, masks)
				mustInsertBatch(b, c, es, 0)
				rng := rand.New(rand.NewSource(1))
				hs = hs[:0]
				for i := 0; i < 1024; i++ {
					hs = append(hs, es[rng.Intn(len(es))].Key)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(hs[i%len(hs)], 0)
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	sip, _ := l.FieldIndex("ip_src")
	key := bitvec.NewVec(l)
	mask := bitvec.FullMask(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key.SetField(l, sip, uint64(i))
		c.Insert(&Entry{Key: key.Clone(), Mask: mask, Action: flowtable.Drop}, 0)
	}
}
