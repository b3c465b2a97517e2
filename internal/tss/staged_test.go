package tss

import (
	"fmt"
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// buildRandomPair grows the same random disjoint entry set into a staged
// and an unstaged classifier (same order option), returning both plus the
// accepted entries.
func buildRandomPair(rng *rand.Rand, l *bitvec.Layout, order MaskOrder, n int) (staged, unstaged *Classifier, ref []*Entry) {
	staged = New(l, Options{Order: order, Scan: ScanLinear})
	unstaged = New(l, Options{Order: order, Scan: ScanUnstaged})
	for i := 0; i < n; i++ {
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
		a := flowtable.Action(rng.Intn(2))
		e1 := &Entry{Key: key, Mask: mask, Action: a, RuleName: fmt.Sprintf("r%d", i)}
		e2 := &Entry{Key: key.Clone(), Mask: mask.Clone(), Action: a, RuleName: e1.RuleName}
		err1 := staged.Insert(e1, 0)
		err2 := unstaged.Insert(e2, 0)
		if (err1 == nil) != (err2 == nil) {
			panic("staged and unstaged classifiers disagree on insert acceptance")
		}
		if err1 == nil {
			ref = append(ref, e1)
		}
	}
	return staged, unstaged, ref
}

func randomHeader(rng *rand.Rand, l *bitvec.Layout) bitvec.Vec {
	h := bitvec.NewVec(l)
	for f := 0; f < l.NumFields(); f++ {
		if l.Field(f).Width <= 64 {
			h.SetField(l, f, rng.Uint64())
		}
	}
	return h
}

// TestStagedLookupEquivalence is the staged-vs-unstaged property: for
// randomized rule/mask/priority sets under all three mask orders, the
// staged lookup returns the identical entry, the identical probe count,
// and identical hit accounting as the unstaged full probe. Headers are a
// mix of uniform random (mostly misses) and per-entry near-matches
// (guaranteed hits plus single-bit-flip near-misses that stress the stage
// filters' late stages).
func TestStagedLookupEquivalence(t *testing.T) {
	for _, l := range []*bitvec.Layout{bitvec.IPv4Tuple, bitvec.IPv6Tuple} {
		for _, order := range []MaskOrder{OrderHash, OrderInsertion, OrderHitCount} {
			t.Run(fmt.Sprintf("%s/order=%d", l, order), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42 + int64(order)))
				staged, unstaged, ref := buildRandomPair(rng, l, order, 200)
				if !staged.Staged() || unstaged.Staged() {
					t.Fatal("staging flags wrong way round")
				}
				var headers []bitvec.Vec
				for i := 0; i < 400; i++ {
					headers = append(headers, randomHeader(rng, l))
				}
				for _, e := range ref {
					// The key itself is a matching header (wildcarded bits
					// read zero)...
					headers = append(headers, e.Key.Clone())
					// ...and a one-bit flip inside the mask is a near-miss
					// that survives early stages when the flip is late.
					set := -1
					for b := 0; b < l.Bits(); b++ {
						if e.Mask.Bit(b) {
							set = b
						}
					}
					if set >= 0 {
						nm := e.Key.Clone()
						if nm.Bit(set) {
							nm.ClearBit(set)
						} else {
							nm.SetBit(set)
						}
						headers = append(headers, nm)
					}
				}
				for i, h := range headers {
					now := int64(i)
					e1, p1, ok1 := staged.Lookup(h, now)
					e2, p2, ok2 := unstaged.Lookup(h, now)
					if ok1 != ok2 || p1 != p2 {
						t.Fatalf("header %d: staged (probes=%d ok=%v) vs unstaged (probes=%d ok=%v)",
							i, p1, ok1, p2, ok2)
					}
					if ok1 {
						if !e1.Key.Equal(e2.Key) || !e1.Mask.Equal(e2.Mask) ||
							e1.Action != e2.Action || e1.RuleName != e2.RuleName {
							t.Fatalf("header %d: staged hit %s, unstaged hit %s",
								i, e1.Format(l), e2.Format(l))
						}
					}
				}
				// Hit accounting: scan statistics agree except StageSkips
				// (which only the staged classifier records)...
				s1, s2 := staged.Stats(), unstaged.Stats()
				s1.StageSkips, s2.StageSkips = 0, 0
				if s1 != s2 {
					t.Fatalf("stats diverge: staged %+v, unstaged %+v", s1, s2)
				}
				// ...and per-entry hit counters agree entry for entry.
				d1, d2 := staged.Entries(), unstaged.Entries()
				if len(d1) != len(d2) {
					t.Fatalf("entry dumps: %d vs %d entries", len(d1), len(d2))
				}
				hits1 := map[string]uint64{}
				for _, e := range d1 {
					hits1[e.Key.Key()+"|"+e.Mask.Key()] = e.Hits
				}
				for _, e := range d2 {
					if got := hits1[e.Key.Key()+"|"+e.Mask.Key()]; got != e.Hits {
						t.Fatalf("entry %s: staged hits %d, unstaged %d",
							e.Format(l), got, e.Hits)
					}
				}
				// The attack-shaped misses above must actually exercise the
				// early bail, or this test proves nothing about staging.
				if staged.Staged() && staged.Stats().StageSkips == 0 && l == bitvec.IPv4Tuple {
					t.Error("staged classifier recorded no stage skips")
				}
			})
		}
	}
}

// refScan is the scan lookupSnap must reproduce, decided from the groups
// alone: it walks sn's groups in scan order and decides each probe by
// dereferencing the group — a one-entry inline-mask group on its first
// nonzero mask word and then its whole key, any other group through
// findMaskedStaged (findMasked with staging off). It returns the verdict,
// the probe count and the stage-skip count.
func refScan(sn *snapshot, h bitvec.Vec, staged bool) (*Entry, int, int) {
	probes, skips := 0, 0
	for _, ch := range sn.chunks {
		for _, s := range ch.side {
			probes++
			e, skip := refProbe(s.g, h, staged)
			if skip {
				skips++
			}
			if e != nil {
				return e, probes, skips
			}
		}
	}
	return nil, probes, skips
}

// refProbe decides one probe of g from the group alone.
func refProbe(g *group, h bitvec.Vec, staged bool) (*Entry, bool) {
	switch {
	case !staged:
		return g.findMasked(h), false
	case g.sparseOK && g.solo != nil:
		sp := &g.sparse
		if n := sp.N(); n > 0 && h[sp.WordIndex(0)]&sp.MaskWord(0) != g.solo.Key[sp.WordIndex(0)] {
			return nil, n > 1
		}
		if sp.EqualKey(g.solo.Key, h) {
			return g.solo, false
		}
		return nil, false
	default:
		return g.findMaskedStaged(h)
	}
}

// refPruned is the pruned lookup decided group by group: it probes, with
// refProbe, every group of sn whose mask class is a candidate for h on
// every pruned field — computed from the snapshot's candidate tables, not
// from the tree. It returns the covering entry and the probes and skips
// of all candidates: a pruned lookup that misses makes exactly those, one
// that hits at most those.
func refPruned(x *pruneIndex, sn *snapshot, h bitvec.Vec, staged bool) (*Entry, int, int) {
	var hit *Entry
	probes, skips := 0, 0
	for _, ch := range sn.chunks {
		for _, s := range ch.side {
			cls := x.classes(s.g.mask)
			cand := true
			for f := range x.fields {
				cand = cand && sn.prune.cands[f].match(h)>>cls[f]&1 == 1
			}
			if !cand {
				continue
			}
			probes++
			e, skip := refProbe(s.g, h, staged)
			if skip {
				skips++
			}
			if e != nil {
				hit = e
			}
		}
	}
	return hit, probes, skips
}

// checkScan fails t unless lookupSnap's answer (e, probes, skips) for h
// over sn is the reference's: refScan's exactly for a linear scan
// (ScanPruned's too on a cache of at most linearMasks masks), and for the
// pruned one refPruned's verdict, with exactly its probes and skips on a
// miss and at most them on a hit.
func checkScan(t *testing.T, c *Classifier, sn *snapshot, h bitvec.Vec, e *Entry, probes, skips int) {
	t.Helper()
	if sn.pruned(c.opts.Scan) {
		re, rp, rs := refPruned(c.prune, sn, h, c.staged)
		if e != re || e == nil && (probes != rp || skips != rs) || e != nil && (probes < 1 || probes > rp || skips > rs) {
			t.Fatalf("pruned lookup %s = (%v, %d probes, %d skips), candidate groups (%v, %d, %d)",
				h.Format(c.layout), e, probes, skips, re, rp, rs)
		}
		return
	}
	if re, rp, rs := refScan(sn, h, c.staged); e != re || probes != rp || skips != rs {
		t.Fatalf("lookup %s = (%v, %d probes, %d skips), group-by-group scan (%v, %d, %d)",
			h.Format(c.layout), e, probes, skips, re, rp, rs)
	}
}

// FuzzStagedEquivalence cross-checks a staged linear, an unstaged linear
// and a pruned classifier holding the same attack-shaped entry set on
// fuzzer-chosen headers, and each of them against its reference scan
// (checkScan). All three return the same verdict, the two linear scans
// the same probes, and the pruned one at most as many. The set is
// scanPinCases' IPv4 families: one-entry groups of one and two words,
// multi-entry groups staged on a one-word first stage, and multi-entry
// one-word groups.
func FuzzStagedEquivalence(f *testing.F) {
	tc := scanPinCases[0]
	l := tc.l
	staged, es := tc.build(f, ScanLinear)
	unstaged, _ := tc.build(f, ScanUnstaged)
	pruned, _ := tc.build(f, ScanPruned)
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1)<<63, uint64(3))
	for _, e := range []*Entry{es[0], es[len(es)/2], es[len(es)-1]} {
		f.Add(e.Key[0], e.Key[1])
		f.Add(e.Key[0], e.Key[1]^e.Mask[1]&-e.Mask[1]) // first word agrees, second does not
	}
	f.Fuzz(func(t *testing.T, w0, w1 uint64) {
		h := bitvec.NewVec(l)
		h[0], h[1] = w0, w1
		for b := l.Bits(); b < len(h)*64; b++ {
			h.ClearBit(b)
		}
		var got [3]BatchResult
		for i, c := range []*Classifier{staged, unstaged, pruned} {
			sn := c.snap.Load()
			e, probes, skips, ok := c.def.lookupSnap(sn, h, 0)
			checkScan(t, c, sn, h, e, probes, skips)
			got[i] = BatchResult{Entry: e, Probes: probes, OK: ok}
		}
		if got[0].OK != got[1].OK || got[0].Probes != got[1].Probes {
			t.Fatalf("staged (probes=%d ok=%v) vs unstaged (probes=%d ok=%v)",
				got[0].Probes, got[0].OK, got[1].Probes, got[1].OK)
		}
		if got[0].OK && got[0].Entry.RuleName != got[1].Entry.RuleName {
			t.Fatalf("staged hit %s, unstaged hit %s", got[0].Entry.Format(l), got[1].Entry.Format(l))
		}
		if got[2].OK != got[0].OK || got[2].Probes > got[0].Probes {
			t.Fatalf("pruned (probes=%d ok=%v) vs linear (probes=%d ok=%v)",
				got[2].Probes, got[2].OK, got[0].Probes, got[0].OK)
		}
		if got[0].OK && got[0].Entry.RuleName != got[2].Entry.RuleName {
			t.Fatalf("linear hit %s, pruned hit %s", got[0].Entry.Format(l), got[2].Entry.Format(l))
		}
	})
}

// TestStagedCustomBoundaries exercises the Options.Stages override: word-
// granular stages must classify identically to the derived boundaries.
func TestStagedCustomBoundaries(t *testing.T) {
	l := bitvec.IPv4Tuple
	rng := rand.New(rand.NewSource(9))
	def := New(l, Options{})
	custom := New(l, Options{Stages: []int{1, 2}}) // same as derived for IPv4
	degenerate := New(l, Options{Stages: []int{2}})
	if !def.Staged() || !custom.Staged() {
		t.Fatal("staging should be on")
	}
	if degenerate.Staged() {
		t.Error("single-stage override should disable staging")
	}
	populateDistinctMasks(def, l, 64)
	populateDistinctMasks(custom, l, 64)
	for i := 0; i < 200; i++ {
		h := randomHeader(rng, l)
		_, p1, ok1 := def.Lookup(h, 0)
		_, p2, ok2 := custom.Lookup(h, 0)
		if p1 != p2 || ok1 != ok2 {
			t.Fatalf("derived vs custom boundaries diverge: (%d,%v) vs (%d,%v)", p1, ok1, p2, ok2)
		}
	}
}

// TestStageSkipsCounted pins the skip accounting on the attack shape: a
// full miss over n two-word masks skips the second word of (nearly) every
// probe, so StageSkips is close to Probes.
func TestStageSkipsCounted(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true, Scan: ScanLinear})
	populateDistinctMasks(c, l, 256)
	miss := bitvec.NewVec(l)
	sip, _ := l.FieldIndex("ip_src")
	miss.SetField(l, sip, 0xffffffff)
	_, probes, ok := c.Lookup(miss, 0)
	if ok {
		t.Fatal("expected a miss")
	}
	s := c.Stats()
	if s.StageSkips == 0 {
		t.Fatal("no stage skips recorded on an attack-shaped miss scan")
	}
	if s.StageSkips > s.Probes {
		t.Fatalf("skips %d > probes %d", s.StageSkips, s.Probes)
	}
	// At 256 TSE-shaped masks at least half the probes must bail early
	// (the measured rate is >90%; the bound is loose to stay robust).
	if s.StageSkips < uint64(probes)/2 {
		t.Errorf("skips = %d of %d probes; staging is not engaging", s.StageSkips, probes)
	}
	// A one-word mask has no later stage to skip: rejecting a header on
	// its only word is a full probe, not a skip.
	one := New(l, Options{Scan: ScanLinear})
	mask := bitvec.PrefixMask(l, sip, 8)
	if err := one.Insert(&Entry{Key: bitvec.NewVec(l), Mask: mask, Action: flowtable.Drop}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := one.Lookup(miss, 0); ok {
		t.Fatal("expected a miss")
	}
	if s := one.Stats(); s.Probes != 1 || s.StageSkips != 0 {
		t.Errorf("one-word mask: %d probes, %d skips; want 1 and 0", s.Probes, s.StageSkips)
	}
}

// TestHandleShardStats: per-handle statistics are private, and the
// classifier total is the sum over handles.
func TestHandleShardStats(t *testing.T) {
	c := New(bitvec.HYP, Options{})
	loadFig3(t, c)
	h1, h2 := c.NewHandle(), c.NewHandle()
	for i := 0; i < 5; i++ {
		h1.Lookup(hyp(1), 0)
	}
	for i := 0; i < 3; i++ {
		h2.Lookup(hyp(7), 0)
	}
	s1, s2 := h1.Stats(), h2.Stats()
	if s1.Lookups != 5 || s1.Hits != 5 {
		t.Errorf("handle1 stats = %+v, want 5 lookups 5 hits", s1)
	}
	if s2.Lookups != 3 || s2.Hits != 3 {
		t.Errorf("handle2 stats = %+v, want 3 lookups 3 hits", s2)
	}
	tot := c.Stats()
	if tot.Lookups != 8 || tot.Hits != 8 {
		t.Errorf("classifier total = %+v, want 8 lookups 8 hits", tot)
	}
}

// BenchmarkLookupParallel measures parallel misses over one shared
// classifier with b.RunParallel: each goroutine holds its own Handle, so
// with the lock-free snapshot read path the only shared memory is the
// streamed (read-only) scan list. On a multi-core host throughput scales
// with GOMAXPROCS where the PR 1 reader/writer lock was flat; on a
// single-core host (GOMAXPROCS=1, the committed BENCH files record it)
// the benchmark degenerates to the serial figure.
func BenchmarkLookupParallel(b *testing.B) {
	l := bitvec.IPv4Tuple
	for _, masks := range []int{256, 4096} {
		b.Run(fmt.Sprintf("masks=%d", masks), func(b *testing.B) {
			c := New(l, Options{DisableOverlapCheck: true})
			populateDistinctMasks(c, l, masks)
			h := bitvec.NewVec(l)
			h.SetField(l, 0, 0xffffffff)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				hd := c.NewHandle()
				for pb.Next() {
					hd.Lookup(h, 0)
				}
			})
		})
	}
}
