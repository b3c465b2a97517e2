package tss

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// buildRandom grows a random disjoint entry set into a staged linear-scan
// classifier under order, returning it with the accepted entries.
func buildRandom(rng *rand.Rand, l *bitvec.Layout, order MaskOrder, n int) (*Classifier, []*Entry) {
	c := New(l, Options{Order: order, Scan: ScanLinear})
	var ref []*Entry
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
		e := &Entry{Key: key, Mask: mask, Action: flowtable.Action(rng.Intn(2)), RuleName: fmt.Sprintf("r%d", i)}
		if c.Insert(e, 0) == nil {
			ref = append(ref, e)
		}
	}
	return c, ref
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

// TestStagedLookupEquivalence checks the staged linear scan against brute
// force: for randomized rule/mask sets under both mask orders, a lookup
// returns the entry covering the header with its mask's position in the
// reference's own scan order (refClassifier) as its probe count (|M| on a
// miss), and the hit accounting matches. Headers are a mix of uniform
// random (mostly misses) and per-entry near-matches (guaranteed hits plus
// single-bit-flip near-misses that stress the stage filters' late stages).
func TestStagedLookupEquivalence(t *testing.T) {
	for _, l := range []*bitvec.Layout{bitvec.IPv4Tuple, bitvec.IPv6Tuple} {
		for _, order := range []MaskOrder{OrderHash, OrderInsertion} {
			t.Run(fmt.Sprintf("%s/order=%d", l, order), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42 + int64(order)))
				c, ref := buildRandom(rng, l, order, 200)
				r := newRefClassifier(order)
				for _, e := range ref {
					r.add(e)
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
				lastUsed := map[*Entry]int64{}
				var want Stats
				for i, h := range headers {
					first, pos := r.lookup(h)
					e, probes, ok := c.Lookup(h, int64(i))
					if e != first || ok != (first != nil) || probes != pos {
						t.Fatalf("header %d %s: lookup (%v, %d probes), brute force (%v, %d probes)",
							i, h.Format(l), e, probes, first, pos)
					}
					want.Lookups++
					want.Probes += uint64(probes)
					if ok {
						lastUsed[e] = int64(i)
						want.Hits++
					} else {
						want.Misses++
					}
				}
				// Hit accounting: the scan statistics and the dumped
				// per-entry LastUsed stamps agree with the lookups above
				// (an entry no lookup hit keeps its install time, 0).
				s := c.Stats()
				if got := (Stats{Lookups: s.Lookups, Hits: s.Hits, Misses: s.Misses, Probes: s.Probes}); got != want {
					t.Fatalf("stats %+v, want %+v", got, want)
				}
				byKey := map[string]int64{}
				for e, now := range lastUsed {
					byKey[e.Key.Key()+"|"+e.Mask.Key()] = now
				}
				for _, e := range c.Entries() {
					if want := byKey[e.Key.Key()+"|"+e.Mask.Key()]; e.LastUsed != want {
						t.Fatalf("entry %s: last used %d dumped, %d looked up", e.Format(l), e.LastUsed, want)
					}
				}
				// The attack-shaped misses above must actually exercise the
				// early bail, or this test proves nothing about staging.
				if s.StageSkips == 0 && l == bitvec.IPv4Tuple {
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
// findMaskedStaged. It returns the verdict, the probe count and the
// stage-skip count.
//
// One piece of record state is not the group's to decide: a kindFilter
// record holds a copy of its group's stage-0 filter, and an in-place
// install ORs its bits into the group and into the record of the writer's
// current chunk only. A chunk that an older snapshot kept from before a
// copy therefore holds a subset of its group's bits, lacking only bits of
// entries too new for that snapshot, and its lookup bails at stage 0 on a
// header that only those bits let through. refScan fails t unless every
// such record is a subset of its group's filter, and equal to it on the
// current snapshot, and counts a bail on the record's bits as a skip where
// the group found nothing.
func refScan(t *testing.T, sn *snapshot, h bitvec.Vec, current bool) (*Entry, int, int) {
	t.Helper()
	probes, skips := 0, 0
	for _, ch := range sn.chunks {
		for k, s := range ch.side {
			probes++
			e, skip := refProbe(s.g, h, sn.epoch)
			if ch.hot[k].kind == kindFilter {
				g, rec := s.g, stageFilter(s.w)
				for i, f := range g.filters[0] {
					if rec[i]&^f != 0 || current && rec[i] != f {
						t.Fatalf("record of group %x: stage-0 filter %x, group's %x (current snapshot: %v)",
							g.mask, rec, g.filters[0], current)
					}
				}
				if e == nil && !skip && !rec.has(g.sparse.HashRange(h, 0, int(g.stageOff[1]))) {
					skip = true
				}
			}
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

// refProbe decides one probe of g from the group alone, for a reader of
// epoch ep.
func refProbe(g *group, h bitvec.Vec, ep uint64) (*Entry, bool) {
	if !g.sparseOK || g.solo == nil {
		return g.findMaskedStaged(h, ep)
	}
	sp := &g.sparse
	if n := sp.N(); n > 0 && h[sp.WordIndex(0)]&sp.MaskWord(0) != g.solo.Key[sp.WordIndex(0)] {
		return nil, n > 1
	}
	if sp.EqualKey(g.solo.Key, h) {
		return g.solo, false
	}
	return nil, false
}

// refView is what the pruned reference knows of one snapshot: the
// candidate tables it was published with (refCands of the writer right
// after the publish), the number of groups its tree holds, and per field
// and class the set of those groups of that class, as a bitset over their
// positions in treeGroups. The positions are fixed for as long as the
// snapshot lives, and the group at one keeps its mask (only a copy that
// adds entries is stored over it in place), so the classes stay valid
// while the snapshot's refs change.
type refView struct {
	sn    *snapshot
	cands []candRef
	n     int
	sets  [maxLevels][64][]uint64
}

// refViewOf builds the reference's view of sn, which must be the snapshot
// the writer has just published.
func refViewOf(c *Classifier, sn *snapshot) *refView {
	v := &refView{sn: sn, cands: refCands(c.prune)}
	gs := sn.treeGroups()
	v.n = len(gs)
	words := (len(gs) + 63) / 64
	for i, g := range gs {
		cls := c.prune.classes(g.mask)
		for f := range v.cands {
			set := &v.sets[f][cls[f]]
			if *set == nil {
				*set = make([]uint64, words)
			}
			(*set)[i/64] |= 1 << (i % 64)
		}
	}
	return v
}

// refPruned is the pruned lookup decided group by group: it probes, with
// refProbe, every group of gs, sn's treeGroups as its refs hold them now,
// whose mask class is a candidate for h on every pruned field —
// computed by the reference triple loop over ref's candidate tables, the
// ones sn was published with, not from the published tables or the
// tree's class paths — in tree order. It returns the covering entry and
// the probes and skips of all candidates: a pruned lookup that misses
// makes exactly those, one that hits at most those.
func refPruned(ref *refView, sn *snapshot, gs []*group, h bitvec.Vec) (*Entry, int, int) {
	var hit *Entry
	probes, skips := 0, 0
	cand := make([]uint64, (ref.n+63)/64)
	for i := range cand {
		cand[i] = ^uint64(0)
	}
	union := make([]uint64, len(cand))
	for f := range ref.cands {
		clear(union)
		for m := ref.cands[f].matchRef(h); m != 0; m &= m - 1 {
			for i, w := range ref.sets[f][bits.TrailingZeros64(m)] {
				union[i] |= w
			}
		}
		for i := range cand {
			cand[i] &= union[i]
		}
	}
	for i, w := range cand {
		for ; w != 0; w &= w - 1 {
			probes++
			e, skip := refProbe(gs[i*64+bits.TrailingZeros64(w)], h, sn.epoch)
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
// over sn is the reference's: refScan's exactly for a linear scan, and for
// the pruned one refPruned's verdict, with exactly its probes and skips on a
// miss and at most them on a hit. ref is the reference's view of sn
// (refViewOf right after the publish); a linear scan ignores it.
func checkScan(t *testing.T, c *Classifier, sn *snapshot, ref *refView, h bitvec.Vec, e *Entry, probes, skips int) {
	t.Helper()
	if sn.pruned {
		gs := sn.treeGroups()
		if len(gs) != ref.n {
			t.Fatalf("snapshot of epoch %d: its tree holds %d groups, %d when published", sn.epoch, len(gs), ref.n)
		}
		re, rp, rs := refPruned(ref, sn, gs, h)
		if e != re || e == nil && (probes != rp || skips != rs) || e != nil && (probes < 1 || probes > rp || skips > rs) {
			t.Fatalf("pruned lookup %s = (%v, %d probes, %d skips), candidate groups (%v, %d, %d)",
				h.Format(c.layout), e, probes, skips, re, rp, rs)
		}
		return
	}
	if re, rp, rs := refScan(t, sn, h, sn == c.snap.Load()); e != re || probes != rp || skips != rs {
		t.Fatalf("lookup %s = (%v, %d probes, %d skips), group-by-group scan (%v, %d, %d)",
			h.Format(c.layout), e, probes, skips, re, rp, rs)
	}
}

// FuzzStagedEquivalence cross-checks a staged linear and a pruned
// classifier holding the same attack-shaped entry set on fuzzer-chosen
// headers, and each of them against its reference scan (checkScan). Both
// return the same verdict, and the pruned one makes at most as many probes
// as the linear one. The set is
// scanPinCases' IPv4 families: one-entry groups of one and two words,
// multi-entry groups staged on a one-word first stage, and multi-entry
// one-word groups.
func FuzzStagedEquivalence(f *testing.F) {
	tc := scanPinCases[0]
	l := tc.l
	linear, es := tc.build(f, ScanLinear)
	pruned, _ := tc.build(f, ScanPruned)
	ref := refViewOf(pruned, pruned.snap.Load())
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
		var got [2]BatchResult
		for i, c := range []*Classifier{linear, pruned} {
			sn := c.snap.Load()
			e, probes, skips, ok := c.def.lookupSnap(sn, h, 0)
			checkScan(t, c, sn, ref, h, e, probes, skips)
			got[i] = BatchResult{Entry: e, Probes: probes, OK: ok}
		}
		if got[1].OK != got[0].OK || got[1].Probes > got[0].Probes {
			t.Fatalf("pruned (probes=%d ok=%v) vs linear (probes=%d ok=%v)",
				got[1].Probes, got[1].OK, got[0].Probes, got[0].OK)
		}
		if got[0].OK && got[0].Entry.RuleName != got[1].Entry.RuleName {
			t.Fatalf("linear hit %s, pruned hit %s", got[0].Entry.Format(l), got[1].Entry.Format(l))
		}
	})
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
	// A single-stage layout scans staged too: HYP2's one-word masks carry
	// no stage filters and never count a skip. Both scans run their own
	// walk over every header of the layout. The ScanPruned count fell from
	// 1 139 to 1 125 when a cache of 16 masks or fewer came to be pruned
	// too: the index is built from the first mask, so its first groups sit
	// in insertion order rather than in the probe mirror's hash order at
	// the 17th mask, and hits are reached after fewer candidates.
	h2 := bitvec.HYP2
	for _, tc := range []struct {
		scan   Scan
		probes uint64
	}{{ScanLinear, 1442}, {ScanPruned, 1125}} {
		c := New(h2, Options{Scan: tc.scan})
		rng := rand.New(rand.NewSource(5))
		var es []*Entry
		seen := map[string]bool{} // a repeated key and mask would refresh in place
		for i := 0; i < 200; i++ {
			key, mask := bitvec.NewVec(h2), bitvec.NewVec(h2)
			for b := 0; b < h2.Bits(); b++ {
				if rng.Intn(4) > 0 {
					mask.SetBit(b)
					if rng.Intn(2) == 1 {
						key.SetBit(b)
					}
				}
			}
			if seen[key.Key()+"|"+mask.Key()] {
				continue
			}
			if e := (&Entry{Key: key, Mask: mask, Action: flowtable.Drop}); c.Insert(e, 0) == nil {
				seen[key.Key()+"|"+mask.Key()] = true
				es = append(es, e)
			}
		}
		for v := uint64(0); v < 1<<h2.Bits(); v++ {
			h := bitvec.NewVec(h2)
			h.SetField(h2, 0, v>>4)
			h.SetField(h2, 1, v&15)
			var ref *Entry
			for _, e := range es {
				if bitvec.Covers(e.Key, e.Mask, h) {
					ref = e
					break
				}
			}
			if got, _, ok := c.Lookup(h, 0); got != ref || ok != (ref != nil) {
				t.Fatalf("scan %d, HYP2 header %s: lookup %v, brute force %v", tc.scan, h.Format(h2), got, ref)
			}
		}
		if s := c.Stats(); s.Probes != tc.probes || s.StageSkips != 0 {
			t.Errorf("scan %d, HYP2, %d masks: %d probes, %d skips; want %d and 0",
				tc.scan, c.MaskCount(), s.Probes, s.StageSkips, tc.probes)
		}
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
