package tss

import (
	"sync"
	"sync/atomic"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// TestSnapshotConsistencyUnderWrites drives the lock-free read path hard
// while writers churn the classifier, asserting the copy-on-write
// snapshot guarantees (run under -race in CI):
//
//   - monotonic visibility: an entry inserted before a reader starts (and
//     never deleted) hits on every subsequent lookup, no matter how many
//     snapshots are published around it;
//   - no torn scans: every lookup's probe count is bounded by the mask
//     high-water mark, and dump readers always observe pairwise-disjoint
//     entries;
//   - counters are monotonic: a sampler never sees Stats go backwards.
func TestSnapshotConsistencyUnderWrites(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	dp, _ := l.FieldIndex("tp_dst")
	fullMask := bitvec.FullMask(l)

	// Stable population, present for the whole test and large enough to
	// span several probe-mirror chunks and group slot pages: stableExact
	// exact-match entries in one group (256 slots) plus stableMasks
	// one-entry groups under distinct ip_dst/16 + ip_src/i + tp_dst/j
	// masks. Every stable ip_dst keeps its top 16 bits zero, while every
	// churn megaflow below matches a one among those bits: the overlap
	// check is off, so the two populations must be disjoint by
	// construction or a reader landing between a churn insert and its
	// delete hits Drop first.
	const (
		stableExact = 100
		stableMasks = 300
		stable      = stableExact + stableMasks
	)
	mkStable := func(v uint64) bitvec.Vec {
		h := bitvec.NewVec(l)
		h.SetField(l, sip, v)
		h.SetField(l, dip, 0x00000a01)
		return h
	}
	var stableHs []bitvec.Vec
	var stableEs []*Entry
	for i := 0; i < stableExact; i++ {
		stableHs = append(stableHs, mkStable(uint64(i)))
		stableEs = append(stableEs, &Entry{Key: mkStable(uint64(i)), Mask: fullMask,
			Action: flowtable.Allow, RuleName: "stable"})
	}
	for i := 0; len(stableEs) < stable; i++ {
		mask := bitvec.PrefixMask(l, dip, 16).Or(bitvec.PrefixMask(l, sip, 1+i/16)).Or(bitvec.PrefixMask(l, dp, 1+i%16))
		key := bitvec.NewVec(l)
		key.SetFieldBit(l, sip, i/16)
		key.SetFieldBit(l, dp, i%16)
		stableHs = append(stableHs, key)
		stableEs = append(stableEs, &Entry{Key: key.Clone(), Mask: mask,
			Action: flowtable.Allow, RuleName: "stable"})
	}
	mustInsertBatch(t, c, stableEs, 0)
	if c.MaskCount() != stableMasks+1 {
		t.Fatalf("stable population has %d masks, want %d", c.MaskCount(), stableMasks+1)
	}
	for i, h := range stableHs {
		if e, _, ok := c.Lookup(h, 0); !ok || e != stableEs[i] {
			t.Fatalf("stable header %d does not hit its own entry", i)
		}
	}

	const (
		readers = 4
		churn   = 400
	)
	// Churn population: distinct attack-style masks, built up front so the
	// disjointness the stable-hit assertion rests on is checked, not assumed.
	churnEntries := make([]*Entry, churn)
	for i := range churnEntries {
		mask := bitvec.PrefixMask(l, sip, 1+i%31).Or(bitvec.PrefixMask(l, dip, 1+i%16))
		key := bitvec.NewVec(l)
		key.SetFieldBit(l, sip, i%31)
		key.SetFieldBit(l, dip, i%16)
		e := &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop, RuleName: "churn"}
		for v, h := range stableHs {
			if bitvec.Covers(e.Key, e.Mask, h) {
				t.Fatalf("churn entry %d covers stable key %d", i, v)
			}
		}
		churnEntries[i] = e
	}
	maskHigh := int64(stableMasks + 2) // high-water bound for probe counts
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: churn the attack-style masks (insert then delete),
	// interleaved with sweeps and refreshes of the stable entries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i, e := range churnEntries {
			// Raise the probe bound BEFORE publishing the new snapshot, so
			// a reader can never legitimately observe more probes than the
			// recorded high-water mark (single writer: +1 mask max).
			if next := int64(c.MaskCount()) + 1; next > atomic.LoadInt64(&maskHigh) {
				atomic.StoreInt64(&maskHigh, next)
			}
			if err := c.Insert(e, int64(i)); err != nil {
				t.Error(err)
				return
			}
			switch i % 5 {
			case 0:
				c.Delete(e.Key, e.Mask)
			case 1:
				c.DeleteWhere(func(e *Entry) bool { return e.RuleName == "churn" })
			case 2:
				// Refresh a stable entry (same key+mask, COW replace).
				if err := c.Insert(&Entry{Key: mkStable(uint64(i % stableExact)), Mask: fullMask.Clone(),
					Action: flowtable.Allow, RuleName: "stable"}, int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Readers: stable entries must hit on every snapshot.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hd := c.NewHandle()
			hs := make([]bitvec.Vec, 8)
			out := make([]BatchResult, 8)
			for i := 0; !stop.Load(); i++ {
				v := (i + r) % stable
				e, probes, ok := hd.Lookup(stableHs[v], int64(i))
				if !ok || e.Action != flowtable.Allow {
					t.Errorf("reader %d: stable entry %d missed (torn snapshot?)", r, v)
					return
				}
				if hi := atomic.LoadInt64(&maskHigh); int64(probes) > hi {
					t.Errorf("reader %d: probes %d beyond mask high-water %d", r, probes, hi)
					return
				}
				for j := range hs {
					hs[j] = stableHs[(i+j*53)%stable]
				}
				n := hd.LookupBatch(hs, int64(i), out)
				if n != len(hs) {
					t.Errorf("reader %d: batch consumed %d of %d over stable entries", r, n, len(hs))
					return
				}
			}
		}(r)
	}

	// Dump reader: snapshots are always internally consistent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			es := c.Entries()
			seen := make(map[string]bool, len(es))
			for _, e := range es {
				id := e.Key.Key() + "|" + e.Mask.Key()
				if seen[id] {
					t.Error("dump observed a duplicated entry (torn scan list)")
					return
				}
				seen[id] = true
			}
			n := 0
			for _, e := range es {
				if e.RuleName == "stable" {
					n++
				}
			}
			if n != stable {
				t.Errorf("dump observed %d stable entries, want %d", n, stable)
				return
			}
		}
	}()

	// Stats sampler: totals never go backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for !stop.Load() {
			s := c.Stats()
			if s.Lookups < last.Lookups || s.Hits < last.Hits || s.Misses < last.Misses ||
				s.Probes < last.Probes || s.StageSkips < last.StageSkips ||
				s.Inserted < last.Inserted || s.Deleted < last.Deleted {
				t.Errorf("stats went backwards: %+v after %+v", s, last)
				return
			}
			last = s
		}
	}()

	wg.Wait()

	if got := c.Stats(); got.Lookups != got.Hits+got.Misses {
		t.Errorf("lookups %d != hits %d + misses %d", got.Lookups, got.Hits, got.Misses)
	}
	// All churn entries were deleted by the final DeleteWhere rounds or
	// remain; either way the stable set must be intact.
	for i, h := range stableHs {
		if _, _, ok := c.Lookup(h, 0); !ok {
			t.Fatalf("stable entry %d lost", i)
		}
	}
}
