package microflow

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

func hyp(v uint64) bitvec.Vec {
	h := bitvec.NewVec(bitvec.HYP)
	h.SetField(bitvec.HYP, 0, v)
	return h
}

// put caches r for h past the insertion draw, for the tests of the store
// itself: lookup, refresh, FIFO eviction, flush and key storage.
func put(c *Cache, h bitvec.Vec, r Result) { c.store(h, r) }

func TestLookupInsert(t *testing.T) {
	c := New(4)
	if _, ok := c.Lookup(hyp(1)); ok {
		t.Fatal("empty cache hit")
	}
	put(c, hyp(1), Result{Action: flowtable.Allow, OutPort: 3})
	r, ok := c.Lookup(hyp(1))
	if !ok || r.Action != flowtable.Allow || r.OutPort != 3 {
		t.Fatalf("lookup = %+v ok=%v", r, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New(2)
	put(c, hyp(0), Result{})
	put(c, hyp(1), Result{})
	put(c, hyp(2), Result{}) // evicts hyp(0)
	if _, ok := c.Lookup(hyp(0)); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.Lookup(hyp(1)); !ok {
		t.Error("newer entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestRefreshDoesNotGrow(t *testing.T) {
	c := New(2)
	put(c, hyp(0), Result{Action: flowtable.Drop})
	put(c, hyp(0), Result{Action: flowtable.Allow})
	if c.Len() != 1 {
		t.Errorf("Len = %d after refresh, want 1", c.Len())
	}
	if r, _ := c.Lookup(hyp(0)); r.Action != flowtable.Allow {
		t.Error("refresh did not update value")
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	for v := uint64(0); v < DefaultCapacity+10; v++ {
		h := bitvec.NewVec(bitvec.IPv4Tuple)
		h.SetField(bitvec.IPv4Tuple, 0, v)
		put(c, h, Result{})
	}
	if c.Len() != DefaultCapacity {
		t.Errorf("Len = %d, want %d", c.Len(), DefaultCapacity)
	}
}

// TestStatsAndEvictionOrder drives insert/lookup/refresh sequences and
// checks the Stats counters plus the FIFO semantics the megaflow-layer
// equivalence tests depend on: a refresh updates the value but must NOT
// move the entry in the eviction order, and eviction removes strictly
// oldest-first.
func TestStatsAndEvictionOrder(t *testing.T) {
	cases := []struct {
		name    string
		run     func(c *Cache)
		want    Stats
		wantLen int
		// present/absent list headers (by hyp value) to verify afterwards.
		present, absent []uint64
	}{
		{
			name: "misses then hits",
			run: func(c *Cache) {
				c.Lookup(hyp(1)) // miss
				put(c, hyp(1), Result{})
				c.Lookup(hyp(1)) // hit
				c.Lookup(hyp(2)) // miss
			},
			want:    Stats{Hits: 1, Misses: 2},
			wantLen: 1, present: []uint64{1}, absent: []uint64{2},
		},
		{
			name: "fifo eviction oldest first",
			run: func(c *Cache) {
				put(c, hyp(0), Result{})
				put(c, hyp(1), Result{})
				put(c, hyp(2), Result{})
				put(c, hyp(3), Result{}) // evicts 0
				put(c, hyp(4), Result{}) // evicts 1
			},
			want:    Stats{Evictions: 2},
			wantLen: 3, present: []uint64{2, 3, 4}, absent: []uint64{0, 1},
		},
		{
			name: "refresh does not reorder the fifo",
			run: func(c *Cache) {
				put(c, hyp(0), Result{})
				put(c, hyp(1), Result{})
				put(c, hyp(2), Result{})
				// Refresh the oldest: it must stay oldest.
				put(c, hyp(0), Result{Action: flowtable.Allow})
				put(c, hyp(3), Result{}) // must evict 0, not 1
			},
			want:    Stats{Evictions: 1},
			wantLen: 3, present: []uint64{1, 2, 3}, absent: []uint64{0},
		},
		{
			name: "reinsert after eviction goes to the back",
			run: func(c *Cache) {
				put(c, hyp(0), Result{})
				put(c, hyp(1), Result{})
				put(c, hyp(2), Result{})
				put(c, hyp(3), Result{}) // evicts 0
				put(c, hyp(0), Result{}) // evicts 1; 0 is newest again
				put(c, hyp(4), Result{}) // evicts 2
			},
			want:    Stats{Evictions: 3},
			wantLen: 3, present: []uint64{3, 0, 4}, absent: []uint64{1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(3)
			tc.run(c)
			s := c.Stats()
			if s.Evictions != tc.want.Evictions {
				t.Errorf("Evictions = %d, want %d", s.Evictions, tc.want.Evictions)
			}
			if tc.want.Hits+tc.want.Misses > 0 && (s.Hits != tc.want.Hits || s.Misses != tc.want.Misses) {
				t.Errorf("Hits/Misses = %d/%d, want %d/%d", s.Hits, s.Misses, tc.want.Hits, tc.want.Misses)
			}
			if c.Len() != tc.wantLen {
				t.Errorf("Len = %d, want %d", c.Len(), tc.wantLen)
			}
			for _, v := range tc.present {
				if _, ok := c.Lookup(hyp(v)); !ok {
					t.Errorf("header %d missing", v)
				}
			}
			for _, v := range tc.absent {
				if _, ok := c.Lookup(hyp(v)); ok {
					t.Errorf("header %d should have been evicted", v)
				}
			}
		})
	}
}

// TestFlushResetsEvictionState: after a flush (Sync to a newer
// generation), the FIFO restarts from scratch — eviction order is the
// post-flush insertion order, unaffected by pre-flush history.
func TestFlushResetsEvictionState(t *testing.T) {
	c := New(2)
	put(c, hyp(0), Result{})
	put(c, hyp(1), Result{})
	put(c, hyp(2), Result{}) // evicts 0
	c.Sync(1, true)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after flush", c.Len())
	}
	put(c, hyp(5), Result{})
	put(c, hyp(6), Result{})
	put(c, hyp(7), Result{}) // must evict 5, the post-flush oldest
	if _, ok := c.Lookup(hyp(5)); ok {
		t.Error("post-flush oldest entry not evicted first")
	}
	for _, v := range []uint64{6, 7} {
		if _, ok := c.Lookup(hyp(v)); !ok {
			t.Errorf("header %d missing after post-flush churn", v)
		}
	}
	// Counters are cumulative across the flush: evictions 1 (pre) + 1 (post).
	if s := c.Stats(); s.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (cumulative across the flush)", s.Evictions)
	}
}

// TestInsertClones: the cache must not alias the caller's header slice.
func TestInsertClones(t *testing.T) {
	c := New(4)
	h := hyp(3)
	put(c, h, Result{Action: flowtable.Allow})
	h.SetField(bitvec.HYP, 0, 5) // scribble on the caller's copy
	if _, ok := c.Lookup(hyp(3)); !ok {
		t.Error("cache aliased the caller's header")
	}
	if _, ok := c.Lookup(h); ok {
		t.Error("mutated header should miss")
	}
}

// TestLookupZeroAlloc asserts the EMC hot path never allocates — the
// tentpole invariant of the zero-allocation fast path.
func TestLookupZeroAlloc(t *testing.T) {
	c := New(8)
	hit := hyp(1)
	miss := hyp(2)
	put(c, hit, Result{Action: flowtable.Allow})
	if a := testing.AllocsPerRun(200, func() { c.Lookup(hit) }); a != 0 {
		t.Errorf("Lookup(hit) allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { c.Lookup(miss) }); a != 0 {
		t.Errorf("Lookup(miss) allocates %v/op, want 0", a)
	}
	hs := []bitvec.Vec{hit, miss, hit}
	res := make([]Result, len(hs))
	ok := make([]bool, len(hs))
	if a := testing.AllocsPerRun(200, func() { c.LookupBatch(hs, res, ok) }); a != 0 {
		t.Errorf("LookupBatch allocates %v/op, want 0", a)
	}
	// Evict-and-replace reuses the evicted entry's key storage: steady-state
	// insert churn on a full cache is allocation-free too.
	full := New(2)
	put(full, hyp(0), Result{})
	put(full, hyp(1), Result{})
	next := uint64(2)
	h := bitvec.NewVec(bitvec.HYP)
	if a := testing.AllocsPerRun(200, func() {
		h.SetField(bitvec.HYP, 0, next%8)
		next++
		put(full, h, Result{})
	}); a != 0 {
		t.Errorf("steady-state insert allocates %v/op, want 0", a)
	}
}

// BenchmarkEMCLookup prices the exact-match hot path (hit and miss).
func BenchmarkEMCLookup(b *testing.B) {
	c := New(0)
	l := bitvec.IPv4Tuple
	hit := bitvec.NewVec(l)
	hit.SetField(l, 0, 0x0a000001)
	miss := bitvec.NewVec(l)
	miss.SetField(l, 0, 0x0a000002)
	put(c, hit, Result{Action: flowtable.Allow})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Lookup(hit)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Lookup(miss)
		}
	})
}

// TestFlushAndHitRate: the hit rate read from Stats counts each lookup
// once, and a flush (Sync to a newer generation) empties the cache without
// resetting the counters.
func TestFlushAndHitRate(t *testing.T) {
	c := New(4)
	put(c, hyp(1), Result{})
	c.Lookup(hyp(1))
	c.Lookup(hyp(2))
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats = %+v, want 1 hit and 1 miss (hit rate 0.5)", st)
	}
	c.Sync(1, true)
	if c.Len() != 0 {
		t.Error("the flush did not empty cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats after the flush = %+v, want the counters kept", st)
	}
	if st := New(4).Stats(); st != (Stats{}) {
		t.Errorf("Stats on fresh cache = %+v, want zero", st)
	}
}

// ipv4(i) is the i-th of a stream of distinct IPv4 5-tuple headers.
func ipv4(i int) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	h.SetField(l, 0, 0x0b000000+uint64(i))
	return h
}

// TestNewInsertsOneInHundred: a cache built by New admits about one offer
// in 100. The draw is seeded, so the count of 10 000 distinct offers is
// pinned (a changed pin is a changed policy or seed), and a second fresh
// cache admits exactly the same headers.
func TestNewInsertsOneInHundred(t *testing.T) {
	a, b := New(0), New(0)
	for i := 0; i < 10000; i++ {
		a.Insert(ipv4(i), Result{})
		b.Insert(ipv4(i), Result{})
	}
	// Each admitted header fills a free entry or evicts one.
	const pinned = 107
	if got := uint64(a.Len()) + a.Stats().Evictions; got != pinned {
		t.Errorf("10000 offers admitted %d headers, pinned %d", got, pinned)
	}
	for i := 0; i < 10000; i++ {
		_, okA := a.Lookup(ipv4(i))
		_, okB := b.Lookup(ipv4(i))
		if okA != okB {
			t.Fatalf("header %d: cached %v in one fresh cache, %v in the other", i, okA, okB)
		}
	}
}

// TestSyncAndInsertAt: Sync flushes entries of an older generation;
// InsertAt drops a verdict of a generation the cache has left, and every
// verdict of a closed one; a lagging Sync neither flushes nor reopens an
// older generation. Each verdict is offered often enough for the draw to
// admit it about ten times, so one InsertAt keeps is surely cached.
func TestSyncAndInsertAt(t *testing.T) {
	c := New(4)
	offerAt := func(g Gen, h bitvec.Vec) {
		for i := 0; i < 10*insertInvProb; i++ {
			c.InsertAt(g, h, Result{})
		}
	}
	g0 := c.Sync(0, true)
	offerAt(g0, hyp(1))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after an insert at the current generation, want 1", c.Len())
	}
	g1 := c.Sync(1, true)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after the generation moved, want 0", c.Len())
	}
	offerAt(g0, hyp(2))
	if _, ok := c.Lookup(hyp(2)); ok {
		t.Error("a verdict of the left generation was inserted")
	}
	offerAt(g1, hyp(3))
	lag := c.Sync(0, true)
	if _, ok := c.Lookup(hyp(3)); !ok {
		t.Error("a lagging Sync flushed the newer generation's entries")
	}
	offerAt(lag, hyp(4))
	if _, ok := c.Lookup(hyp(4)); ok {
		t.Error("a lagging Sync's verdict was inserted")
	}
	closed := c.Sync(1, false)
	offerAt(closed, hyp(5))
	if _, ok := c.Lookup(hyp(5)); ok {
		t.Error("a verdict of a closed generation was inserted")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (hyp(3))", c.Len())
	}
}
