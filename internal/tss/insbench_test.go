package tss

import (
	"runtime"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// BenchmarkInsertAtManyMasks measures the writer-side cost of one megaflow
// install into an attack-inflated classifier under the default scan, which
// keeps no probe mirror: an idempotent refresh clones its one-entry group,
// stores the clone into a copy of its pruning-tree path, and publishes.
// It is the per-upcall bill of the snapshot design when the flood repeats
// a megaflow; a new mask's bill is BenchmarkInsertAttackRamp's.
//
// Installs are idempotent refreshes round-robin over the 4096 seeded
// megaflows — the one-entry-per-mask attack shape — so the classifier
// stays in steady state for any b.N.
func BenchmarkInsertAtManyMasks(b *testing.B) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 4096)
	seed := c.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := seed[i%len(seed)]
		c.Insert(&Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}, 0)
	}
}

// BenchmarkInsertBatchAtManyMasks is the amortised counterpart: one
// 32-entry InsertBatch per op — the handler-drain burst shape — so the
// tree's top nodes, which the refreshes' paths share, and the publish are
// copied and paid once per 32 installs instead of per install. Compare ns/op/32 against
// BenchmarkInsertAtManyMasks to read the per-install win.
func BenchmarkInsertBatchAtManyMasks(b *testing.B) {
	const burst = 32
	l := bitvec.IPv4Tuple
	c := New(l, Options{DisableOverlapCheck: true})
	populateDistinctMasks(c, l, 4096)
	seed := c.Entries()
	es := make([]*Entry, burst)
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		for j := range es {
			e := seed[seq%len(seed)]
			seq++
			es[j] = &Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}
		}
		c.InsertBatch(es, 0, nil)
	}
}

// BenchmarkInsertIntoLargeGroup measures one install plus publish into
// TestWorkLedgerPins's 12 k-entry exact-match group, flow_setup's shape:
// the group is frozen by the previous publish, so every op clones it and
// copies what the write touches. Installs are idempotent refreshes
// round-robin over the installed entries, so the group stays at 12 k
// entries for any b.N.
func BenchmarkInsertIntoLargeGroup(b *testing.B) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	es := exactEntries(l, 12000)
	mustInsertBatch(b, c, es, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := es[i%len(es)]
		if err := c.Insert(&Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertAttackRamp prices the install the TSE attack forces once
// per spoofed packet: the 8 192 attack masks into a fresh classifier, one
// Insert (and so one publish) per mask, as a pool worker installs its
// inline miss, with the overlap check on. It reports the ramp's time,
// bytes and allocations per install, so a cost that grows with |M| shows
// as a higher mean.
func BenchmarkInsertAttackRamp(b *testing.B) {
	l := bitvec.IPv4Tuple
	tmpl := attackEntries(l, 32*16*16)
	es := make([]*Entry, len(tmpl))
	var ms runtime.MemStats
	var bytes, allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// An installed entry keeps its stamp: every ramp installs new ones.
		for k, e := range tmpl {
			es[k] = fresh(e, flowtable.Drop)
		}
		c := New(l, Options{})
		runtime.ReadMemStats(&ms)
		bytes, allocs = bytes-ms.TotalAlloc, allocs-ms.Mallocs
		b.StartTimer()
		for _, e := range es {
			if err := c.Insert(e, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		bytes, allocs = bytes+ms.TotalAlloc, allocs+ms.Mallocs
		b.StartTimer()
	}
	n := float64(b.N * len(es))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/install")
	b.ReportMetric(float64(bytes)/n, "B/install")
	b.ReportMetric(float64(allocs)/n, "allocs/install")
}
