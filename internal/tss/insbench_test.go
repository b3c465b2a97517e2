package tss

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// BenchmarkInsertAtManyMasks measures the writer-side cost of one megaflow
// install into an attack-inflated classifier: the copy-on-write publish
// copies the probe mirror's chunk directory plus the one chunk the install
// touched (Stats.ProbesCopied), so this is the per-upcall bill the
// snapshot design charges the slow path to keep the read path lock-free.
//
// Installs are idempotent refreshes round-robin over the 4096 seeded
// megaflows — the one-entry-per-mask attack shape — so the classifier
// stays in steady state for any b.N: each op pays one tiny-group clone
// plus one chunk copy and the publish, which is the quantity under test.
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
// directory copy and publish are paid once per 32 installs instead of per
// install. Compare ns/op/32 against BenchmarkInsertAtManyMasks to read the
// per-install win.
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
