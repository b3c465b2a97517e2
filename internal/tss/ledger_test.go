package tss

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
)

// attackEntries returns the SipSpDp TSE megaflow family: one deny entry
// per (ip_src /i, tp_src /j, tp_dst /k) prefix-mask combination, i ≤ 32,
// j, k ≤ 16 — 8 192 distinct masks, the shape the paper's attack ramps the
// cache to. Each key is "0…01" up to the prefix end in every field, so the
// family is pairwise disjoint and the overlap check can stay on. The order
// is a seeded shuffle, as a trace delivers the ramp.
func attackEntries(l *bitvec.Layout, n int) []*Entry {
	sip, _ := l.FieldIndex("ip_src")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")
	all := make([]*Entry, 0, 32*16*16)
	for i := 1; i <= 32; i++ {
		for j := 1; j <= 16; j++ {
			for k := 1; k <= 16; k++ {
				mask := bitvec.PrefixMask(l, sip, i).Or(bitvec.PrefixMask(l, sp, j)).Or(bitvec.PrefixMask(l, dp, k))
				key := bitvec.NewVec(l)
				key.SetFieldBit(l, sip, i-1)
				key.SetFieldBit(l, sp, j-1)
				key.SetFieldBit(l, dp, k-1)
				all = append(all, &Entry{Key: key, Mask: mask, Action: flowtable.Drop,
					RuleName: fmt.Sprintf("tse-%d-%d-%d", i, j, k)})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all[:n]
}

// exactEntries returns n exact-match entries (full mask, distinct ip_src),
// the §5.4 / flow_setup shape: one mask, one ever-growing group. They are
// disjoint from attackEntries (tp_src is zero, every attack key has a one
// inside its tp_src prefix).
func exactEntries(l *bitvec.Layout, n int) []*Entry {
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	es := make([]*Entry, n)
	for i := range es {
		key := bitvec.NewVec(l)
		key.SetField(l, sip, uint64(0x0a000000+i))
		key.SetField(l, dip, 1)
		es[i] = &Entry{Key: key, Mask: bitvec.FullMask(l), Action: flowtable.Drop, RuleName: "exact"}
	}
	return es
}

// mustInsertBatch installs es in one transaction (one publish), failing the
// test on any per-entry error.
func mustInsertBatch(t testing.TB, c *Classifier, es []*Entry, now int64) {
	t.Helper()
	for i, err := range c.InsertBatch(es, now, nil) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
}

// ledger is the writer-side work one operation did, read as Stats deltas.
type ledger struct {
	publishes, probesCopied, slotsCopied, overlapCompared, indexCopied uint64
}

func ledgerDelta(before, after Stats) ledger {
	return ledger{
		publishes:       after.Publishes - before.Publishes,
		probesCopied:    after.ProbesCopied - before.ProbesCopied,
		slotsCopied:     after.SlotsCopied - before.SlotsCopied,
		overlapCompared: after.OverlapCompared - before.OverlapCompared,
		indexCopied:     after.IndexCopied - before.IndexCopied,
	}
}

// TestWorkLedgerPins pins the writer's work ledger as exact integers on
// the three operations the benchmark's slow workloads repeat: one attack
// megaflow install during the ramp (tse_attack), one install into a 12 k
// exact-match group (flow_setup), and a revalidator sweep expiring 4 096
// entries (flow_setup's tick; fig8a/fig8c/saturation's recovery), plus a
// sparse sweep expiring 64 entries of the 12 k group. Counts
// repeat exactly on any host, so a change that makes a write copy or
// compare more than it did fails here with no timing spread to hide in.
// No operation copies probe records under the default scan, which keeps
// no probe mirror; the attack operations' ScanLinear rows keep the
// mirror's bill, the one the paper's linear-scan model pays, in view.
//
// No install copies anything of the pruning index (indexCopied 0). The
// attack install writes its new group's ref past the published count of
// the leaf on its path, where no snapshot looks, and so do the installs
// that follow a sweep of half the attack groups. The install into the 12 k
// group writes one slot in place: a new key that keeps a published
// multi-entry group within its load. The install that doubles a
// 12 288-entry group builds the doubled group straight from the published
// one, so it copies no slot, and stores it over the old one in its leaf's
// ref, since every older snapshot skips the one entry it adds. Removals
// still copy: a sweep that removes entries from a multi-entry group clones
// it, a clone copies its one slot table whole (16 384 slots for the 12 k
// group whether the sweep expires 4 096 entries or 64), and the clone is
// stored into a copy of the five tree nodes on its path (5). A sweep of
// 4 096 one-entry attack groups copies the nodes on their paths (545).
// attackInstall returns TestWorkLedgerPins' attack install: a classifier
// holding masks-1 attack masks, and the install of the last one.
func attackInstall(masks int, scan Scan) (func(t *testing.T) *Classifier, func(*Classifier) error) {
	l := bitvec.IPv4Tuple
	es := attackEntries(l, masks)
	return func(t *testing.T) *Classifier {
			c := New(l, Options{Scan: scan})
			mustInsertBatch(t, c, es[:masks-1], 0)
			return c
		}, func(c *Classifier) error {
			return c.Insert(es[masks-1], 1)
		}
}

func TestWorkLedgerPins(t *testing.T) {
	l := bitvec.IPv4Tuple
	// exactGroupOf installs n exact-match entries, the first idle of them
	// at time 0 and the rest at 100.
	exactGroupOf := func(n, idle int) func(t *testing.T) *Classifier {
		return func(t *testing.T) *Classifier {
			c := New(l, Options{})
			es := exactEntries(l, n)
			mustInsertBatch(t, c, es[:idle], 0)
			mustInsertBatch(t, c, es[idle:], 100)
			return c
		}
	}
	exactGroup := exactGroupOf(12000, 4096)
	attackGroups := func(scan Scan) func(t *testing.T) *Classifier {
		return func(t *testing.T) *Classifier {
			c := New(l, Options{Scan: scan})
			es := attackEntries(l, 8192)
			mustInsertBatch(t, c, es[:4096], 0)
			mustInsertBatch(t, c, es[4096:], 100)
			return c
		}
	}
	expire4096 := func(c *Classifier) error {
		if n := expireIdle(c, 105, 10); n != 4096 {
			return fmt.Errorf("expired %d, want 4096", n)
		}
		return nil
	}
	// afterSweep holds 4 000 attack masks, 2 048 of them expired, and
	// installs 4 more, one publish each.
	afterSweep := func(t *testing.T) *Classifier {
		c := New(l, Options{})
		es := attackEntries(l, 4000)
		mustInsertBatch(t, c, es[:2048], 0)
		mustInsertBatch(t, c, es[2048:], 100)
		if n := expireIdle(c, 105, 10); n != 2048 {
			t.Fatalf("expired %d, want 2048", n)
		}
		return c
	}
	ins1024, op1024 := attackInstall(1024, ScanPruned)
	ins8192, op8192 := attackInstall(8192, ScanPruned)
	lin1024, linOp1024 := attackInstall(1024, ScanLinear)
	lin8192, linOp8192 := attackInstall(8192, ScanLinear)
	cases := []struct {
		name  string
		build func(t *testing.T) *Classifier
		op    func(*Classifier) error
		want  ledger
	}{
		{"attack install at 1024 masks", ins1024, op1024,
			ledger{publishes: 1, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"attack install at 8192 masks", ins8192, op8192,
			ledger{publishes: 1, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"attack install at 1024 masks under ScanLinear", lin1024, linOp1024,
			ledger{publishes: 1, probesCopied: 253, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"attack install at 8192 masks under ScanLinear", lin8192, linOp8192,
			ledger{publishes: 1, probesCopied: 210, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"4 attack installs after a sweep of 2048 of 4000 masks", afterSweep, func(c *Classifier) error {
			for _, e := range attackEntries(l, 4004)[4000:] {
				if err := c.Insert(e, 100); err != nil {
					return err
				}
			}
			return nil
		}, ledger{publishes: 4, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"install into a 12k-entry group", exactGroup, func(c *Classifier) error {
			return c.Insert(exactEntries(l, 12001)[12000], 100)
		}, ledger{publishes: 1, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"install that doubles a 12288-entry group", exactGroupOf(12288, 4096), func(c *Classifier) error {
			return c.Insert(exactEntries(l, 12289)[12288], 100)
		}, ledger{publishes: 1, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 0}},
		{"expire 4096 of a 12k-entry group", exactGroup, func(c *Classifier) error {
			if n := expireIdle(c, 105, 10); n != 4096 {
				return fmt.Errorf("expired %d, want 4096", n)
			}
			return nil
		}, ledger{publishes: 1, probesCopied: 0, slotsCopied: 16384, overlapCompared: 0, indexCopied: 5}},
		{"expire 64 of a 12k-entry group", exactGroupOf(12000, 64), func(c *Classifier) error {
			if n := expireIdle(c, 105, 10); n != 64 {
				return fmt.Errorf("expired %d, want 64", n)
			}
			return nil
		}, ledger{publishes: 1, probesCopied: 0, slotsCopied: 16384, overlapCompared: 0, indexCopied: 5}},
		{"expire 4096 one-entry attack groups", attackGroups(ScanPruned), expire4096,
			ledger{publishes: 1, probesCopied: 0, slotsCopied: 0, overlapCompared: 0, indexCopied: 545}},
		{"expire 4096 one-entry attack groups under ScanLinear", attackGroups(ScanLinear), expire4096,
			ledger{publishes: 1, probesCopied: 4096, slotsCopied: 0, overlapCompared: 0, indexCopied: 545}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			before := c.Stats()
			if err := tc.op(c); err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			if got := ledgerDelta(before, after); got != tc.want {
				t.Errorf("ledger = %+v, want %+v", got, tc.want)
			}
			// The /metrics views read the same counters.
			reg := telemetry.NewRegistry(1)
			c.AttachMetrics(reg)
			snap := reg.Snapshot()
			for name, v := range map[string]uint64{
				"tse_tss_probes_copied_total":    after.ProbesCopied,
				"tse_tss_slots_copied_total":     after.SlotsCopied,
				"tse_tss_overlap_compared_total": after.OverlapCompared,
				"tse_tss_index_copied_total":     after.IndexCopied,
			} {
				if got := snap.Value(name); got != float64(v) {
					t.Errorf("%s = %v, Stats says %d", name, got, v)
				}
			}
		})
	}
}

// TestAttackInstallBytesFlat pins that an attack install allocates as
// much at 8 192 masks as at 1 024, and at most 420 bytes: the two installs'
// bytes fall in the same power-of-two class, under the bound. An install
// that copies something whose size grows with |M| fails here. The bound
// holds the one-entry group to one small object: its slot table, stage
// filters, mask key string and word list made the install 592 bytes. Each
// count takes the least of three builds, so an allocation the runtime
// makes meanwhile does not count.
func TestAttackInstallBytesFlat(t *testing.T) {
	const bound = 420
	var b [2]uint64
	for i, masks := range []int{1024, 8192} {
		b[i] = ^uint64(0)
		for range 3 {
			build, op := attackInstall(masks, ScanPruned)
			c := build(t)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := op(c); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			b[i] = min(b[i], ms.TotalAlloc-before)
		}
	}
	if bits.Len64(b[0]) != bits.Len64(b[1]) {
		t.Errorf("attack install allocates %d bytes at 1024 masks, %d at 8192", b[0], b[1])
	}
	if b[0] > bound || b[1] > bound {
		t.Errorf("attack install allocates %d bytes at 1024 masks, %d at 8192, want <= %d", b[0], b[1], bound)
	}
}

// BenchmarkExpireIdleGroups times one revalidator sweep that expires every
// entry of n one-entry attack groups — the recovery phase of fig8a, fig8c
// and saturation, when the flood stops and the whole inflated tuple space
// idles out in one tick.
func BenchmarkExpireIdleGroups(b *testing.B) {
	l := bitvec.IPv4Tuple
	for _, n := range []int{1024, 4096, 8192} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			es := attackEntries(l, n)
			c := New(l, Options{DisableOverlapCheck: true})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mustInsertBatch(b, c, es, 0)
				b.StartTimer()
				if got := expireIdle(c, 10, 10); got != n {
					b.Fatalf("expired %d, want %d", got, n)
				}
			}
		})
	}
}
