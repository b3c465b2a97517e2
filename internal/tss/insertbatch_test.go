package tss

import (
	"errors"
	"fmt"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// batchEntries builds n disjoint entries under n distinct masks
// (ip_src/32 + tp_dst prefix), offset so they do not collide with
// populateDistinctMasks output.
func batchEntries(l *bitvec.Layout, n int) []*Entry {
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	sp, _ := l.FieldIndex("tp_src")
	es := make([]*Entry, 0, n)
	for j := 1; len(es) < n; j++ {
		jj, k := (j-1)%16+1, (j-1)/16
		// Full ip_src in every mask keeps the batch disjoint via distinct
		// source addresses; the zeroed ip_src high nibble keeps it disjoint
		// from populateDistinctMasks' one-hot prefix keys.
		mask := bitvec.PrefixMask(l, sip, 32).Or(bitvec.PrefixMask(l, sp, jj))
		key := bitvec.NewVec(l)
		key.SetField(l, sip, uint64(0x000fe000+j))
		key.SetFieldBit(l, sp, jj-1)
		if k > 0 {
			mask = mask.Or(bitvec.PrefixMask(l, dip, k))
			key.SetFieldBit(l, dip, k-1)
		}
		es = append(es, &Entry{Key: key.And(mask), Mask: mask,
			Action: flowtable.Allow, RuleName: fmt.Sprintf("batch-%d", j), Port: int32(j % 3)})
	}
	return es
}

// TestInsertBatchPublishesOnce is the acceptance criterion of the batched
// slow path: a K-entry install burst performs exactly one snapshot publish
// (one chunk-directory copy), against K for the serial path.
func TestInsertBatchPublishesOnce(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	populateDistinctMasks(c, l, 64)
	const k = 16
	es := batchEntries(l, k)

	before := c.Stats().Publishes
	for _, err := range c.InsertBatch(es, 5, nil) {
		if err != nil {
			t.Fatalf("batch insert failed: %v", err)
		}
	}
	if got := c.Stats().Publishes - before; got != 1 {
		t.Fatalf("InsertBatch of %d entries published %d snapshots, want exactly 1", k, got)
	}

	// Serial control: the same burst pays one publish per install.
	c2 := New(l, Options{})
	populateDistinctMasks(c2, l, 64)
	before = c2.Stats().Publishes
	for _, e := range batchEntries(l, k) {
		if err := c2.Insert(e, 5); err != nil {
			t.Fatalf("serial insert failed: %v", err)
		}
	}
	if got := c2.Stats().Publishes - before; got != k {
		t.Fatalf("serial control published %d snapshots, want %d", got, k)
	}
}

// TestInsertBatchMatchesSerial: the transaction is semantically invisible —
// same entries, same scan order, same lookup results as serial Inserts.
func TestInsertBatchMatchesSerial(t *testing.T) {
	l := bitvec.IPv4Tuple
	batched := New(l, Options{})
	serial := New(l, Options{})
	populateDistinctMasks(batched, l, 32)
	populateDistinctMasks(serial, l, 32)

	es := batchEntries(l, 24)
	for i, err := range batched.InsertBatch(es, 7, nil) {
		if err != nil {
			t.Fatalf("batch entry %d: %v", i, err)
		}
	}
	for _, e := range batchEntries(l, 24) {
		if err := serial.Insert(e, 7); err != nil {
			t.Fatal(err)
		}
	}

	if bn, sn := batched.EntryCount(), serial.EntryCount(); bn != sn {
		t.Fatalf("entry counts diverge: batched %d, serial %d", bn, sn)
	}
	be, se := batched.Entries(), serial.Entries()
	for i := range be {
		if !be[i].Key.Equal(se[i].Key) || !be[i].Mask.Equal(se[i].Mask) ||
			be[i].Action != se[i].Action || be[i].Port != se[i].Port {
			t.Fatalf("entry %d diverges: batched %+v, serial %+v", i, be[i], se[i])
		}
	}
	// Every batch entry is immediately visible to the lock-free read path.
	for i, e := range es {
		got, _, ok := batched.Lookup(e.Key, 8)
		if !ok || got.RuleName != e.RuleName {
			t.Fatalf("batch entry %d not found after commit (ok=%v)", i, ok)
		}
	}
}

// TestInsertBatchPartialFailure: invalid or overlapping entries error
// individually without blocking the rest of the batch, exactly as the same
// sequence of serial Inserts would.
func TestInsertBatchPartialFailure(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	es := batchEntries(l, 4)
	// es[1] overlaps es[0]: same key under a wider mask region. Reuse
	// es[0]'s mask and key so it lands in the refresh path instead — make
	// a *different* entry overlapping es[0]: widen the mask to ip_src only
	// with the same ip_src key bits.
	sip, _ := l.FieldIndex("ip_src")
	overlapping := &Entry{
		Key:  bitvec.NewVec(l),
		Mask: bitvec.PrefixMask(l, sip, 32),
	}
	overlapping.Key.SetField(l, sip, 0x000fe001)
	es[1] = overlapping
	// es[2] is structurally invalid: key bits outside the mask.
	bad := &Entry{Key: bitvec.FullMask(l), Mask: bitvec.PrefixMask(l, sip, 8)}
	es[2] = bad

	errs := c.InsertBatch(es, 0, nil)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid entries errored: %v, %v", errs[0], errs[3])
	}
	var overlap *ErrOverlap
	if !errors.As(errs[1], &overlap) {
		t.Fatalf("overlapping entry error = %v, want *ErrOverlap", errs[1])
	}
	if errs[2] == nil {
		t.Fatal("invalid entry accepted")
	}
	if got := c.EntryCount(); got != 2 {
		t.Fatalf("entry count %d after partial batch, want 2", got)
	}
}

// TestInsertBatchRefresh: duplicate (key, mask) within one batch follows
// the idempotent-refresh path; the second copy replaces the first without
// growing the cache.
func TestInsertBatchRefresh(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := New(l, Options{})
	es := batchEntries(l, 2)
	dup := *es[0]
	dup.RuleName = "refreshed"
	es = append(es, &dup)
	for i, err := range c.InsertBatch(es, 0, nil) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if got := c.EntryCount(); got != 2 {
		t.Fatalf("entry count %d, want 2 (duplicate refreshed)", got)
	}
	e, _, ok := c.Lookup(es[0].Key, 1)
	if !ok || e.RuleName != "refreshed" {
		t.Fatalf("refresh within batch not applied: %+v ok=%v", e, ok)
	}
}
