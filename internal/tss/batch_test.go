package tss

import (
	"fmt"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// exactCacheWithMasks builds a classifier with the given scan holding one
// entry under each of nMasks distinct prefix masks of the 16-bit toy
// field, plus the header
// that hits entry i.
func exactCacheWithMasks(t testing.TB, nMasks int, scan Scan) (*Classifier, []bitvec.Vec) {
	t.Helper()
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: 16})
	if nMasks > 15 {
		t.Fatalf("at most 15 distinct non-trivial prefix masks, got %d", nMasks)
	}
	c := New(l, Options{Scan: scan})
	hs := make([]bitvec.Vec, nMasks)
	for i := 0; i < nMasks; i++ {
		plen := i + 1
		mask := bitvec.PrefixMask(l, 0, plen)
		// Key: 1 at prefix bit plen-1, so each key matches only its own
		// mask group (all shorter prefixes see a 0 there... the converse:
		// keep keys disjoint by construction below).
		key := bitvec.NewVec(l)
		key.SetFieldBit(l, 0, plen-1)
		key = key.And(mask)
		if err := c.Insert(&Entry{Key: key, Mask: mask,
			Action: flowtable.Allow, RuleName: fmt.Sprintf("r%d", i)}, 0); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		// Header equal to the key hits it exactly.
		hs[i] = key.Clone()
	}
	return c, hs
}

// TestLookupBatchEquivalentToSerial: a batch over a hit-only sequence must
// return what per-packet Lookup returns on a twin classifier — entries,
// probe counts, stats, and per-entry LastUsed stamps all identical.
func TestLookupBatchEquivalentToSerial(t *testing.T) {
	serial, hs := exactCacheWithMasks(t, 12, ScanPruned)
	batched, _ := exactCacheWithMasks(t, 12, ScanPruned)

	// Repeat the headers a few times in a mixed order.
	var trace []bitvec.Vec
	for r := 0; r < 3; r++ {
		for i := range hs {
			trace = append(trace, hs[(i*7+r)%len(hs)])
		}
	}
	// Two batches at two virtual times: the first batch's stamps must be
	// overwritten exactly where the second batch hits.
	half := len(trace) / 2
	out := make([]BatchResult, len(trace))
	for k, part := range [][]bitvec.Vec{trace[:half], trace[half : half+len(hs)/2]} {
		now := int64(5 + k)
		n := batched.LookupBatch(part, now, out)
		if n != len(part) {
			t.Fatalf("hit-only batch consumed %d of %d", n, len(part))
		}
		for i, h := range part {
			e, probes, ok := serial.Lookup(h, now)
			if ok != out[i].OK || probes != out[i].Probes {
				t.Fatalf("packet %d: batch (probes=%d ok=%v) != serial (probes=%d ok=%v)",
					i, out[i].Probes, out[i].OK, probes, ok)
			}
			if e.RuleName != out[i].Entry.RuleName {
				t.Fatalf("packet %d: batch rule %q != serial %q",
					i, out[i].Entry.RuleName, e.RuleName)
			}
		}
	}
	if ss, bs := serial.Stats(), batched.Stats(); ss != bs {
		t.Errorf("stats diverge: serial %+v, batch %+v", ss, bs)
	}
	se, be := serial.Entries(), batched.Entries()
	for i := range se {
		if se[i].LastUsed != be[i].LastUsed {
			t.Errorf("entry %d last used: serial %d, batch %d", i, se[i].LastUsed, be[i].LastUsed)
		}
	}
}

// TestLookupBatchStatsEqualSerial: LookupBatch publishes its counters once
// per batch, and the totals a handle reports afterwards are exactly what
// the same headers sent one by one through Lookup leave, misses included,
// under both scans.
func TestLookupBatchStatsEqualSerial(t *testing.T) {
	for _, scan := range []Scan{ScanPruned, ScanLinear} {
		t.Run(fmt.Sprintf("linear=%v", scan == ScanLinear), func(t *testing.T) {
			serial, hs := exactCacheWithMasks(t, 12, scan)
			batched, _ := exactCacheWithMasks(t, 12, scan)
			miss := bitvec.NewVec(serial.Layout())
			var trace []bitvec.Vec
			for i := 0; i < 100; i++ {
				if i%9 == 4 {
					trace = append(trace, miss)
					continue
				}
				trace = append(trace, hs[(i*5)%len(hs)])
			}
			sh, bh := serial.NewHandle(), batched.NewHandle()
			for _, h := range trace {
				sh.Lookup(h, 3)
			}
			out := make([]BatchResult, len(trace))
			batches := 0
			for rest := trace; len(rest) > 0; batches++ {
				rest = rest[bh.LookupBatch(rest, 3, out):]
			}
			if batches < 2 {
				t.Fatalf("trace ran as %d batch(es); misses should split it", batches)
			}
			ss, bs := sh.Stats(), bh.Stats()
			if ss != bs {
				t.Errorf("handle stats diverge: serial %+v, batch %+v", ss, bs)
			}
			if bs.Lookups != uint64(len(trace)) || bs.Misses == 0 || bs.Probes == 0 {
				t.Errorf("batch handle stats %+v over %d headers", bs, len(trace))
			}
			if st, bt := serial.Stats(), batched.Stats(); st != bt {
				t.Errorf("classifier stats diverge: serial %+v, batch %+v", st, bt)
			}
		})
	}
}

// TestLookupBatchStopsAtMiss: the batch consumes up to and including the
// first miss, leaving the rest for the caller's upcall handling.
func TestLookupBatchStopsAtMiss(t *testing.T) {
	c, hs := exactCacheWithMasks(t, 8, ScanLinear)
	// The all-zero header misses every group: each group's only key has a
	// bit set inside its own mask prefix.
	miss := bitvec.NewVec(c.Layout())
	trace := []bitvec.Vec{hs[0], hs[1], miss, hs[2], hs[3]}
	out := make([]BatchResult, len(trace))
	n := c.LookupBatch(trace, 0, out)
	if n != 3 {
		t.Fatalf("consumed %d, want 3 (two hits plus the miss)", n)
	}
	if out[0].OK != true || out[1].OK != true || out[2].OK != false {
		t.Fatalf("unexpected hit pattern: %+v", out[:3])
	}
	if out[2].Probes != c.MaskCount() {
		t.Errorf("miss probed %d masks, want the full linear scan of %d",
			out[2].Probes, c.MaskCount())
	}
	// Remainder processes cleanly.
	if m := c.LookupBatch(trace[n:], 0, out); m != 2 {
		t.Errorf("second call consumed %d, want 2", m)
	}
}

func TestLookupBatchEmpty(t *testing.T) {
	c, _ := exactCacheWithMasks(t, 3, ScanPruned)
	if n := c.LookupBatch(nil, 0, nil); n != 0 {
		t.Errorf("empty batch consumed %d", n)
	}
}

// BenchmarkLookupBatch compares per-packet Lookup against LookupBatch on
// the same hit-only burst: the batch amortises the reader-lock round trip
// over 32 packets.
func BenchmarkLookupBatch(b *testing.B) {
	c, hs := exactCacheWithMasks(b, 15, ScanPruned)
	burst := make([]bitvec.Vec, 32)
	for i := range burst {
		burst[i] = hs[i%len(hs)]
	}
	b.Run("perPacket", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, h := range burst {
				c.Lookup(h, 0)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(burst))/b.Elapsed().Seconds(), "pkts/s")
	})
	b.Run("batch32", func(b *testing.B) {
		out := make([]BatchResult, len(burst))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rest := burst
			for len(rest) > 0 {
				rest = rest[c.LookupBatch(rest, 0, out):]
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(burst))/b.Elapsed().Seconds(), "pkts/s")
	})
}
