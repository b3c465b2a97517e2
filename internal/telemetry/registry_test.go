package telemetry

import (
	"sync"
	"testing"
)

// TestCounterSharded: increments land regardless of shard index (masked,
// so out-of-range worker IDs are safe) and Value sums every shard.
func TestCounterSharded(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("c", "")
	c.Add(0, 1)
	c.Add(1, 2)
	c.Add(3, 3)
	c.Add(7, 1) // masked down into range
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

// TestRegistryIdempotent: same-name registration returns the same
// metric; func-backed metrics swap closures; kind conflicts panic.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry(1)
	a := r.Counter("x", "")
	if b := r.Counter("x", "other help"); b != a {
		t.Fatal("re-registration built a second counter")
	}
	r.GaugeFunc("g", "", func() int64 { return 1 })
	r.GaugeFunc("g", "", func() int64 { return 2 })
	if v := r.Snapshot().Value("g"); v != 2 {
		t.Fatalf("GaugeFunc re-registration kept the old closure: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBuckets: observations land in the first bound >= v, with
// an implicit +Inf overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(2)
	h := r.Histogram("h", "", []int64{0, 1, 4})
	for _, v := range []int64{0, 0, 1, 3, 4, 9} {
		h.Observe(0, v)
	}
	h.Observe(1, 2) // second shard merges into the same snapshot
	p, ok := r.Snapshot().Get("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []uint64{2, 1, 3, 1} // le=0, le=1, le=4, +Inf
	for i, b := range p.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, b, want[i], p.Buckets)
		}
	}
	if p.Count != 7 || p.Sum != 19 {
		t.Fatalf("count=%d sum=%d, want 7/19", p.Count, p.Sum)
	}
}

// TestSnapshotDelta: counters and histograms subtract, gauges pass
// through at their current level.
func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry(1)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{1})
	c.Add(0, 5)
	g.Set(10)
	h.Observe(0, 1)
	prev := r.Snapshot()
	c.Add(0, 3)
	g.Set(4)
	h.Observe(0, 2)
	d := r.Snapshot().Delta(prev)
	if v := d.Value("c"); v != 3 {
		t.Errorf("counter delta = %v, want 3", v)
	}
	if v := d.Value("g"); v != 4 {
		t.Errorf("gauge in delta = %v, want current level 4", v)
	}
	p, _ := d.Get("h")
	if p.Count != 1 || p.Sum != 2 || p.Buckets[1] != 1 {
		t.Errorf("histogram delta = %+v, want count=1 sum=2 +Inf=1", p)
	}
}

// TestHotPathAllocs is the zero-alloc acceptance assertion: counter,
// gauge, and histogram writes must be free of allocation so attaching a
// registry cannot move the hot-path figures.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{0, 1, 2, 4, 8})
	if n := testing.AllocsPerRun(1000, func() { c.Add(1, 1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3, 2) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(7) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(2, 3) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestConcurrentIncrementSnapshot hammers one counter and one histogram
// from parallel writers while a reader snapshots — the -race CI job
// proves the sharded cells and snapshot reads never conflict.
func TestConcurrentIncrementSnapshot(t *testing.T) {
	r := NewRegistry(8)
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []int64{1, 2})
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(shard, 1)
				h.Observe(shard, int64(i%4))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	p, _ := r.Snapshot().Get("h")
	if p.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", p.Count, writers*perWriter)
	}
}
