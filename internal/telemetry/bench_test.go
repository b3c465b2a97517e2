package telemetry

import "testing"

// BenchmarkCounterAdd prices the sharded-counter increment every
// instrumented touch of the datapath pays. It must stay allocation-free
// (TestHotPathAllocs asserts that); this row keeps its cost visible.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry(4).Counter("bench_ctr", "benchmark counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(0, 1)
	}
}

// BenchmarkHistObserve prices the histogram observe on the upcall
// residence path.
func BenchmarkHistObserve(b *testing.B) {
	h := NewRegistry(4).Histogram("bench_hist", "benchmark histogram", []int64{1, 2, 4, 8, 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0, int64(i&15))
	}
}
