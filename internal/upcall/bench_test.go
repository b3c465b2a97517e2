package upcall_test

import (
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/tss"
	"tse/internal/upcall"
)

// BenchmarkSubmitDedup measures the pending-table hit: the per-packet cost
// a same-flow miss burst pays after its first packet. This is the path
// that keeps a hot new flow from flooding the handlers, so it must stay
// cheap (a map probe, no queue traffic). A live metrics registry is
// attached: the figure is the instrumented path production pays, not the
// nil-registry fast path.
func BenchmarkSubmitDedup(b *testing.B) {
	sw := newSwitch(b, flowtable.SipDp)
	sub := newSub(b, sw, 1, upcall.Options{Metrics: telemetry.NewRegistry(4)})
	h := header(0x0a000001, 40000)
	sub.Submit(0, h, 0) // park one pending upcall; everything coalesces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.Submit(0, h, 0)
	}
}

// BenchmarkRoundtripSuppressed measures the full submit→queue→handle round
// trip. It runs against a monitor-deleted megaflow with the revalidator
// quirk active — the one slow-path shape that is stationary under
// repetition (classification happens, no install mutates the cache), which
// is also exactly the forever-slow-path traffic MFCGuard deletions create.
// Instrumented like BenchmarkSubmitDedup.
func BenchmarkRoundtripSuppressed(b *testing.B) {
	sw := newSwitch(b, flowtable.SipDp)
	sub := newSub(b, sw, 1, upcall.Options{Metrics: telemetry.NewRegistry(4)})
	h := header(0x0a000002, 40001)
	sw.Process(h, 0)
	sw.DeleteMegaflows(func(*tss.Entry) bool { return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.SubmitSync(0, h, 0)
	}
}

// BenchmarkRevalidatorSweep measures one dump-and-check pass over a cache
// inflated to the SipDp attack shape (~257 one-entry masks), the recurring
// background cost the revalidator adds.
func BenchmarkRevalidatorSweep(b *testing.B) {
	sw := newSwitch(b, flowtable.SipDp)
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range tr.Headers {
		sw.Process(h, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// now = 0 keeps every entry warm and valid: the sweep dumps and
		// re-checks the full cache, deleting nothing.
		rv.Sweep(0)
	}
}

// BenchmarkResidenceObserve measures the flow-setup latency accounting
// added to every handler pop: one histogram update on the slow-path
// service loop.
func BenchmarkResidenceObserve(b *testing.B) {
	var h upcall.LatencyHist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 15)
	}
}

// BenchmarkResidenceQuantile measures the percentile read the dataplane
// sampler and the revalidator's residence sensor issue per virtual second.
func BenchmarkResidenceQuantile(b *testing.B) {
	var h upcall.LatencyHist
	for s := int64(0); s < 64; s++ {
		h.Observe(s & 15)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.P99() < 0 {
			b.Fatal("empty histogram")
		}
	}
}
