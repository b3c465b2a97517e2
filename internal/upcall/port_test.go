// Tests for the port-keyed slow path: per-port admission quotas (the
// fairness invariant the vport refactor exists for), the adaptive quota
// feedback loop, and the batched handler drain's single-publish guarantee.
package upcall_test

import (
	"sync"
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/upcall"
)

// TestPortQuotaIndependence: one port's flood exhausting its admission
// quota leaves another port's full budget untouched — ports are sources,
// so sharing a PMD worker no longer means sharing a bucket.
func TestPortQuotaIndependence(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{QuotaPerSource: 4})
	for i := 0; i < 10; i++ {
		_, out := sub.Submit(0, header(0x0a100000+uint32(i), 47000), 0)
		want := upcall.Enqueued
		if i >= 4 {
			want = upcall.DroppedQuota
		}
		if out != want {
			t.Fatalf("flood submit %d: %v, want %v", i, out, want)
		}
	}
	// The victim port, same virtual second: full quota available.
	for i := 0; i < 4; i++ {
		if _, out := sub.Submit(1, header(0x0a200000+uint32(i), 47100), 0); out != upcall.Enqueued {
			t.Fatalf("victim submit %d refused (%v) despite its own bucket", i, out)
		}
	}
	per := sub.PerSource()
	if per[0].Enqueued != 4 || per[0].QuotaDrops != 6 {
		t.Errorf("flood port stats %+v, want 4 enqueued / 6 quota drops", per[0])
	}
	if per[1].Enqueued != 4 || per[1].QuotaDrops != 0 {
		t.Errorf("victim port stats %+v, want 4 enqueued / 0 drops", per[1])
	}
}

// TestSetQuotaOverride: a per-source override takes effect at the next
// token refill and a negative value restores the configured default.
func TestSetQuotaOverride(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{QuotaPerSource: 8})
	sub.SetQuota(0, 2)
	if got := sub.QuotaFor(0); got != 2 {
		t.Fatalf("QuotaFor(0) = %d after override, want 2", got)
	}
	if got := sub.QuotaFor(1); got != 8 {
		t.Fatalf("QuotaFor(1) = %d, want the configured 8", got)
	}
	for i := 0; i < 3; i++ {
		_, out := sub.Submit(0, header(0x0a300000+uint32(i), 47200), 0)
		want := upcall.Enqueued
		if i >= 2 {
			want = upcall.DroppedQuota
		}
		if out != want {
			t.Fatalf("submit %d under override: %v, want %v", i, out, want)
		}
	}
	sub.SetQuota(0, -1)
	if got := sub.QuotaFor(0); got != 8 {
		t.Fatalf("QuotaFor(0) = %d after clearing the override, want 8", got)
	}
}

// TestAdaptiveQuotaFor pins the controller curve: full quota at or below
// the target, inverse shrink beyond it, floored at MinQuota.
func TestAdaptiveQuotaFor(t *testing.T) {
	a := upcall.AdaptiveQuota{BaseQuota: 64, MinQuota: 4, TargetFootprint: 64}
	cases := []struct{ pressure, want int }{
		{0, 64}, {64, 64}, {128, 32}, {256, 16}, {4096, 4}, {1 << 20, 4},
	}
	for _, c := range cases {
		if got := a.QuotaFor(c.pressure); got != c.want {
			t.Errorf("QuotaFor(%d) = %d, want %d", c.pressure, got, c.want)
		}
	}
	// Defaults: MinQuota -> 1, TargetFootprint -> BaseQuota.
	d := upcall.AdaptiveQuota{BaseQuota: 8}
	if got := d.QuotaFor(8); got != 8 {
		t.Errorf("default target: QuotaFor(8) = %d, want 8", got)
	}
	if got := d.QuotaFor(1 << 20); got != 1 {
		t.Errorf("default floor: QuotaFor(big) = %d, want 1", got)
	}
}

// TestAdaptiveQuotaFeedback drives the full loop: a flooding port's
// megaflow footprint shrinks its quota sweep by sweep while the victim
// port keeps BaseQuota, and the flood port recovers to BaseQuota once its
// attack state expires from the cache.
func TestAdaptiveQuotaFeedback(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	adapt := &upcall.AdaptiveQuota{BaseQuota: 32, MinQuota: 2, TargetFootprint: 8}
	sub := newSub(t, sw, 2, upcall.Options{QuotaPerSource: 32})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Subsystem: sub, Adapt: adapt})
	if err != nil {
		t.Fatal(err)
	}

	// Three attack seconds: port 0 floods tuple-space-exploding headers
	// (each spawning its own megaflow), port 1 sets up one benign flow;
	// the sweep after each second re-tunes.
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for ; now < 3; now++ {
		for i := 0; i < 32; i++ {
			sub.Submit(0, tr.Headers[(int(now)*32+i)%len(tr.Headers)], now)
		}
		sub.Submit(1, header(0x0a500000, 47301), now)
		sub.DrainAll()
		rv.Sweep(now)
	}
	if got := sub.QuotaFor(0); got >= adapt.BaseQuota {
		t.Errorf("flood port quota %d did not shrink below base %d", got, adapt.BaseQuota)
	}
	if got := sub.QuotaFor(1); got != adapt.BaseQuota {
		t.Errorf("victim port quota %d, want full base %d", got, adapt.BaseQuota)
	}

	// Recovery: no traffic past the idle horizon; the expiry sweep still
	// sees the dying entries, the next one sees a clean cache.
	now += sw.IdleTimeout() + 1
	rv.Sweep(now)
	rv.Sweep(now + 1)
	if got := sub.QuotaFor(0); got != adapt.BaseQuota {
		t.Errorf("flood port quota %d after expiry, want recovered base %d", got, adapt.BaseQuota)
	}
}

// TestHandlerDrainPublishesOnce is the acceptance criterion at the upcall
// layer: a drained K-miss burst installs its megaflows through exactly one
// classifier snapshot publish, and each verdict reports the probes its
// miss spends on the cache at drain entry.
func TestHandlerDrainPublishesOnce(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sw.Process(header(0x0a500000, 40000), 0) // a cache for the misses to scan
	sw.Process(header(0x0a500001, 81), 0)
	sub := newSub(t, sw, 2, upcall.Options{})
	var tickets []upcall.Ticket
	var probes []int
	for i := 0; i < 16; i++ {
		h := header(0x0a600000+uint32(i), 47400)
		tk, out := sub.Submit(i%2, h, 0)
		if out != upcall.Enqueued {
			t.Fatalf("submit %d: %v", i, out)
		}
		tickets = append(tickets, tk)
		probes = append(probes, sw.MFC().MissProbes(h))
	}
	before, installs := sw.MFC().Stats().Publishes, sw.Counters().Installs
	if n := sub.HandleN(16); n != 16 {
		t.Fatalf("handled %d, want 16", n)
	}
	for i, tk := range tickets {
		if v, ok := tk.Resolved(); !ok || v.Probes != probes[i] {
			t.Errorf("upcall %d: verdict %+v (resolved %v), want probes %d (MissProbes at drain entry)", i, v, ok, probes[i])
		}
	}
	if pubs := sw.MFC().Stats().Publishes - before; pubs != 1 {
		t.Errorf("16-miss drain published %d snapshots, want exactly 1", pubs)
	}
	if got := sw.Counters().Installs - installs; got != 16 {
		t.Errorf("installs = %d, want 16", got)
	}
}

// TestConcurrentPortSubmits is the satellite -race requirement: concurrent
// submitters on distinct ports, a drainer handling in batches, and an
// adaptive revalidator re-tuning quotas mid-flight.
func TestConcurrentPortSubmits(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 4, upcall.Options{QuotaPerSource: 1 << 20})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Subsystem: sub,
		Adapt: &upcall.AdaptiveQuota{BaseQuota: 1 << 20, TargetFootprint: 64}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for port := 0; port < 4; port++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := header(uint32(0x0a700000+(port<<12)+i), uint16(47500+port))
				if _, out := sub.Submit(port, h, int64(i%5)); out.Dropped() {
					t.Errorf("port %d submit %d dropped: %v", port, i, out)
					return
				}
			}
		}(port)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for now := int64(0); now < 10; now++ {
			rv.Sweep(now)
		}
	}()
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				sub.HandleN(upcall.HandlerBurst)
			}
		}
	}()
	wg.Wait()
	<-done
	close(stop)
	<-drained
	sub.DrainAll()
	st := sub.Stats()
	if st.Backlog != 0 || st.PendingFlows != 0 {
		t.Errorf("backlog=%d pending=%d after the final drain", st.Backlog, st.PendingFlows)
	}
	per := sub.PerSource()
	var enq, dedup uint64
	for _, s := range per {
		enq += s.Enqueued
		dedup += s.Deduped
	}
	if enq != st.Enqueued || dedup != st.Deduped {
		t.Errorf("per-source stats (enq %d, dedup %d) do not sum to totals (%d, %d)",
			enq, dedup, st.Enqueued, st.Deduped)
	}
	if st.Handled != st.Enqueued {
		t.Errorf("handled %d of %d enqueued", st.Handled, st.Enqueued)
	}
}
