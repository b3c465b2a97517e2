package upcall_test

import (
	"sync"
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/upcall"
)

// TestLatencyHistBasics pins the histogram semantics the flow-setup metric
// is built on: bucket placement, quantile ranks, overflow clamping and the
// cumulative-snapshot Delta the per-second series folds from.
func TestLatencyHistBasics(t *testing.T) {
	var h upcall.LatencyHist
	if h.P50() != -1 || h.P99() != -1 {
		t.Fatalf("empty histogram quantiles %d/%d, want -1/-1", h.P50(), h.P99())
	}
	// 99 observations at 0s, one at 5s: the median is 0 and the p99 tail
	// lands exactly on the rank-100 observation.
	for i := 0; i < 99; i++ {
		h.Observe(0)
	}
	h.Observe(5)
	if got := h.P50(); got != 0 {
		t.Errorf("p50 = %d, want 0", got)
	}
	if got := h.P99(); got != 0 {
		t.Errorf("p99 = %d, want 0 (rank 99 of 100)", got)
	}
	if got := h.Quantile(1.0); got != 5 {
		t.Errorf("max quantile = %d, want 5", got)
	}
	if got := h.Mean(); got != 0.05 {
		t.Errorf("mean = %v, want 0.05", got)
	}

	// Negative clamps to zero; anything at or past the last bucket clamps
	// into it but keeps the exact Sum and MaxSec.
	var o upcall.LatencyHist
	o.Observe(-3)
	o.Observe(upcall.LatencyBuckets + 40)
	if o.Buckets[0] != 1 || o.Buckets[upcall.LatencyBuckets-1] != 1 {
		t.Errorf("clamp buckets %v", o.Buckets)
	}
	if o.MaxSec != upcall.LatencyBuckets+40 {
		t.Errorf("MaxSec = %d, want %d", o.MaxSec, upcall.LatencyBuckets+40)
	}
	if got := o.P99(); got != upcall.LatencyBuckets-1 {
		t.Errorf("overflow p99 = %d, want %d", got, upcall.LatencyBuckets-1)
	}

	// Delta subtracts an earlier snapshot of the same histogram.
	snap := h
	h.Observe(2)
	h.Observe(2)
	d := h.Delta(snap)
	if d.Count != 2 || d.Buckets[2] != 2 || d.Mean() != 2 {
		t.Errorf("delta count=%d bucket2=%d mean=%v, want 2/2/2", d.Count, d.Buckets[2], d.Mean())
	}
}

// TestResidenceStamping drives the end-to-end latency path: an upcall
// admitted at tick T and popped when the subsystem's clock reads T+k
// records k seconds of residence, per source and in aggregate — and a
// burst coalesced onto a pending upcall shares the first miss's enqueue
// stamp, exactly as it shares its megaflow install.
func TestResidenceStamping(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{})

	// Port 0: one upcall at t=0, handled at t=3.
	sub.Submit(0, header(0x0a000001, 40001), 0)
	// Port 1: one upcall at t=2; later misses at t=3 coalesce onto it and
	// must not refresh the stamp.
	sub.Submit(1, header(0x0b000001, 40002), 2)
	sub.Submit(1, header(0x0b000001, 40002), 3)

	if n := sub.HandleNAt(2, 3); n != 2 {
		t.Fatalf("handled %d, want 2", n)
	}
	per := sub.PerSource()
	if got := per[0].Residence.P99(); got != 3 {
		t.Errorf("port 0 residence p99 = %d, want 3", got)
	}
	if got := per[1].Residence.P99(); got != 1 {
		t.Errorf("port 1 residence p99 = %d, want 1 (coalesce keeps the t=2 stamp)", got)
	}
	st := sub.Stats()
	if st.Residence.Count != 2 || st.Residence.Sum != 4 {
		t.Errorf("aggregate residence count=%d sum=%d, want 2/4", st.Residence.Count, st.Residence.Sum)
	}

	// Submit advances the clock too: a drain with no explicit timestamp
	// (HandleN) measures against the latest tick the subsystem has seen.
	sub.Submit(0, header(0x0a000002, 40003), 10)
	sub.Submit(1, header(0x0b000002, 40004), 12)
	sub.DrainAll()
	per = sub.PerSource()
	if got := per[0].Residence.MaxSec; got != 3 {
		// The t=10 upcall popped at clock 12: residence 2, below the t=0
		// upcall's 3.
		t.Errorf("port 0 residence max = %d, want 3", got)
	}
	if got := per[0].Residence.Count; got != 2 {
		t.Errorf("port 0 residence count = %d, want 2", got)
	}
}

// deflapTrace is a portfairness-shaped pressure trace for one port: idle,
// then a sustained flood plateau whose per-sweep footprint sample jitters
// (the revalidator sees live entries plus whatever churn that interval
// happened to delete), including one sweep where policy churn emptied the
// cache entirely, then idle again after the flood stops.
func deflapTrace() []int {
	var tr []int
	for i := 0; i < 5; i++ {
		tr = append(tr, 0)
	}
	for i := 0; i < 20; i++ {
		if i == 10 {
			tr = append(tr, 0) // churn wiped the cache this sweep
			continue
		}
		if i%2 == 0 {
			tr = append(tr, 512)
		} else {
			tr = append(tr, 450)
		}
	}
	for i := 0; i < 8; i++ {
		tr = append(tr, 0)
	}
	return tr
}

// replayController folds a pressure trace through one controller and
// returns the quota series.
func replayController(a upcall.AdaptiveQuota, trace []int) []int {
	var st upcall.QuotaState
	out := make([]int, len(trace))
	for i, p := range trace {
		out[i] = a.Next(&st, p, 0)
	}
	return out
}

func countChanges(q []int) (changes, reversals int) {
	lastDir := 0
	for i := 1; i < len(q); i++ {
		d := q[i] - q[i-1]
		if d == 0 {
			continue
		}
		changes++
		dir := 1
		if d < 0 {
			dir = -1
		}
		if lastDir != 0 && dir != lastDir {
			reversals++
		}
		lastDir = dir
	}
	return changes, reversals
}

// TestControllerDeflapReplay replays the same flood-shaped pressure trace
// through the raw single-input controller and the smoothed two-input one.
// The raw controller flaps — ±1 quota steps chasing the jittering
// footprint sample, and a full bounce to BaseQuota the sweep churn empties
// the cache — while the smoothed controller moves at most once per
// sustained regime shift and rides out the churn sweep unmoved.
func TestControllerDeflapReplay(t *testing.T) {
	base := upcall.AdaptiveQuota{BaseQuota: 64, MinQuota: 4, TargetFootprint: 64}
	smooth := base
	smooth.EWMAAlpha = upcall.DefaultEWMAAlpha
	smooth.HysteresisPct = upcall.DefaultHysteresisPct
	smooth.TargetResidenceSec = 2

	trace := deflapTrace()
	dipIdx := 5 + 10 // the churn-emptied sweep inside the plateau

	floodStart, floodEnd := 5, 5+20 // trace indices of the flood regime

	q := replayController(smooth, trace)
	qRaw := replayController(base, trace)

	// The smoothed controller moves at most once per sustained regime
	// shift: the flood onset is a single descent (one change inside the
	// whole plateau, jitter and churn dip included), and the recovery is a
	// monotone ascent to the BaseQuota rail — it may step through the EWMA
	// decay, but it never turns back down.
	plateauChanges, _ := countChanges(q[floodStart:floodEnd])
	if plateauChanges > 1 {
		t.Errorf("smoothed: %d quota changes across the flood plateau (want <= 1): %v",
			plateauChanges, q)
	}
	_, reversals := countChanges(q)
	if reversals > 1 {
		// The single allowed turn is descent -> recovery.
		t.Errorf("smoothed: %d direction reversals (want <= 1): %v", reversals, q)
	}
	for i := floodEnd + 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Errorf("smoothed: recovery not monotone at %d (%d -> %d): %v", i, q[i-1], q[i], q)
		}
	}
	if q[dipIdx] != q[dipIdx-1] {
		t.Errorf("smoothed: churn sweep moved quota %d -> %d, want unmoved", q[dipIdx-1], q[dipIdx])
	}

	// The ablation must keep flapping, or the comparison is vacuous: the
	// jittering plateau re-tunes it almost every sweep and the churn sweep
	// bounces it to base and straight back down.
	rawChanges, rawReversals := countChanges(qRaw)
	if rawChanges < 10 || rawReversals < 4 {
		t.Errorf("raw ablation no longer flaps (changes=%d reversals=%d): %v",
			rawChanges, rawReversals, qRaw)
	}
	if qRaw[dipIdx] != base.BaseQuota {
		t.Errorf("raw: churn-sweep quota %d, want BaseQuota bounce %d", qRaw[dipIdx], base.BaseQuota)
	}

	// Both controllers throttle under the flood and recover to base.
	for name, series := range map[string][]int{"smoothed": q, "raw": qRaw} {
		if series[dipIdx-1] >= base.BaseQuota {
			t.Errorf("%s: plateau quota %d never shrank below base", name, series[dipIdx-1])
		}
		if got := series[len(series)-1]; got != base.BaseQuota {
			t.Errorf("%s: final quota %d, want recovered BaseQuota %d", name, got, base.BaseQuota)
		}
	}
}

// TestControllerResidenceInput pins the second control input: with the
// megaflow-pressure signal silent (churn keeps the cache empty), a
// standing backlog alone must shrink the quota — and a residence at or
// below target must not.
func TestControllerResidenceInput(t *testing.T) {
	a := upcall.AdaptiveQuota{
		BaseQuota: 64, MinQuota: 4, TargetFootprint: 64,
		TargetResidenceSec: 2, EWMAAlpha: 1, HysteresisPct: upcall.DefaultHysteresisPct,
	}
	var st upcall.QuotaState
	if got := a.Next(&st, 0, 1.0); got != 64 {
		t.Fatalf("residence below target: quota %d, want 64", got)
	}
	if got := a.Next(&st, 0, 8.0); got != 16 {
		// 64 * 2s / 8s = 16, well outside the 50% band around 64.
		t.Fatalf("residence 8s: quota %d, want 16", got)
	}
	// A saturating backlog rides the inverse curve to the MinQuota rail.
	if got := a.Next(&st, 0, 1000); got != a.MinQuota {
		t.Fatalf("saturating residence: quota %d, want floor %d", got, a.MinQuota)
	}
	// Recovery snaps back to the BaseQuota rail once the backlog drains.
	if got := a.Next(&st, 0, 0); got != a.BaseQuota {
		t.Fatalf("drained backlog: quota %d, want base %d", got, a.BaseQuota)
	}
}

// TestDeleteMegaflowsFeedsPressure is the satellite fix: megaflows a
// monitor (MFCGuard) deletes between sweeps are slow-path churn exactly
// like idle expiry, so they must reach the adaptive controller's pressure
// sensor. The guard wipes the flood's entries before the sweep ever dumps
// them; the next sweep must still see the pressure and throttle the port.
func TestDeleteMegaflowsFeedsPressure(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	adapt := &upcall.AdaptiveQuota{BaseQuota: 32, MinQuota: 2, TargetFootprint: 8}
	sub := newSub(t, sw, 2, upcall.Options{QuotaPerSource: 64})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Subsystem: sub, Adapt: adapt})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		sub.Submit(0, tr.Headers[i%len(tr.Headers)], 0)
	}
	sub.DrainAll()
	if n := rv.DeleteMegaflows(func(*tss.Entry) bool { return true }); n == 0 {
		t.Fatal("guard deleted nothing; flood installed no megaflows")
	}

	// The cache is now empty: the sweep's own dump contributes zero
	// pressure, so any throttling is the carried guard churn.
	rv.Sweep(1)
	if got := sub.QuotaFor(0); got >= adapt.BaseQuota {
		t.Errorf("flood port quota %d after guard churn, want shrunk below %d", got, adapt.BaseQuota)
	}
	if got := sub.QuotaFor(1); got != adapt.BaseQuota {
		t.Errorf("idle port quota %d, want untouched base %d", got, adapt.BaseQuota)
	}
	// The carry is consumed, not double-counted: with the cache still
	// empty the next sweep sees no pressure and recovery begins.
	rv.Sweep(2)
	if got := sub.QuotaFor(0); got != adapt.BaseQuota {
		t.Errorf("quota %d one sweep later, want recovered base %d (carry leaked)", got, adapt.BaseQuota)
	}
}

// TestSweepThenTickSingleSweep is the cadence-skew satellite fix: a direct
// Sweep(now) counts as the tick's run, so a Tick at the same tick must not
// dump (and with adaptive quotas, re-tune) a second time.
func TestSweepThenTickSingleSweep(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	sw.HandleMissFrom(0, header(0x0a000001, 40000), 0)

	rv.Sweep(5)
	if st := rv.Stats(); st.Sweeps != 1 || st.Dumped != 1 {
		t.Fatalf("after direct sweep: %+v", st)
	}
	// Same tick: the direct sweep already ran it.
	rv.Tick(5)
	if st := rv.Stats(); st.Sweeps != 1 {
		t.Errorf("tick inside interval re-swept: %+v", st)
	}
	// Cadence elapsed: the next tick sweeps again.
	rv.Tick(6)
	if st := rv.Stats(); st.Sweeps != 2 || st.Dumped != 2 {
		t.Errorf("tick after interval did not sweep: %+v", st)
	}
}

// TestOrphanPressureSurfaced is the silent-skip satellite fix: pressure on
// a port the subsystem has no source for cannot be tuned, and used to be
// dropped without a trace. It now lands in RevalidatorStats.OrphanPressure.
func TestOrphanPressureSurfaced(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	adapt := &upcall.AdaptiveQuota{BaseQuota: 32, MinQuota: 2, TargetFootprint: 8}
	sub := newSub(t, sw, 1, upcall.Options{})
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{
		Switch: sw, Subsystem: sub, Adapt: adapt})
	if err != nil {
		t.Fatal(err)
	}
	// Install megaflows attributed to vport 3 — a port the one-source
	// subsystem cannot throttle. Tuple-space-exploding headers so each
	// miss spawns its own megaflow.
	tr, err := core.CoLocated(sw.FlowTable(), core.CoLocatedOptions{Noise: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sw.HandleMissFrom(3, tr.Headers[i], 0)
	}
	rv.Sweep(0)
	if st := rv.Stats(); st.OrphanPressure != 4 {
		t.Errorf("orphan pressure %d, want 4", st.OrphanPressure)
	}
	if got := sub.QuotaFor(0); got != adapt.BaseQuota {
		t.Errorf("source 0 quota %d, want untouched base %d", got, adapt.BaseQuota)
	}
}

// TestLatencyHistConcurrent is the satellite -race test: Observe runs
// inside concurrent SubmitSync drains (under the subsystem's lock) while readers
// concurrently snapshot the cumulative histograms and compute
// Delta/Quantile/Mean on their copies — the sampler's access pattern. The
// race detector proves snapshot-then-fold needs no further locking.
func TestLatencyHistConcurrent(t *testing.T) {
	sw := newSwitch(t, flowtable.SipDp)
	sub := newSub(t, sw, 2, upcall.Options{QueueCap: 1024})

	const perSrc = 200
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSrc; i++ {
				h := header(0x0b000000+uint32(src)<<16+uint32(i), uint16(41000+i))
				if _, out := sub.SubmitSync(src, h, int64(i%7)); out.Dropped() {
					t.Errorf("source %d submit %d dropped: %v", src, i, out)
					return
				}
			}
		}(src)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		var prev upcall.LatencyHist
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := sub.Stats()
			d := st.Residence.Delta(prev)
			prev = st.Residence
			_ = d.P50()
			_ = d.P99()
			_ = d.Quantile(0.9)
			_ = d.Mean()
			for _, ps := range sub.PerSource() {
				_ = ps.Residence.P99()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	st := sub.Stats()
	if st.Residence.Count == 0 {
		t.Error("no residence observations recorded")
	}
	if st.PendingFlows != 0 {
		t.Errorf("pending = %d after all waits returned, want 0", st.PendingFlows)
	}
}
