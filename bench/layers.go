package main

import (
	"fmt"
	"time"

	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// layer counters the shadow loop's metrics are ratios of; a traced run
// reports their movement after the warm-up pass.
const (
	cPackets = iota
	cEMCHits
	cEMCMisses
	cEMCEvictions
	cMegaflowHits
	cSlowPath
	cLookups
	cLookupHits
	cProbes
	cStageSkips
	cPublishes
	cEnqueued
	cDeduped
	cUpcallDrops
	cExpired
	numCounters
)

func (s *shadow) counters() (c [numCounters]uint64) {
	emc, mfc := s.emc.Stats(), s.sw.MFC().Stats()
	c[cPackets] = s.stats.Packets
	c[cEMCHits], c[cEMCMisses], c[cEMCEvictions] = emc.Hits, emc.Misses, emc.Evictions
	c[cMegaflowHits], c[cSlowPath] = s.stats.MegaflowHits, s.stats.SlowPath
	c[cLookups], c[cLookupHits] = mfc.Lookups, mfc.Hits
	c[cProbes], c[cStageSkips], c[cPublishes] = mfc.Probes, mfc.StageSkips, mfc.Publishes
	if s.up != nil {
		up := s.up.Stats()
		c[cEnqueued], c[cDeduped] = up.Enqueued, up.Deduped
		c[cUpcallDrops] = up.QueueDrops + up.QuotaDrops
	}
	c[cExpired] = uint64(s.expired)
	return c
}

// tracedRun is the outcome of the shadow loop over one workload.
type tracedRun struct {
	s      *shadow
	counts counts              // the shadow loop's totals after its first post-warm-up pass
	d      [numCounters]uint64 // counter movement over the traced passes
	wallNs int64               // decode + dispatch, verification excluded
}

// traced replays the trace through the shadow loop: a warm-up pass for a
// persistent pipeline, then one pass (fresh) or passes for ~seconds.
// Every verdict is compared with the oracle, outside any span; mismatches
// are added to res.
func (in *input) traced(seconds float64, res *result) (*tracedRun, error) {
	s, err := newShadow(in.w, in.tbl)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{s: s}
	b := in.b
	out := make([]vswitch.Verdict, b.Cap())
	layout := in.tbl.Layout()
	offenders, passes := 0, 0
	pass := func() {
		in.rd.Reset()
		tickOff := in.w.tickOffset(passes)
		passes++
		rec := 0
		for {
			s.tr.chunk++
			t0 := s.tr.now()
			n := in.next(tickOff)
			if n == 0 {
				break
			}
			s.tr.record(spanDecode, -1, t0, s.tr.now(), 0)
			s.dispatch(b, out[:n])
			t.wallNs += s.tr.now() - t0
			s.pk.observe(s.sw)
			for i, v := range out[:n] {
				if want := flowtable.Action(in.oracle[rec+i]); v.Action != want {
					res.Failed++
					if offenders++; offenders <= 5 {
						res.problems = append(res.problems, fmt.Sprintf(
							"shadow verdict: tick %d port %d header %s got %s want %s",
							b.Ticks[i], b.Ports[i], b.Keys[i].Format(layout), v.Action, want))
					}
				}
			}
			rec += n
		}
		res.Attempted += uint64(in.records)
	}

	if !in.w.fresh {
		pass() // warm-up
	}
	base := s.counters()
	s.tr.reset()
	t.wallNs = 0
	start := time.Now()
	for first := true; first || (!in.w.fresh && time.Since(start).Seconds() < seconds); first = false {
		pass()
		if first {
			t.counts = newCounts(s.stats, s.sw, s.pk)
		}
	}
	for i, after := range s.counters() {
		t.d[i] = after - base[i]
	}
	return t, nil
}

// nsPerPkt is the traced run's wall per packet, comparable with the
// timed run's decode + dispatch.
func (t *tracedRun) nsPerPkt() float64 { return float64(t.wallNs) / float64(t.d[cPackets]) }

// dispatchSpanNsPerPkt is the time spent in layer calls below the pool,
// i.e. every span but the decode.
func (t *tracedRun) dispatchSpanNsPerPkt() float64 {
	tr := t.s.tr
	return float64(tr.selfNs()-tr.selfNs(spanDecode)) / float64(t.d[cPackets])
}

// ratio is a/b, and 0 where the workload never exercises the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives the per-layer metrics the shadow loop can answer alone;
// run adds the ones that need the timed run.
func (t *tracedRun) metrics() map[string]float64 {
	tr, d := t.s.tr, t.d
	f := func(i int) float64 { return float64(d[i]) }
	agg := func(k spanKind) *spanAgg { return &tr.agg[k] }
	perOp := func(k spanKind) float64 { return ratio(float64(agg(k).sumNs), float64(agg(k).count)) }
	wall, pkts, kpkt := float64(t.wallNs), f(cPackets), f(cPackets)/1e3
	share := func(kinds ...spanKind) float64 { return float64(tr.selfNs(kinds...)) / wall }
	scanNs := float64(agg(spanProcess).selfNs)
	sweeps := float64(agg(spanSweep).count + agg(spanRevalidate).count)
	m := map[string]float64{
		"trace.decode_ns_per_pkt": float64(agg(spanDecode).sumNs) / pkts,
		"trace.share":             share(spanDecode),

		"microflow.lookup_ns_per_pkt":  float64(agg(spanEMCLookup).sumNs) / pkts,
		"microflow.insert_ns_per_op":   ratio(float64(agg(spanEMCInsert).sumNs), f(cMegaflowHits)+f(cSlowPath)),
		"microflow.hit_frac":           ratio(f(cEMCHits), f(cEMCHits)+f(cEMCMisses)),
		"microflow.evictions_per_kpkt": f(cEMCEvictions) / kpkt,
		"microflow.share":              share(spanEMCLookup, spanEMCInsert),

		"tss.scan_ns_per_lookup": ratio(scanNs, f(cLookups)),
		"tss.probes_per_lookup":  ratio(f(cProbes), f(cLookups)),
		"tss.ns_per_probe":       ratio(scanNs, f(cProbes)),
		"tss.stage_skip_frac":    ratio(f(cStageSkips), f(cProbes)),
		"tss.hit_frac":           ratio(f(cLookupHits), f(cLookups)),
		"tss.masks_peak":         float64(t.s.pk.masks),
		"tss.entries_peak":       float64(t.s.pk.entries),
		"tss.publishes_per_kpkt": f(cPublishes) / kpkt,
		"tss.share":              share(spanProcess),

		"vswitch.miss_ns_per_op":    perOp(spanMiss),
		"vswitch.slowpath_per_kpkt": f(cSlowPath) / kpkt,
		"vswitch.sweep_ms_per_tick": perOp(spanSweep) / 1e6,
		"vswitch.sweep_ms_max":      float64(agg(spanSweep).maxNs) / 1e6,
		"vswitch.expired_per_tick":  ratio(f(cExpired), sweeps),
		"vswitch.share":             share(spanMiss, spanSweep),

		"upcall.submit_sync_ns_per_op":  perOp(spanSubmitSync),
		"upcall.dedup_frac":             ratio(f(cDeduped), f(cEnqueued)+f(cDeduped)),
		"upcall.drop_frac":              ratio(f(cUpcallDrops), f(cEnqueued)+f(cDeduped)+f(cUpcallDrops)),
		"upcall.backlog_peak":           0,
		"upcall.revalidate_ms_per_tick": perOp(spanRevalidate) / 1e6,
		"upcall.share":                  share(spanSubmitSync, spanRevalidate),

		"run.span_coverage_frac": share(),
	}
	if t.s.up != nil {
		m["upcall.backlog_peak"] = float64(t.s.up.Stats().MaxBacklog)
	}
	return m
}
