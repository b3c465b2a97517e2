package tss

import "tse/internal/telemetry"

// AttachMetrics registers pull-model collectors over the classifier's
// activity counters and snapshot shape. Every closure reads through
// Stats(), MaskCount(), or EntryCount() — lock-free or shard-summing
// snapshot paths — so a live /metrics scrape never contends with the
// lookup fast path. Attaching a second classifier to the same registry
// replaces the closures (the registry's CounterFunc/GaugeFunc semantics);
// a scenario harness attaches the switch it is currently driving.
func (c *Classifier) AttachMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	stat := func(get func(Stats) uint64) func() uint64 {
		return func() uint64 { return get(c.Stats()) }
	}
	reg.CounterFunc("tse_tss_lookups_total",
		"Megaflow cache lookups (analog of OVS dpif_netdev masked classifier hits+misses).",
		stat(func(s Stats) uint64 { return s.Lookups }))
	reg.CounterFunc("tse_tss_hits_total",
		"Megaflow cache hits.",
		stat(func(s Stats) uint64 { return s.Hits }))
	reg.CounterFunc("tse_tss_misses_total",
		"Megaflow cache misses (slow-path candidates).",
		stat(func(s Stats) uint64 { return s.Misses }))
	reg.CounterFunc("tse_tss_probes_total",
		"Mask-group probes; probes/lookups is the per-packet effort the tuple-space attack inflates.",
		stat(func(s Stats) uint64 { return s.Probes }))
	reg.CounterFunc("tse_tss_stage_skips_total",
		"Probes rejected at a stage boundary before full-width hash+compare work.",
		stat(func(s Stats) uint64 { return s.StageSkips }))
	reg.CounterFunc("tse_tss_inserted_total",
		"Megaflow entries inserted.",
		stat(func(s Stats) uint64 { return s.Inserted }))
	reg.CounterFunc("tse_tss_deleted_total",
		"Megaflow entries deleted.",
		stat(func(s Stats) uint64 { return s.Deleted }))
	reg.CounterFunc("tse_tss_publishes_total",
		"Copy-on-write snapshot publications (one per InsertBatch, however large).",
		stat(func(s Stats) uint64 { return s.Publishes }))
	reg.CounterFunc("tse_tss_probes_copied_total",
		"Probe records copied into published snapshots (ScanLinear only).",
		stat(func(s Stats) uint64 { return s.ProbesCopied }))
	reg.CounterFunc("tse_tss_slots_copied_total",
		"Mask-group slots copied by copy-on-write clones.",
		stat(func(s Stats) uint64 { return s.SlotsCopied }))
	reg.CounterFunc("tse_tss_overlap_compared_total",
		"Entries passed to the full overlap comparison by the insert-time independence check.",
		stat(func(s Stats) uint64 { return s.OverlapCompared }))
	reg.CounterFunc("tse_tss_index_copied_total",
		"Tuple-pruning index nodes copied by writes (tree nodes a snapshot shares, candidate tables rebuilt).",
		stat(func(s Stats) uint64 { return s.IndexCopied }))
	reg.GaugeFunc("tse_megaflow_masks",
		"Installed mask groups |M| — the attack's amplification lever.",
		func() int64 { return int64(c.MaskCount()) })
	reg.GaugeFunc("tse_megaflow_entries",
		"Installed megaflow entries |C|.",
		func() int64 { return int64(c.EntryCount()) })
}
