package experiments

import (
	"fmt"
	"io"
	"time"

	"tse/internal/bitvec"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

func init() {
	register(Experiment{
		ID:    "stagedscan",
		Title: "Staged subtable lookup — Fig. 9a-style mask sweep, staging on vs off, and tuple pruning",
		Run:   runStagedScan,
	})
}

// stagedScanMaskPoints are the measured x-axis points. They include the
// §5.2 use-case maxima (516 ≈ SipDp) and the 4096/8200 flood regime where
// Observation 1's linear term dominates.
var stagedScanMaskPoints = []int{16, 256, 516, 1024, 4096}

// populateMasks installs n entries under n distinct masks (prefix
// combinations over ip_src/ip_dst/tp_dst), the synthetic TSE attack shape
// the mask sweep scans. It mirrors populateDistinctMasks in
// internal/tss/tss_test.go (unreachable from here without exporting a
// bench-only helper); keep the two in sync so this table stays comparable
// with BenchmarkLookupMasks.
func populateMasks(c *tss.Classifier, l *bitvec.Layout, n int) error {
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	dp, _ := l.FieldIndex("tp_dst")
	count := 0
	for k := 0; k <= 32 && count < n; k++ {
		for i := 1; i <= 32 && count < n; i++ {
			for j := 1; j <= 16 && count < n; j++ {
				mask := bitvec.PrefixMask(l, sip, i).Or(bitvec.PrefixMask(l, dp, j))
				key := bitvec.NewVec(l)
				key.SetFieldBit(l, sip, i-1)
				key.SetFieldBit(l, dp, j-1)
				if k > 0 {
					mask = mask.Or(bitvec.PrefixMask(l, dip, k))
					key.SetFieldBit(l, dip, k-1)
				}
				e := &tss.Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop}
				if err := c.Insert(e, 0); err != nil {
					return err
				}
				count++
			}
		}
	}
	if count < n {
		return fmt.Errorf("stagedscan: could only build %d of %d masks", count, n)
	}
	return nil
}

// measureMissNs times the full-scan miss lookup (the attack-regime cost)
// on a classifier, returning ns/op. Manual timing rather than
// testing.Benchmark keeps the experiment a sub-second affair even when
// every registered experiment runs back to back.
func measureMissNs(c *tss.Classifier, h bitvec.Vec) float64 {
	// Warm the scan once, then time batches until ~25 ms have elapsed.
	c.Lookup(h, 0)
	const batch = 512
	var (
		iters int
		total time.Duration
	)
	for total < 25*time.Millisecond {
		start := time.Now()
		for i := 0; i < batch; i++ {
			c.Lookup(h, 0)
		}
		total += time.Since(start)
		iters += batch
	}
	return float64(total.Nanoseconds()) / float64(iters)
}

// runStagedScan regenerates the Fig. 9a mask-vs-throughput curve with the
// staged subtable lookup on and off. The left half of the table is
// measured on the real classifier (full-miss linear scan, the TSE flood
// shape of one megaflow per mask), next to the same miss under the
// default pruned lookup; the right half prices the victim flow with the
// dataplane cost model, its SkippedProbeCost fitted from the measured
// staged-vs-unstaged per-probe ratio at the largest mask count.
func runStagedScan(w io.Writer) error {
	l := bitvec.IPv4Tuple
	miss := bitvec.NewVec(l)
	sip, _ := l.FieldIndex("ip_src")
	miss.SetField(l, sip, 0xffffffff)

	type point struct {
		masks                          int
		unstagedNs, stagedNs, prunedNs float64
		skipFrac                       float64
	}
	points := make([]point, 0, len(stagedScanMaskPoints))
	for _, masks := range stagedScanMaskPoints {
		staged := tss.New(l, tss.Options{DisableOverlapCheck: true, Scan: tss.ScanLinear})
		unstaged := tss.New(l, tss.Options{DisableOverlapCheck: true, Scan: tss.ScanUnstaged})
		// Past 512 masks populateMasks adds ip_dst prefixes to masks it
		// already holds, so its entries overlap and every classifier here
		// skips the check; the measured header misses them all.
		pruned := tss.New(l, tss.Options{DisableOverlapCheck: true})
		for _, c := range []*tss.Classifier{staged, unstaged, pruned} {
			if err := populateMasks(c, l, masks); err != nil {
				return err
			}
		}
		p := point{
			masks:      masks,
			unstagedNs: measureMissNs(unstaged, miss),
			stagedNs:   measureMissNs(staged, miss),
			prunedNs:   measureMissNs(pruned, miss),
		}
		if s := staged.Stats(); s.Probes > 0 {
			p.skipFrac = float64(s.StageSkips) / float64(s.Probes)
		}
		points = append(points, p)
	}

	// Fit the model's skipped-probe cost from the largest measured point,
	// where the per-probe linear term dominates the fixed lookup overhead.
	last := points[len(points)-1]
	ratio := last.stagedNs / last.unstagedNs
	prof := dataplane.TCPGroOff
	prof.SkippedProbeCost = prof.ProbeCost * ratio
	m := dataplane.NewModel(prof)

	fmt.Fprintf(w, "staged subtable lookup, TSE flood shape (one megaflow per mask), %s\n", l)
	fmt.Fprintf(w, "measured full-miss scan (real classifier)        modelled victim flow (%s)\n", prof.Name)
	fmt.Fprintf(w, "%-7s %12s %12s %8s %9s %11s   %12s %12s %8s\n",
		"masks", "off[ns]", "on[ns]", "speedup", "skip%", "pruned[ns]", "off[Gbps]", "on[Gbps]", "gain")
	for _, p := range points {
		offG := m.ThroughputForMasks(p.masks)
		onG := m.ThroughputForMasksStaged(p.masks)
		gain := 1.0
		if offG > 0 {
			gain = onG / offG
		}
		fmt.Fprintf(w, "%-7d %12.1f %12.1f %7.2fx %8.1f%% %11.1f   %12.3f %12.3f %7.2fx\n",
			p.masks, p.unstagedNs, p.stagedNs, p.unstagedNs/p.stagedNs, 100*p.skipFrac, p.prunedNs,
			offG, onG, gain)
	}
	fmt.Fprintf(w, "fitted skipped-probe cost: %.2f of a full probe (from the %d-mask point)\n",
		ratio, last.masks)
	fmt.Fprintf(w, "staging does not change Observation 1 — the scan stays O(|M|) — it divides\n")
	fmt.Fprintf(w, "the constant: most probes reject on first-stage words without the full\n")
	fmt.Fprintf(w, "masked hash+compare (OVS lib/classifier.c \"staged lookup\").\n")
	fmt.Fprintf(w, "tuple pruning (§7; the default tss.ScanPruned) probes only the masks whose\n")
	fmt.Fprintf(w, "per-field prefix lengths can match: its miss stays flat as |M| grows.\n")
	return nil
}
