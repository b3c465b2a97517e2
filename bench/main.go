// Command bench is the repository's benchmark: it generates four seeded
// traffic mixes, replays each through the product path (trace.Open →
// Reader.Next → trace.Replayer.Dispatch → datapath.Pool → vswitch / tss /
// microflow / upcall), checks every verdict against
// flowtable.Table.Lookup, and prints the end-to-end and per-layer metrics
// BENCHMARK.json names. README.md explains the workloads, the metrics and
// how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// metricDef is one metric of BENCHMARK.json; bound is the relative
// worsening that counts as a regression (end-to-end metrics only).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var e2eMetrics = []metricDef{
	{"throughput_mpps", "Mpkt/s", "higher", 0.25},
	{"pkt_ns_p50", "ns/pkt", "lower", 0.25},
	{"pkt_ns_p99", "ns/pkt", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

var layerMetrics = []metricDef{
	{name: "trace.decode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "trace.share", unit: "frac", better: "lower"},
	{name: "microflow.lookup_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "microflow.insert_ns_per_op", unit: "ns", better: "lower"},
	{name: "microflow.hit_frac", unit: "frac", better: "higher"},
	{name: "microflow.evictions_per_kpkt", unit: "count", better: "lower"},
	{name: "microflow.share", unit: "frac", better: "lower"},
	{name: "tss.scan_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "tss.probes_per_lookup", unit: "count", better: "lower"},
	{name: "tss.ns_per_probe", unit: "ns", better: "lower"},
	{name: "tss.stage_skip_frac", unit: "frac", better: "higher"},
	{name: "tss.hit_frac", unit: "frac", better: "higher"},
	{name: "tss.masks_peak", unit: "count", better: "lower"},
	{name: "tss.entries_peak", unit: "count", better: "lower"},
	{name: "tss.publishes_per_kpkt", unit: "count", better: "lower"},
	{name: "tss.share", unit: "frac", better: "lower"},
	{name: "vswitch.miss_ns_per_op", unit: "ns", better: "lower"},
	{name: "vswitch.slowpath_per_kpkt", unit: "count", better: "lower"},
	{name: "vswitch.sweep_ms_per_tick", unit: "ms", better: "lower"},
	{name: "vswitch.sweep_ms_max", unit: "ms", better: "lower"},
	{name: "vswitch.expired_per_tick", unit: "count", better: "lower"},
	{name: "vswitch.share", unit: "frac", better: "lower"},
	{name: "upcall.submit_sync_ns_per_op", unit: "ns", better: "lower"},
	{name: "upcall.dedup_frac", unit: "frac", better: "higher"},
	{name: "upcall.drop_frac", unit: "frac", better: "lower"},
	{name: "upcall.backlog_peak", unit: "count", better: "lower"},
	{name: "upcall.revalidate_ms_per_tick", unit: "ms", better: "lower"},
	{name: "upcall.share", unit: "frac", better: "lower"},
	{name: "flowtable.oracle_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "datapath.pool_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "datapath.overhead_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "datapath.shadow_counter_match", unit: "0/1", better: "higher"},
	{name: "run.allocs_per_kpkt", unit: "count", better: "lower"},
	{name: "run.bytes_per_pkt", unit: "B", better: "lower"},
	{name: "run.gc_cycles", unit: "count", better: "lower"},
	{name: "run.cpu_busy_frac", unit: "frac", better: "higher"},
	{name: "run.span_coverage_frac", unit: "frac", better: "higher"},
	{name: "run.trace_overhead_frac", unit: "frac", better: "lower"},
}

// report prints one workload's inputs, counters, verification outcome
// and metrics: one "workload metric value unit" line per metric, "#"
// lines for everything else.
func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s records %d sha256 %s\n", r.Workload, r.Records, r.SHA256)
	c := r.Counts
	fmt.Fprintf(w, "# %s counts packets %d emc_hits %d megaflow_hits %d slow_path %d probes %d masks_peak %d entries_peak %d\n",
		r.Workload, c.Packets, c.EMCHits, c.MegaflowHits, c.SlowPath, c.Probes, c.MasksPeak, c.EntriesPeak)
	fmt.Fprintf(w, "# %s samples passes %d chunks %d\n", r.Workload, r.Samples.Passes, r.Samples.Chunks)
	fmt.Fprintf(w, "# %s verify attempted %d failed %d failed_frac %g\n",
		r.Workload, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s !! %s\n", r.Workload, p)
	}
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{e2eMetrics, r.E2E}, {layerMetrics, r.Layers}} {
		if set.vals == nil {
			continue
		}
		for _, d := range set.defs {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.name, set.vals[d.name], d.unit)
		}
	}
}

// driverLine is the one-object result line the benchmark contract asks
// for as the last line of standard output.
func driverLine(r *result) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	defs, vals := e2eMetrics, r.E2E
	if vals == nil {
		defs, vals = layerMetrics, r.Layers
	}
	for _, d := range defs {
		metrics[d.name] = metric{vals[d.name], d.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": r.Failed == 0,
		"attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		panic(err) // floats and strings only
	}
	return string(line)
}

// agreement compares two sets of runs of the same code: per workload and
// end-to-end metric it prints both values, how much worse the second is
// than the first, and the bound. It reports whether every pair is within
// its bound.
func agreement(w io.Writer, a, b []*result) bool {
	ok := true
	for i := range a {
		for _, d := range e2eMetrics {
			x, y := a[i].E2E[d.name], b[i].E2E[d.name]
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if math.Abs(worse) > d.bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "# agreement %s %s set1 %.6g set2 %.6g worse_by %+.4f bound %.2f %s\n",
				a[i].Workload, d.name, x, y, worse, d.bound, verdict)
		}
		if a[i].Failed != b[i].Failed {
			ok = false
			fmt.Fprintf(w, "# agreement %s failed set1 %d set2 %d DISAGREE\n", a[i].Workload, a[i].Failed, b[i].Failed)
		}
	}
	return ok
}

func writeJSON(path string, seed int64, sets [][]*result) error {
	type doc struct {
		Seed       int64              `json:"seed"`
		GoVersion  string             `json:"go_version"`
		NumCPU     int                `json:"num_cpu"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Workloads  map[string]*result `json:"workloads"`
	}
	docs := make([]doc, len(sets))
	for i, set := range sets {
		docs[i] = doc{Seed: seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]*result{}}
		for _, r := range set {
			docs[i].Workloads[r.Workload] = r
		}
	}
	var v any = docs[0]
	if len(docs) > 1 {
		v = docs
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
		seed     = flag.Int64("seed", 1, "seed every workload's trace is generated from")
		seconds  = flag.Float64("seconds", 10, "seconds measured per workload")
		traceSel = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
		sets     = flag.Int("sets", 1, "run the set this many times back to back and check that the sets agree within the bounds")
		jsonOut  = flag.String("json", "", "also write the results to this file as JSON")
		traceOut = flag.String("trace-out", "", "write the last workload's most recent shadow-loop spans to this file as chrome-trace JSON")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceSel, *sets, *jsonOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traceSel, sets int, jsonOut, traceOut string) error {
	if traceSel < -1 || traceSel > 1 || sets < 1 || seconds <= 0 {
		return fmt.Errorf("bad flags: -trace is -1, 0 or 1; -sets >= 1; -seconds > 0")
	}
	if sets > 1 && traceSel == 1 {
		return fmt.Errorf("-sets compares end-to-end metrics; it cannot be combined with -trace 1")
	}
	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []*workload{w}
	}
	opts := runOpts{seed: seed, seconds: seconds, scale: 1,
		e2e: traceSel != 1, layers: traceSel != 0, traceOut: traceOut}
	all := make([][]*result, sets)
	failed := false
	for i := range all {
		for _, w := range todo {
			r, err := run(w, opts)
			if err != nil {
				return err
			}
			report(os.Stdout, r)
			failed = failed || r.Failed > 0
			all[i] = append(all[i], r)
		}
	}
	if sets > 1 && !agreement(os.Stdout, all[0], all[sets-1]) {
		failed = true
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, seed, all); err != nil {
			return err
		}
	}
	if name != "" {
		fmt.Println(driverLine(all[sets-1][0]))
	}
	if failed {
		return fmt.Errorf("verification or agreement failed (see the !! and DISAGREE lines)")
	}
	return nil
}
