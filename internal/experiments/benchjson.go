package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"tse/internal/bitvec"
	"tse/internal/cluster"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/dataplane"
	"tse/internal/flowtable"
	"tse/internal/microflow"
	"tse/internal/telemetry"
	trc "tse/internal/trace"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// BenchSchema versions the JSON layout so downstream tooling can detect
// format changes. v2 added the upcall micro-benchmarks and the scenarios
// section (slow-path saturation summaries); v3 records the host's
// GOMAXPROCS and a per-result worker count, so multi-worker results are
// no longer conflated with single-core runs (the committed BENCH_pr2/pr3
// files were measured on a num_cpu=1 host, which their multi-worker
// figures silently inherited); v4 adds the upcall_residence_*
// micro-benchmarks, flow-setup latency (fct_*) fields on scenario rows,
// and the portfairness adaptiveraw ablation scenario; v5 adds the chaos
// fault-injection scenarios and the self-healing fields on scenario rows
// (handler_restarts, breaker_trips, recovery_sec — recovery_sec is -1 for
// scenarios without a fault schedule); v6 adds the telemetry_*
// micro-benchmarks (the sharded counter/histogram hot-path cost the gate
// now watches), runs the upcall micro-benchmarks with a live metrics
// registry attached — the gate measures the instrumented path, not the
// nil-hub fast path — and exports each scenario's end-of-run telemetry
// snapshot in the metrics field; v7 adds the FleetChaos-* scenario rows
// (the N-node cluster fabric under node death, controller partition and
// push failures) and their containment fields (blast_radius_frac,
// failover_sec, acl_convergence_sec — -1/-1 on single-box rows); v8 adds
// the trace_replay_* micro-benchmarks (mmap'd zero-copy trace ingest:
// decode, decode+burst-dispatch, parallel replay) and the Replay-*
// scenario rows with their achieved-ingest mpps field.
const BenchSchema = "tse-bench/v8"

// BenchResult is one measured micro-benchmark in the JSON report.
type BenchResult struct {
	// Name identifies the benchmark, stable across PRs (the perf
	// trajectory is a join on this field).
	Name string `json:"name"`
	// NsPerOp, AllocsPerOp, BytesPerOp mirror testing.BenchmarkResult.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// N is the iteration count the timing is averaged over.
	N int `json:"n"`
	// Workers is the worker/goroutine count of the measurement: 0 for a
	// plain single-goroutine benchmark, the pool size for datapath
	// benches, GOMAXPROCS for RunParallel benches. Joined with the
	// report's GoMaxProcs it tells whether a multi-worker figure had real
	// cores behind it.
	Workers int `json:"workers,omitempty"`
	// Extra carries benchmark-specific dimensions (mask counts etc.).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// ScenarioResult summarises one dataplane scenario run: the
// upcall-saturation suite records the slow-path overload regime (peak
// masks, drops, victim throughput) so the BENCH_*.json trajectory captures
// behaviour, not just hot-path timings.
type ScenarioResult struct {
	// Name identifies the scenario configuration, stable across PRs.
	Name string `json:"name"`
	// Workers is the PMD worker count of the run.
	Workers int `json:"workers"`
	// PeakMasks is the MFC mask high-water mark (Observation 1's |M|);
	// PeakBacklog the upcall-queue high-water mark.
	PeakMasks   int `json:"peak_masks"`
	PeakBacklog int `json:"peak_backlog"`
	// Enqueued..Handled total the upcall admission outcomes over the run.
	Enqueued   int `json:"enqueued"`
	Deduped    int `json:"deduped"`
	QueueDrops int `json:"queue_drops"`
	QuotaDrops int `json:"quota_drops"`
	Handled    int `json:"handled"`
	// VictimPreGbps/UnderGbps/PostGbps average total victim throughput
	// before, during, and after the attack window.
	VictimPreGbps   float64 `json:"victim_pre_gbps"`
	VictimUnderGbps float64 `json:"victim_under_gbps"`
	VictimPostGbps  float64 `json:"victim_post_gbps"`
	// FctP50UnderSec/FctP99UnderSec are the worst per-second flow-setup
	// latency percentiles during the attack window, in virtual seconds of
	// upcall residence (-1 when the run handled no upcalls in the window).
	FctP50UnderSec int `json:"fct_p50_under_sec"`
	FctP99UnderSec int `json:"fct_p99_under_sec"`
	// HandlerRestarts and BreakerTrips total the supervisor respawns and
	// breaker trip-opens over the run; RecoverySec is the chaos recovery
	// bound (seconds from first injected fault until the victims' flow
	// setup is back inside 1.5x its pre-fault p99; -1 when no fault was
	// injected or the run never recovered).
	HandlerRestarts int `json:"handler_restarts"`
	BreakerTrips    int `json:"breaker_trips"`
	RecoverySec     int `json:"recovery_sec"`
	// Fleet containment metrics, meaningful on FleetChaos-* rows only:
	// the fraction of fleet victims degraded through the fault window,
	// the dead node's tenants' service gap in seconds (-1 = never
	// recovered / no failover), and the worst fabric-wide ACL
	// convergence of any generation that converged (-1 = none).
	// Single-box scenario rows carry 0/-1/-1.
	BlastRadiusFrac   float64 `json:"blast_radius_frac"`
	FailoverSec       int     `json:"failover_sec"`
	ACLConvergenceSec int     `json:"acl_convergence_sec"`
	// Mpps is the achieved ingest rate of Replay-* rows — millions of
	// packets per wall second sustained through decode plus
	// classification; 0 on virtual-time scenario rows, where wall-clock
	// rate is meaningless.
	Mpps float64 `json:"mpps,omitempty"`
	// WallMs is the host wall-clock time of the run (informational; the
	// scenario itself is virtual-time deterministic).
	WallMs float64 `json:"wall_ms"`
	// Metrics is the run's end-of-run telemetry registry snapshot: every
	// nonzero counter total and gauge level (histograms are omitted — the
	// fct_* fields already carry the quantiles). Process-level gauges
	// (tse_up, tse_goroutines) are excluded so the map stays
	// deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the machine-readable perf snapshot tsebench -json emits.
type BenchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler's parallelism at measurement time: the
	// number of cores multi-worker results could actually use. On a
	// GoMaxProcs=1 host, worker-scaling figures measure scheduling
	// overhead, not parallel speedup — record it so they are never again
	// read as if cores were behind them.
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []BenchResult    `json:"results"`
	Scenarios  []ScenarioResult `json:"scenarios,omitempty"`
}

// populateMasks installs n entries under n distinct masks (prefix
// combinations over ip_src/ip_dst/tp_dst), the synthetic TSE attack shape
// the hot-path benchmarks scan. It mirrors populateDistinctMasks in
// internal/tss/tss_test.go (unreachable from here without exporting a
// bench-only helper); keep the two in sync so the JSON trajectory stays
// comparable with BenchmarkLookupMasks.
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
		return fmt.Errorf("benchjson: could only build %d of %d masks", count, n)
	}
	return nil
}

// benchVictimKey is the benign web flow used as the probe header.
func benchVictimKey() bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	set("ip_src", 0x08080808)
	set("ip_dst", 0xc0a80002)
	set("ip_proto", 6)
	set("tp_src", 40000)
	set("tp_dst", 80)
	return h
}

// BenchJSON measures the hot-path benchmark suite and returns the report.
// The suite is intentionally small (a few seconds) and stable-named so
// successive PRs' JSON files diff into a perf trajectory.
func BenchJSON() (*BenchReport, error) {
	rep := &BenchReport{
		Schema:     BenchSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	addW := func(name string, workers int, extra map[string]float64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rep.Results = append(rep.Results, BenchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			Workers:     workers,
			Extra:       extra,
		})
	}
	add := func(name string, extra map[string]float64, fn func(b *testing.B)) {
		addW(name, 0, extra, fn)
	}

	// TSS mask-scan cost (Observation 1): full-miss scan at |M| masks.
	// The default classifier stages its probes; the 4096-point also runs
	// the unstaged ablation so the staged win stays visible in one file.
	l := bitvec.IPv4Tuple
	for _, masks := range []int{16, 256, 4096} {
		for _, unstaged := range []bool{false, true} {
			if unstaged && masks != 4096 {
				continue
			}
			c := tss.New(l, tss.Options{DisableOverlapCheck: true, DisableStagedLookup: unstaged})
			if err := populateMasks(c, l, masks); err != nil {
				return nil, err
			}
			miss := bitvec.NewVec(l)
			sip, _ := l.FieldIndex("ip_src")
			miss.SetField(l, sip, 0xffffffff)
			name := fmt.Sprintf("tss_lookup_miss_masks_%d", masks)
			if unstaged {
				name += "_unstaged"
			}
			add(name, map[string]float64{"masks": float64(masks)},
				func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c.Lookup(miss, 0)
					}
				})
		}
	}

	// Parallel miss scan over one shared classifier: every goroutine holds
	// its own Handle, so the snapshot read path runs lock-free. Workers
	// records GOMAXPROCS — on a single-core host this measures the absence
	// of reader contention, not parallel speedup.
	{
		c := tss.New(l, tss.Options{DisableOverlapCheck: true})
		if err := populateMasks(c, l, 4096); err != nil {
			return nil, err
		}
		miss := bitvec.NewVec(l)
		sip, _ := l.FieldIndex("ip_src")
		miss.SetField(l, sip, 0xffffffff)
		addW("tss_lookup_parallel_masks_4096", runtime.GOMAXPROCS(0),
			map[string]float64{"masks": 4096},
			func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					hd := c.NewHandle()
					for pb.Next() {
						hd.Lookup(miss, 0)
					}
				})
			})
	}

	// Victim lookup under the co-located attack per §5.2 use case.
	for _, u := range []flowtable.UseCase{flowtable.Baseline, flowtable.Dp, flowtable.SipDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
		if err != nil {
			return nil, err
		}
		victim := benchVictimKey()
		sw.Process(victim, 0)
		if u != flowtable.Baseline {
			tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
			if err != nil {
				return nil, err
			}
			core.Replay(sw, tr, 0)
		}
		add(fmt.Sprintf("victim_lookup_%s", u),
			map[string]float64{"masks": float64(sw.MFC().MaskCount())},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sw.MFC().Lookup(victim, 0)
				}
			})
	}

	// Attack-regime datapath throughput vs worker count: every packet of
	// the co-located flood pays the shared mask scan (EMCs off — attack
	// headers never repeat), the regime PR 1 measured flat across workers
	// because all PMDs serialised on the classifier's reader/writer lock.
	// With lock-free snapshots the scan itself is contention-free; whether
	// added workers buy wall-clock throughput depends on GoMaxProcs (a
	// 1-core host runs the workers sequentially, and this file says so).
	{
		tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
		attackTr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 3})
		if err != nil {
			return nil, err
		}
		trace := attackTr.Headers
		for _, workers := range []int{1, 2, 4} {
			sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
			if err != nil {
				return nil, err
			}
			pool, err := datapath.New(datapath.Config{Switch: sw, Workers: workers, DisableEMC: true})
			if err != nil {
				return nil, err
			}
			out := pool.ProcessBatch(trace, 0, nil) // warm: install megaflows
			name := fmt.Sprintf("datapath_attack_workers_%d", workers)
			addW(name, workers, map[string]float64{
				"pkts_per_op": float64(len(trace)),
				"masks":       float64(sw.MFC().MaskCount()),
			}, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out = pool.ProcessBatch(trace, 1, out)
				}
			})
			// Record throughput explicitly so the trajectory diff reads in
			// pkts/s without dividing by the trace length.
			last := &rep.Results[len(rep.Results)-1]
			if last.NsPerOp > 0 {
				last.Extra["pkts_per_sec"] = float64(len(trace)) / (last.NsPerOp / 1e9)
			}
		}
	}

	// EMC exact-match lookup, hit and miss.
	emc := microflow.New(0)
	hit := benchVictimKey()
	emc.Insert(hit, microflow.Result{Action: flowtable.Allow})
	miss := benchVictimKey()
	dp, _ := l.FieldIndex("tp_dst")
	miss.SetField(l, dp, 81)
	add("emc_lookup_hit", nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			emc.Lookup(hit)
		}
	})
	add("emc_lookup_miss", nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			emc.Lookup(miss)
		}
	})

	// Upcall subsystem hot paths: the pending-table dedup hit (the cost a
	// same-flow miss burst pays per packet after the first) and the full
	// submit→queue→handle round trip. The round trip runs against a
	// suppressed megaflow (monitor-deleted with the quirk active), the one
	// slow-path shape that is stationary under repetition: classification
	// happens, no install mutates the cache. Both subsystems run with a
	// live metrics registry attached — the gate measures the telemetry
	// bill the production path pays, not the nil-registry fast path.
	{
		tbl := flowtable.UseCaseACL(flowtable.Dp, flowtable.ACLParams{})
		sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
		if err != nil {
			return nil, err
		}
		sub, err := upcall.New(sw, 1, upcall.Options{Metrics: telemetry.NewRegistry(4)})
		if err != nil {
			return nil, err
		}
		h := benchVictimKey()
		sw.Process(h, 0)
		sw.DeleteMegaflows(func(*tss.Entry) bool { return true })
		add("upcall_roundtrip_suppressed", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sub.SubmitSync(0, h, 0)
			}
		})
		// Park one upcall as pending so every Submit coalesces onto it.
		sub2, err := upcall.New(sw, 1, upcall.Options{Metrics: telemetry.NewRegistry(4)})
		if err != nil {
			return nil, err
		}
		sub2.Submit(0, h, 0)
		add("upcall_submit_dedup", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sub2.Submit(0, h, 0)
			}
		})
	}

	// Telemetry primitive hot paths: the sharded-counter increment every
	// instrumented touch pays and the histogram observe on the upcall
	// residence path. Both must stay allocation-free — the whole padded
	// per-shard design exists so instrumentation never shows up in the
	// families above.
	{
		reg := telemetry.NewRegistry(4)
		ctr := reg.Counter("bench_ctr", "benchmark counter")
		add("telemetry_counter_inc", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctr.Inc(0)
			}
		})
		hist := reg.Histogram("bench_hist", "benchmark histogram",
			[]int64{1, 2, 4, 8, 16})
		add("telemetry_hist_observe", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hist.Observe(0, int64(i&15))
			}
		})
	}

	// Flow-setup latency accounting: the per-pop histogram update every
	// handled upcall now pays, and the quantile read the sampler and the
	// revalidator's residence sensor issue once per virtual second. Both
	// sit on the slow-path service loop, so the gate watches them.
	{
		var h upcall.LatencyHist
		sec := int64(0)
		add("upcall_residence_observe", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(sec & 15)
				sec++
			}
		})
		var q upcall.LatencyHist
		for s := int64(0); s < 64; s++ {
			q.Observe(s & 15)
		}
		add("upcall_residence_quantile", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.P99()
			}
		})
	}

	// Megaflow-install cost at 4096 masks: the copy-on-write publish bill
	// of the lock-free read path, per install (the writer re-copies the
	// O(|M|) probe mirror on every publish) vs amortised over a 32-entry
	// InsertBatch transaction — the handler-drain burst shape, which
	// publishes once per burst. Installs are idempotent refreshes
	// round-robin over the 4096 seeded megaflows (the one-entry-per-mask
	// attack shape), so the classifier stays in steady state for any
	// iteration count and the publish — the quantity under test —
	// dominates. per_install_ns in the batched row is the direct
	// comparison figure; the regression gate watches both rows.
	{
		const burst = 32
		mkClassifier := func() (*tss.Classifier, error) {
			c := tss.New(l, tss.Options{DisableOverlapCheck: true})
			if err := populateMasks(c, l, 4096); err != nil {
				return nil, err
			}
			return c, nil
		}
		c1, err := mkClassifier()
		if err != nil {
			return nil, err
		}
		seed := c1.Entries()
		n := 0
		add("tss_install_masks_4096", map[string]float64{"masks": 4096},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := seed[n%len(seed)]
					n++
					c1.Insert(&tss.Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}, 0)
				}
			})
		c2, err := mkClassifier()
		if err != nil {
			return nil, err
		}
		seed2 := c2.Entries()
		es := make([]*tss.Entry, burst)
		n = 0
		add("tss_install_batched_masks_4096",
			map[string]float64{"masks": 4096, "batch": burst},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range es {
						e := seed2[n%len(seed2)]
						n++
						es[j] = &tss.Entry{Key: e.Key, Mask: e.Mask, Action: flowtable.Drop}
					}
					c2.InsertBatch(es, 0)
				}
			})
		// One batched op installs `burst` megaflows; record the per-install
		// figure so the trajectory reads without dividing.
		last := &rep.Results[len(rep.Results)-1]
		last.Extra["per_install_ns"] = last.NsPerOp / burst
	}

	// Trace-replay ingest: the wire-rate path tsebench -replay drives.
	// trace_replay_decode is the pure mmap-image→SoA-batch decode;
	// trace_replay_burst adds the serial dispatch through the pool's
	// 32-packet bursts on a warm EMC. Both must stay at 0 allocs/op —
	// the zero-copy contract of the ingest path — and the gate watches
	// their timings. trace_replay_parallel replays the same mix through a
	// 4-worker pool with goroutine dispatch (on a 1-core host this prices
	// the handoff, not parallel ingest; see GoMaxProcs).
	{
		mkImage := func(attack bool) ([]byte, error) {
			opts := trc.SynthOptions{Seconds: 1, Victims: 16, VictimPps: 500, Ports: 4}
			if attack {
				tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
				atk, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 1})
				if err != nil {
					return nil, err
				}
				opts.Attack, opts.AttackPps = atk, 500
			}
			var buf trc.Buffer
			w, err := trc.NewWriter(&buf, bitvec.IPv4Tuple)
			if err != nil {
				return nil, err
			}
			if err := trc.Synthesize(w, opts); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		image, err := mkImage(false)
		if err != nil {
			return nil, err
		}
		rd, err := trc.NewReader(image)
		if err != nil {
			return nil, err
		}
		batch := trc.NewBatch(rd.Words(), trc.DefaultChunk)
		add("trace_replay_decode", map[string]float64{"chunk": trc.DefaultChunk},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if rd.Next(batch) == 0 {
						rd.Reset()
					}
				}
			})
		mkPool := func(workers int) (*datapath.Pool, error) {
			tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
			if err != nil {
				return nil, err
			}
			return datapath.New(datapath.Config{Switch: sw, Workers: workers, Ports: 4})
		}
		pool, err := mkPool(1)
		if err != nil {
			return nil, err
		}
		rr := &trc.Replayer{Pool: pool, Serial: true}
		rd.Reset()
		rr.Run(rd) // warm: EMC primed, dispatch buffers grown
		rd.Reset()
		add("trace_replay_burst", map[string]float64{"chunk": trc.DefaultChunk},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := rd.Next(batch)
					if n == 0 {
						rd.Reset()
						continue
					}
					rr.Dispatch(batch, 0)
				}
			})
		pool4, err := mkPool(4)
		if err != nil {
			return nil, err
		}
		rd.Reset()
		rr4 := &trc.Replayer{Pool: pool4}
		addW("trace_replay_parallel", 4,
			map[string]float64{"pkts_per_op": float64(rd.Count())},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rd.Reset()
					rr4.Run(rd)
				}
			})
	}

	// The upcall-saturation suite: the slow-path overload regime of the
	// paper (every attack packet a flow miss), unbounded vs bounded. The
	// series is folded by the same summarise the `saturation` experiment
	// prints, so the JSON trajectory and the table cannot diverge.
	runScenario := func(sc *dataplane.Scenario) error {
		hub := telemetry.NewHub()
		sc.Telemetry = hub
		start := time.Now()
		samples, err := sc.Run()
		if err != nil {
			return err
		}
		wall := time.Since(start)
		s := summarise(samples)
		restarts, trips := 0, 0
		faultSec, recovery := -1, -1
		for _, smp := range samples {
			if u := smp.Upcall; u != nil {
				restarts += u.HandlerRestarts
				trips += u.BreakerTrips
				if faultSec < 0 && (u.HandlerPanics > 0 || u.StallsDetected > 0 ||
					u.InstallErrors > 0 || u.SweepStalls > 0) {
					faultSec = smp.Sec
				}
			}
		}
		if faultSec >= 0 {
			recovery = chaosRecovery(samples, faultSec)
		}
		metrics := make(map[string]float64)
		for _, p := range hub.Reg.Snapshot().Points {
			if p.Kind == telemetry.KindHistogram || p.Value == 0 ||
				p.Name == "tse_up" || p.Name == "tse_goroutines" {
				continue
			}
			metrics[p.Name] = p.Value
		}
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{
			Name:              sc.Name,
			Workers:           sc.Workers,
			FailoverSec:       -1,
			ACLConvergenceSec: -1,
			PeakMasks:         s.PeakMasks,
			PeakBacklog:       s.PeakBacklog,
			Enqueued:          s.Enqueued,
			Deduped:           s.Deduped,
			QueueDrops:        s.QueueDrops,
			QuotaDrops:        s.QuotaDrops,
			Handled:           s.Handled,
			VictimPreGbps:     s.PreGbps,
			VictimUnderGbps:   s.UnderGbps,
			VictimPostGbps:    s.PostGbps,
			FctP50UnderSec:    s.FctP50Under,
			FctP99UnderSec:    s.FctP99Under,
			HandlerRestarts:   restarts,
			BreakerTrips:      trips,
			RecoverySec:       recovery,
			WallMs:            float64(wall.Nanoseconds()) / 1e6,
			Metrics:           metrics,
		})
		return nil
	}
	for _, bounded := range []bool{false, true} {
		sc, err := dataplane.SaturationScenario(2, bounded)
		if err != nil {
			return nil, err
		}
		if err := runScenario(sc); err != nil {
			return nil, err
		}
	}

	// The port-fairness suite: worker-keyed vs port-keyed vs adaptive
	// quotas under the same flood + policy churn (see the portfairness
	// experiment). Their victim_under rows are the fairness trajectory;
	// adaptiveraw is the un-smoothed single-input controller kept as the
	// flap ablation.
	for _, mode := range []dataplane.PortFairnessMode{
		dataplane.FairnessWorkerKeyed,
		dataplane.FairnessPortKeyed,
		dataplane.FairnessAdaptiveRaw,
		dataplane.FairnessAdaptive,
	} {
		sc, err := dataplane.PortFairnessScenario(mode)
		if err != nil {
			return nil, err
		}
		if err := runScenario(sc); err != nil {
			return nil, err
		}
	}

	// The chaos suite: the same attack with the slow path failing mid-flood
	// (see the chaos experiment). The unsupervised row pins the wedge's
	// cost in the trajectory; the supervised row's recovery_sec is the
	// self-healing bound the CI smoke asserts.
	for _, mode := range []dataplane.ChaosMode{
		dataplane.ChaosUnsupervised,
		dataplane.ChaosSupervised,
	} {
		sc, err := dataplane.ChaosScenario(mode)
		if err != nil {
			return nil, err
		}
		if err := runScenario(sc); err != nil {
			return nil, err
		}
	}

	// The fleet suite: the cluster fabric under the fleetchaos fault
	// burst. The unsupervised row pins the uncontained blast radius in
	// the trajectory; the supervised row's failover_sec is the
	// detection-plus-recovery bound the CI fleet smoke asserts.
	for _, mode := range []cluster.FleetMode{
		cluster.FleetUnsupervised,
		cluster.FleetSupervised,
	} {
		cfg, err := cluster.FleetChaosConfig(mode, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, res, err := cluster.RunFleetChaos(mode, nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		row := ScenarioResult{
			Name:              "FleetChaos-" + string(mode),
			Workers:           cfg.Nodes * cfg.WorkersPerNode,
			BlastRadiusFrac:   res.BlastRadiusFrac,
			FailoverSec:       int(res.FailoverSec),
			ACLConvergenceSec: int(res.ACLConvergenceSec),
			RecoverySec:       int(res.FailoverSec),
			FctP50UnderSec:    -1,
			FctP99UnderSec:    -1,
			WallMs:            float64(wall.Nanoseconds()) / 1e6,
		}
		pre, under := 0.0, 0.0
		for i, w := range cfg.Workloads {
			if w.Attacker {
				continue
			}
			pre += res.PreFault[i]
			under += res.FaultWin[i]
		}
		row.VictimPreGbps, row.VictimUnderGbps = pre, under
		for _, s := range res.Samples {
			for _, ns := range s.Nodes {
				if ns.Masks > row.PeakMasks {
					row.PeakMasks = ns.Masks
				}
				if ns.Backlog > row.PeakBacklog {
					row.PeakBacklog = ns.Backlog
				}
				row.Enqueued += ns.Enqueued
				row.QueueDrops += ns.QueueDrops
				row.QuotaDrops += ns.QuotaDrops
				row.Handled += ns.Handled
			}
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}

	// The replay suite: achieved wall-clock ingest for the two canned
	// traces. Victim-mix is the wire-rate ceiling (the CI smoke asserts
	// it nonzero); the TSE row pins the collapse-under-attack rate and
	// mask count in the trajectory. The virtual-time fields carry their
	// not-applicable conventions (-1).
	for _, preset := range []dataplane.ReplayPreset{
		dataplane.ReplayVictimMix,
		dataplane.ReplayTSE,
	} {
		rd, _, err := dataplane.ReplayScenario(preset, 2)
		if err != nil {
			return nil, err
		}
		res, err := dataplane.RunReplay(dataplane.ReplayConfig{TickSwitch: true}, rd)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{
			Name:              "Replay-" + string(preset),
			Workers:           1,
			PeakMasks:         res.Masks,
			FctP50UnderSec:    -1,
			FctP99UnderSec:    -1,
			RecoverySec:       -1,
			FailoverSec:       -1,
			ACLConvergenceSec: -1,
			Mpps:              res.Mpps,
			WallMs:            res.WallMs,
		})
	}
	return rep, nil
}

// WriteBenchJSON runs the suite and writes the report to path, logging
// progress to w.
func WriteBenchJSON(w io.Writer, path string) error {
	fmt.Fprintf(w, "running hot-path benchmark suite (this takes a few seconds)...\n")
	rep, err := BenchJSON()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-28s %12.1f ns/op %6d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	for _, s := range rep.Scenarios {
		fmt.Fprintf(w, "%-36s peak_masks=%-5d drops=%-6d under=%.2fG (%.0f ms)\n",
			s.Name, s.PeakMasks, s.QueueDrops+s.QuotaDrops, s.VictimUnderGbps, s.WallMs)
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
