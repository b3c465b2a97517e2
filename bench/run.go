package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/trace"
	"tse/internal/vswitch"
)

// A run sets up (trace synthesis through warm-up pass) at least
// setupMinReps times and reports the best decile as setup_s; a set-up
// that takes milliseconds is repeated until setupBudget is spent or
// setupMaxReps is reached, because three such samples would make the
// noisiest metric of the file.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupBudget  = time.Second
)

// tracedShare is the part of -seconds a persistent-pipeline workload
// spends in the traced run.
const tracedShare = 0.3

// counts are the counters that must repeat exactly for a given seed: the
// pipeline's cumulative totals after its first post-warm-up pass.
type counts struct {
	Packets      uint64 `json:"packets"`
	EMCHits      uint64 `json:"emc_hits"`
	MegaflowHits uint64 `json:"megaflow_hits"`
	SlowPath     uint64 `json:"slow_path"`
	Allowed      uint64 `json:"allowed"`
	Dropped      uint64 `json:"dropped"`
	Probes       uint64 `json:"probes"`
	Masks        int    `json:"masks"`
	Entries      int    `json:"entries"`
	MasksPeak    int    `json:"masks_peak"`
	EntriesPeak  int    `json:"entries_peak"`
}

// peaks follows the megaflow cache's high-water marks, sampled once per
// decoded chunk.
type peaks struct{ masks, entries int }

func (p *peaks) observe(sw *vswitch.Switch) {
	p.masks = max(p.masks, sw.MFC().MaskCount())
	p.entries = max(p.entries, sw.MFC().EntryCount())
}

// input is one workload's generated trace, opened the way the product
// opens it, plus the oracle's answers.
type input struct {
	w       *workload
	tbl     *flowtable.Table
	path    string
	rd      *trace.Reader
	records int
	// oracle[i] is flowtable.Table.Lookup's action for record i; want is
	// the same tallied per port.
	oracle   []uint8
	want     [ports]struct{ allowed, dropped uint64 }
	oracleNs float64 // ns per oracle lookup
	// b is the one decode batch every pass over the trace reuses.
	b *trace.Batch
}

// next decodes the next chunk into in.b with its ticks shifted by
// tickOff (the batch's own copy), and returns its length; 0 ends a pass.
func (in *input) next(tickOff int64) int {
	n := in.rd.Next(in.b)
	if tickOff != 0 {
		for i := range in.b.Ticks {
			in.b.Ticks[i] += tickOff
		}
	}
	return n
}

func (in *input) close() {
	in.rd.Close()
	os.Remove(in.path)
}

func (in *input) sha256() (string, error) {
	data, err := os.ReadFile(in.path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// prepare does everything setup_s covers except the warm-up pass:
// synthesise the trace from the seed, write it, map it, and walk it once
// with the oracle.
func prepare(w *workload, seed int64, scale float64) (*input, error) {
	in := &input{w: w, tbl: flowtable.UseCaseACL(w.use, flowtable.ACLParams{})}
	f, err := os.CreateTemp("", "replaybench-"+w.name+"-*.trace")
	if err != nil {
		return nil, err
	}
	in.path = f.Name()
	tw, err := trace.NewWriter(f, in.tbl.Layout())
	if err == nil {
		err = w.synth(tw, synthArgs{tbl: in.tbl, rng: rand.New(rand.NewSource(seed)),
			seconds: w.seconds, scale: scale})
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		in.rd, err = trace.Open(in.path)
	}
	if err != nil {
		os.Remove(in.path)
		return nil, fmt.Errorf("%s: building trace: %w", w.name, err)
	}
	in.records = int(in.rd.Count())
	in.oracle = make([]uint8, 0, in.records)
	in.b = trace.NewBatch(in.rd.Words(), trace.DefaultChunk)
	b := in.b
	t0 := time.Now()
	for in.rd.Next(b) > 0 {
		for i, h := range b.Keys {
			act := flowtable.Drop
			if r := in.tbl.Lookup(h); r != nil {
				act = r.Action
			}
			in.oracle = append(in.oracle, uint8(act))
			if act == flowtable.Drop {
				in.want[b.Ports[i]].dropped++
			} else {
				in.want[b.Ports[i]].allowed++
			}
		}
	}
	in.oracleNs = float64(time.Since(t0)) / float64(in.records)
	return in, nil
}

// timed is what the untraced run measures. Every pass replays the same
// trace, so a pass is one repetition of the experiment: each contributes
// its rate and the median and 99th percentile of its chunks, and the run
// reports the best decile of each (see bestDecile).
type timed struct {
	passMpps, passP50, passP99 []float64
	decodeNs, dispatchNs       int64
	packets, chunks            uint64

	samples []float64 // one pass's (decode + dispatch) ns per packet, per chunk
}

// replay runs pass number pass of the trace through p, the product path:
// decode a chunk, dispatch it, decode the next.
func (in *input) replay(p *pipeline, pass int, m *timed) {
	in.rd.Reset()
	tickOff := in.w.tickOffset(pass)
	start := time.Now()
	for {
		t0 := time.Now()
		n := in.next(tickOff)
		if n == 0 {
			break
		}
		t1 := time.Now()
		p.dispatch(in.b)
		t2 := time.Now()
		m.decodeNs += int64(t1.Sub(t0))
		m.dispatchNs += int64(t2.Sub(t1))
		m.samples = append(m.samples, float64(t2.Sub(t0))/float64(n))
		p.pk.observe(p.sw)
	}
	m.passMpps = append(m.passMpps, float64(in.records)*1e3/float64(time.Since(start)))
	m.packets += uint64(in.records)
	m.chunks += uint64(len(m.samples))
	sort.Float64s(m.samples)
	m.passP50 = append(m.passP50, quantile(m.samples, 0.50))
	m.passP99 = append(m.passP99, quantile(m.samples, 0.99))
	m.samples = m.samples[:0]
}

// newCounts snapshots a loop's totals (the pool's, or the shadow loop's)
// with the megaflow cache's current and peak sizes.
func newCounts(t datapath.WorkerStats, sw *vswitch.Switch, pk peaks) counts {
	return counts{Packets: t.Packets, EMCHits: t.EMCHits, MegaflowHits: t.MegaflowHits,
		SlowPath: t.SlowPath, Allowed: t.Allowed, Dropped: t.Dropped, Probes: t.Probes,
		Masks: sw.MFC().MaskCount(), Entries: sw.MFC().EntryCount(),
		MasksPeak: pk.masks, EntriesPeak: pk.entries}
}

// verify compares the pool's per-port ledger after passes passes with the
// oracle's tally and checks conservation, and books the outcome in res.
func (in *input) verify(p *pipeline, passes uint64, res *result) {
	res.Attempted += uint64(in.records) * passes
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	t := p.pool.Totals()
	for port, ps := range t.Ports {
		want := in.want[port]
		if d := diff(ps.Allowed, want.allowed*passes) + diff(ps.Dropped, want.dropped*passes); d > 0 {
			res.Failed += d
			res.problems = append(res.problems, fmt.Sprintf("port %d: pool allowed/dropped %d/%d, oracle %d/%d",
				port, ps.Allowed, ps.Dropped, want.allowed*passes, want.dropped*passes))
		}
	}
	if d := diff(t.Packets, t.Allowed+t.Dropped); d > 0 {
		res.Failed += d
		res.problems = append(res.problems, fmt.Sprintf("conservation: %d packets, %d allowed + %d dropped",
			t.Packets, t.Allowed, t.Dropped))
	}
}

// result is everything one run of one workload produced.
type result struct {
	Workload string             `json:"-"`
	SHA256   string             `json:"trace_sha256"`
	Records  int                `json:"records"`
	Counts   counts             `json:"counts"`
	E2E      map[string]float64 `json:"e2e,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Samples  struct {
		Passes int `json:"passes"`
		Chunks int `json:"chunks"`
	} `json:"samples"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`

	problems []string // verification failures, for the report
}

// runOpts selects what a run measures.
type runOpts struct {
	seed     int64
	seconds  float64
	scale    float64
	e2e      bool   // report end-to-end metrics (and repeat the set-up)
	layers   bool   // run the shadow loop and report per-layer metrics
	traceOut string // chrome-trace file for the shadow loop's spans
}

// setUp does everything setup_s covers, trace synthesis through warm-up
// pass: once, or as often as the constants above say when the run reports
// end-to-end metrics. It returns
// the last repetition's input and warmed pipeline, which are the ones
// measured, and every repetition's duration in seconds.
func setUp(w *workload, o runOpts) (in *input, p *pipeline, durs []float64, err error) {
	reps := 1
	if o.e2e {
		reps = setupMaxReps
	}
	for spent := time.Duration(0); len(durs) < reps && (len(durs) < setupMinReps || spent < setupBudget); {
		if in != nil {
			in.close()
			p.pool.Close()
		}
		t0 := time.Now()
		if in, err = prepare(w, o.seed, o.scale); err != nil {
			return nil, nil, nil, err
		}
		if p, err = w.build(in.tbl); err != nil {
			in.close()
			return nil, nil, nil, err
		}
		in.replay(p, 0, &timed{})
		d := time.Since(t0)
		spent += d
		durs = append(durs, d.Seconds())
	}
	return in, p, durs, nil
}

// run measures one workload: set-up, the untraced timed run on the
// product path, then (opts.layers) the traced run on the shadow loop.
func run(w *workload, o runOpts) (*result, error) {
	res := &result{Workload: w.name}
	m := &timed{}
	heap0 := liveHeap()

	in, p, setupS, err := setUp(w, o)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if res.SHA256, err = in.sha256(); err != nil {
		return nil, err
	}
	res.Records = in.records

	// Timed run.
	timedSeconds := o.seconds
	if !o.e2e {
		timedSeconds *= 1 - tracedShare
	}
	minPasses := 1
	if w.fresh {
		minPasses = 2 // the exact-repeat check needs two
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	passes := 0
	for time.Since(start).Seconds() < timedSeconds || passes < minPasses {
		if w.fresh {
			p.pool.Close()
			if p, err = w.build(in.tbl); err != nil {
				return nil, err
			}
		}
		passes++
		in.replay(p, passes, m)
		if w.fresh {
			in.verify(p, 1, res)
		}
		if c := newCounts(p.pool.Totals(), p.sw, p.pk); passes == 1 {
			res.Counts = c
		} else if w.fresh && c != res.Counts {
			return nil, fmt.Errorf("%s: pass %d counters %+v differ from pass 1 %+v", w.name, passes, c, res.Counts)
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if !w.fresh {
		in.verify(p, uint64(passes+1), res) // the warm-up pass counts too
	}
	heap := liveHeap() - heap0
	runtime.KeepAlive(p)
	p.pool.Close()
	res.Samples.Passes, res.Samples.Chunks = passes, int(m.chunks)

	if o.e2e {
		res.E2E = map[string]float64{
			"throughput_mpps": bestDecile(m.passMpps, true),
			"pkt_ns_p50":      bestDecile(m.passP50, false),
			"pkt_ns_p99":      bestDecile(m.passP99, false),
			"live_heap_mb":    float64(heap) / (1 << 20),
			"setup_s":         bestDecile(setupS, false),
		}
	}
	if !o.layers {
		return res, nil
	}

	tr, err := in.traced(o.seconds*tracedShare, res)
	if err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := tr.s.tr.writeChrome(o.traceOut); err != nil {
			return nil, err
		}
	}
	kpkt := float64(m.packets) / 1e3
	res.Layers = tr.metrics()
	for name, v := range map[string]float64{
		"flowtable.oracle_ns_per_lookup": in.oracleNs,
		"datapath.pool_ns_per_pkt":       float64(m.dispatchNs) / float64(m.packets),
		"datapath.overhead_ns_per_pkt":   float64(m.dispatchNs)/float64(m.packets) - tr.dispatchSpanNsPerPkt(),
		"datapath.shadow_counter_match":  boolMetric(tr.counts == res.Counts),
		"run.allocs_per_kpkt":            float64(ms1.Mallocs-ms0.Mallocs) / kpkt,
		"run.bytes_per_pkt":              float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(m.packets),
		"run.gc_cycles":                  float64(ms1.NumGC - ms0.NumGC),
		"run.cpu_busy_frac":              cpu.Seconds() / wall.Seconds(),
		"run.trace_overhead_frac":        tr.nsPerPkt()/(float64(m.decodeNs+m.dispatchNs)/float64(m.packets)) - 1,
	} {
		res.Layers[name] = v
	}
	if tr.counts != res.Counts {
		res.problems = append(res.problems, fmt.Sprintf(
			"SHADOW LOOP DIVERGED (not a failure; the per-layer shares need a benchmark PR): shadow %+v, pool %+v",
			tr.counts, res.Counts))
	}
	return res, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// liveHeap is HeapAlloc after two collections: what the previous workload
// left in sync.Pools or behind finalizers survives the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// bestDecile summarises the repetitions of one measurement (passes,
// set-ups) by the value a tenth of the way in from the best end: the
// fastest of three, the 130th fastest of 1 300. The reference host runs
// in modes up to 25 % apart that alternate every few seconds with
// whatever else the hypervisor schedules beside it. A median lands in
// either mode depending on the mix (runs of one binary 20 % apart), and
// the very best repetition catches a mode too rare to be there every
// run; interference only ever slows a repetition, so the best decile says
// what the code costs and is there in most runs.
func bestDecile(v []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return quantile(s, 0.9)
	}
	return quantile(s, 0.1)
}
