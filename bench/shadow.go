package main

import (
	"encoding/json"
	"os"
	"time"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/microflow"
	"tse/internal/trace"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// spanKind names one layer call the shadow loop wraps in a span.
type spanKind uint8

const (
	spanDecode     spanKind = iota // trace.Reader.Next
	spanSweep                      // vswitch.Switch.Tick
	spanRevalidate                 // upcall.Revalidator.Tick
	spanEMCLookup                  // microflow.Cache.LookupBatch
	spanProcess                    // vswitch.Switch.ProcessBatchOn
	spanMiss                       // vswitch.Switch.HandleMissFrom (child of process)
	spanSubmitSync                 // upcall.Subsystem.SubmitSync (child of process)
	spanEMCInsert                  // the microflow.Cache.Insert loop
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"trace.decode", "vswitch.sweep", "upcall.revalidate",
	"microflow.lookup", "vswitch.process", "vswitch.miss", "upcall.submit_sync", "microflow.insert"}

// span is one recorded layer call. parent is the ring sequence number of
// the enclosing span (-1 at top level); spans of one decoded chunk share
// its chunk id.
type span struct {
	kind       spanKind
	parent     int64
	chunk      int64
	start, end int64 // ns since the tracer's origin
}

// spanAgg is the per-kind aggregate: self time is duration minus the
// part covered by child spans.
type spanAgg struct {
	count         uint64
	sumNs, selfNs int64
	maxNs         int64
}

// ringSize bounds the raw spans kept for -trace-out: the aggregates are
// exact over the whole run, the ring holds the most recent spans.
const ringSize = 1 << 14

type tracer struct {
	origin time.Time
	agg    [numSpanKinds]spanAgg
	ring   []span
	seq    int64 // spans recorded so far; seq%ringSize is the next ring slot
	chunk  int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ring: make([]span, ringSize)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// reset drops the aggregates (after a warm-up pass); the ring keeps
// rolling.
func (t *tracer) reset() { t.agg = [numSpanKinds]spanAgg{} }

// record stores one finished span and returns its sequence number, which
// later spans name as their parent. childNs is the time its child spans
// covered.
func (t *tracer) record(kind spanKind, parent, start, end, childNs int64) int64 {
	d := end - start
	a := &t.agg[kind]
	a.count++
	a.sumNs += d
	a.selfNs += d - childNs
	if d > a.maxNs {
		a.maxNs = d
	}
	id := t.seq
	t.ring[id%ringSize] = span{kind: kind, parent: parent, chunk: t.chunk, start: start, end: end}
	t.seq++
	return id
}

// selfNs sums the self time of the given span kinds, or of all kinds
// when none is given: the time inside any span.
func (t *tracer) selfNs(kinds ...spanKind) int64 {
	var n int64
	if len(kinds) == 0 {
		for k := range t.agg {
			n += t.agg[k].selfNs
		}
	}
	for _, k := range kinds {
		n += t.agg[k].selfNs
	}
	return n
}

// writeChrome dumps the ring as chrome-trace JSON ("X" complete events,
// microsecond timestamps), oldest span first.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	first := max(t.seq-ringSize, 0)
	events := make([]event, 0, t.seq-first)
	for id := first; id < t.seq; id++ {
		s := t.ring[id%ringSize]
		events = append(events, event{Name: spanNames[s.kind], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]int64{"id": id, "parent": s.parent, "chunk": s.chunk}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// shadow is the traced stand-in for a one-worker datapath.Pool: the same
// public layer calls worker.burstRun makes, in the same order, on its own
// switch, EMC and classifier handle, each wrapped in a span. Its counters
// are compared with the pool's (datapath.shadow_counter_match): while
// they agree, the per-layer shares describe the product loop.
type shadow struct {
	sw  *vswitch.Switch
	emc *microflow.Cache
	mfc *tss.Handle
	up  *upcall.Subsystem   // nil: inline slow path
	rv  *upcall.Revalidator // nil: Switch.Tick sweeps
	tr  *tracer

	stats   datapath.WorkerStats
	pk      peaks
	expired int   // megaflows evicted by sweeps
	last    int64 // last tick dispatched

	emcRes    []microflow.Result
	emcOK     []bool
	missHs    []bitvec.Vec
	missIdx   []int
	missPorts []int
	verdicts  []vswitch.Verdict
}

func newShadow(w *workload, tbl *flowtable.Table) (*shadow, error) {
	sw, err := newSwitch(w, tbl)
	if err != nil {
		return nil, err
	}
	s := &shadow{sw: sw, emc: microflow.New(0), mfc: sw.MFC().NewHandle(), tr: newTracer(), last: -1,
		emcRes:   make([]microflow.Result, datapath.DefaultBatchSize),
		emcOK:    make([]bool, datapath.DefaultBatchSize),
		verdicts: make([]vswitch.Verdict, datapath.DefaultBatchSize)}
	if w.upcall {
		if s.up, err = upcall.New(sw, ports, upcall.Options{}); err != nil {
			return nil, err
		}
		if s.rv, err = newRevalidator(sw, s.up); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// dispatch mirrors trace.Replayer.Dispatch (tick split, sweep between
// ticks) and worker.run (32-packet bursts) for one decoded chunk. out
// receives one verdict per record.
func (s *shadow) dispatch(b *trace.Batch, out []vswitch.Verdict) {
	for i := 0; i < len(b.Ticks); {
		tick := b.Ticks[i]
		j := i + 1
		for j < len(b.Ticks) && b.Ticks[j] == tick {
			j++
		}
		if tick != s.last && s.last >= 0 {
			s.sweep(tick)
		}
		s.last = tick
		for start := i; start < j; start += datapath.DefaultBatchSize {
			end := min(start+datapath.DefaultBatchSize, j)
			s.burst(b.Keys[start:end], b.Ports[start:end], tick, out[start:end])
		}
		i = j
	}
}

func (s *shadow) sweep(now int64) {
	t0 := s.tr.now()
	if s.rv != nil {
		s.expired += s.rv.Tick(now).Expired
		s.tr.record(spanRevalidate, -1, t0, s.tr.now(), 0)
		return
	}
	s.expired += s.sw.Tick(now)
	s.tr.record(spanSweep, -1, t0, s.tr.now(), 0)
}

// burst is worker.burstRun without the parts a one-worker, inline or
// drive-mode pool never reaches (prefetch pass, tickets, deferred mode).
func (s *shadow) burst(hs []bitvec.Vec, ports []int, now int64, out []vswitch.Verdict) {
	tr := s.tr
	s.stats.Packets += uint64(len(hs))

	t0 := tr.now()
	s.emc.LookupBatch(hs, s.emcRes, s.emcOK)
	tr.record(spanEMCLookup, -1, t0, tr.now(), 0)

	s.missHs, s.missIdx, s.missPorts = s.missHs[:0], s.missIdx[:0], s.missPorts[:0]
	for i := range hs {
		if s.emcOK[i] {
			out[i] = vswitch.Verdict{Action: s.emcRes[i].Action,
				OutPort: s.emcRes[i].OutPort, Path: vswitch.PathMicroflow}
			s.stats.EMCHits++
			s.tally(out[i])
			continue
		}
		s.missHs = append(s.missHs, hs[i])
		s.missIdx = append(s.missIdx, i)
		s.missPorts = append(s.missPorts, ports[i])
	}
	if len(s.missHs) == 0 {
		return
	}

	// The process span's id is only known once it ends; its children are
	// recorded first and patched to point at it.
	var childNs, children int64
	t0 = tr.now()
	verdicts := s.sw.ProcessBatchOn(s.mfc, s.missHs, now, s.verdicts, func(i, probes int) vswitch.Verdict {
		c0 := tr.now()
		var v vswitch.Verdict
		kind := spanMiss
		if s.up == nil {
			// The pool's inline slow path attributes installs to vport 0.
			v = s.sw.HandleMissFrom(0, s.missHs[i], now)
		} else {
			kind = spanSubmitSync
			var o upcall.Outcome
			v, o = s.up.SubmitSync(s.missPorts[i], s.missHs[i], now)
			if o.Dropped() {
				s.stats.UpcallDrops++
				v = vswitch.Verdict{Action: flowtable.Drop, Path: vswitch.PathUpcallDrop, Probes: probes}
			} else {
				s.stats.Upcalls++
			}
		}
		c1 := tr.now()
		tr.record(kind, -1, c0, c1, 0)
		childNs += c1 - c0
		children++
		return v
	})
	id := tr.record(spanProcess, -1, t0, tr.now(), childNs)
	for k := int64(1); k <= children; k++ {
		tr.ring[(id-k)%ringSize].parent = id
	}

	t0 = tr.now()
	for i, v := range verdicts {
		out[s.missIdx[i]] = v
		switch v.Path {
		case vswitch.PathMegaflow:
			s.stats.MegaflowHits++
		case vswitch.PathSlow:
			s.stats.SlowPath++
		case vswitch.PathUpcallDrop:
			s.stats.Probes += uint64(v.Probes)
			s.tally(v)
			continue
		}
		s.stats.Probes += uint64(v.Probes)
		s.tally(v)
		s.emc.Insert(s.missHs[i], microflow.Result{Action: v.Action, OutPort: v.OutPort})
	}
	tr.record(spanEMCInsert, -1, t0, tr.now(), 0)
}

func (s *shadow) tally(v vswitch.Verdict) {
	if v.Action == flowtable.Drop {
		s.stats.Dropped++
	} else {
		s.stats.Allowed++
	}
}
