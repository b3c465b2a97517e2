package dataplane

import (
	"fmt"
	"math"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/telemetry"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// This file is the one virtual-time driver of the switch: a step function
// that advances a PMD pool by one second — lifecycle tick, flood, victim
// probes, flood remainder, handler drain, per-worker budget waterfill,
// sample. Scenario.Run steps it for every scenario shape and each fleet
// node of internal/cluster owns one. (The wall-clock driver is
// trace.Replayer.)
//
// Synchronous and asynchronous slow paths are not a mode of the engine but
// a property of its pool. On an inline pool the switch's own Tick expires
// idle megaflows, an ACL injection revalidates inline (ReplaceTable), and
// the whole flood lands before the victims' probes. On a pool with an
// upcall subsystem the revalidator owns the megaflow lifecycle, an ACL
// injection is a bare SwapTable the next sweep reconciles, the victims'
// probes land mid-flood, and the handlers drain on their own per-second
// service budget.

// EngineConfig assembles an engine around a switch.
type EngineConfig struct {
	// Switch is the device under test.
	Switch *vswitch.Switch
	// NIC selects the cost profile.
	NIC NICProfile
	// PerCoreBudget, if > 0, replaces the calibrated per-core CPU budget.
	PerCoreBudget float64
	// Workers is the PMD pool width; <= 0 selects 1.
	Workers int
	// Ports is the ingress vport count floods and victims name their Port
	// within: packets are pinned to workers by port (rxq-to-PMD) and, on
	// the asynchronous slow path, admitted against their port's queue and
	// quota. 0 selects the port-oblivious shape — one vport per worker and
	// RSS-derived dispatch, Flood.Port and Victim.Port ignored — so traffic
	// that never names a port still spreads across the cores.
	Ports int
	// Upcall, when non-nil, gives the pool the asynchronous slow path.
	Upcall *UpcallParams
	// Telemetry optionally threads a registry, journal and tracer through
	// the switch, pool, upcall subsystem and revalidator. Any hub field
	// may be nil.
	Telemetry *telemetry.Hub
}

// Flood is one attack source's activity during one tick.
type Flood struct {
	// Headers are replayed cyclically from *Cursor (keeping the spawned
	// megaflows warm); Step advances the cursor.
	Headers []bitvec.Vec
	Cursor  *int
	// Port is the ingress vport the flood arrives on.
	Port int
	// RatePps is the number of packets this tick.
	RatePps int
	// InjectACL, if non-nil, replaces the switch's flow table before the
	// flood's first packet of the tick.
	InjectACL *flowtable.Table
}

// Engine advances one switch by one virtual second per Step.
type Engine struct {
	pool          *datapath.Pool
	rv            *upcall.Revalidator // nil on an inline pool
	nic           NICProfile
	perCore       float64
	handledPerSec int
	portAware     bool
	journal       *telemetry.Journal

	// scratch buffers reused across ticks
	batch    []bitvec.Vec
	ports    []int
	verdicts []vswitch.Verdict

	prev upcallTotals // cumulative counters at the previous sample
}

// NewEngine builds the pool (and, with cfg.Upcall, the upcall subsystem
// and revalidator) the engine steps. Per-worker EMCs are disabled: the
// engine prices each victim flow from one probe packet per second, which
// with an EMC in front would always be an exact-match hit and never
// observe the megaflow scan cost the attack inflates.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("dataplane: engine needs a switch")
	}
	if err := cfg.NIC.Validate(); err != nil {
		return nil, err
	}
	var hub telemetry.Hub
	if cfg.Telemetry != nil {
		hub = *cfg.Telemetry
	}
	if hub.Reg != nil {
		cfg.Switch.AttachMetrics(hub.Reg)
	}
	e := &Engine{
		nic:       cfg.NIC,
		perCore:   cfg.PerCoreBudget,
		portAware: cfg.Ports > 0,
		journal:   hub.Journal,
	}
	if e.perCore <= 0 {
		e.perCore = NewModel(cfg.NIC).Budget()
	}
	pcfg := datapath.Config{Switch: cfg.Switch, Workers: cfg.Workers, Ports: cfg.Ports,
		Metrics: hub.Reg, DisableEMC: true}
	if cfg.Upcall != nil {
		pcfg.Upcall = cfg.Upcall.options(hub)
		e.handledPerSec = cfg.Upcall.HandledPerSec
	}
	pool, err := datapath.New(pcfg)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	if cfg.Upcall != nil {
		if e.rv, err = cfg.Upcall.revalidator(cfg.Switch, pool.Upcalls(), hub); err != nil {
			return nil, err
		}
		e.prev = e.upcallTotals()
	}
	return e, nil
}

// Upcalls returns the engine's upcall subsystem, nil on the inline slow
// path.
func (e *Engine) Upcalls() *upcall.Subsystem { return e.pool.Upcalls() }

// Step runs virtual second t: the floods and the victims that have started
// share the switch, and the per-core CPU budget left over by the flood is
// waterfilled across each worker's victims. Sample.VictimGbps is aligned
// with victims.
//
// On the asynchronous slow path the victims' probes land mid-flood: half
// of each flood's packets are dispatched first, then the victims, then the
// rest. A steady one-probe-per-second flow arrives at an effectively
// uniform position inside the second, and granting it the head-of-second
// slot would hand every victim a fresh admission bucket before the flood —
// exactly the order-dependence the per-port quotas exist to remove.
func (e *Engine) Step(t int, floods []Flood, victims []*Victim) (Sample, error) {
	if err := e.checkPorts(floods, victims); err != nil {
		return Sample{}, err
	}
	now := int64(t)
	sw, sub := e.pool.Switch(), e.pool.Upcalls()
	var swept vswitch.SweepResult
	if sub != nil {
		// The revalidator owns megaflow lifecycle: idle expiry plus
		// dump-and-check against the current table (and, in adaptive mode,
		// the per-port quota re-tune).
		swept = e.rv.Tick(now)
	} else {
		sw.Tick(now) // 10 s idle eviction
	}

	nw := e.pool.Workers()
	workerAttack := make([]float64, nw)
	attackPps := 0
	for i := range floods {
		f := &floods[i]
		attackPps += f.RatePps
		if f.InjectACL != nil {
			if err := e.swapACL(f, now); err != nil {
				return Sample{}, err
			}
		}
		n := f.RatePps
		if sub != nil {
			n /= 2
		}
		e.replay(f, n, now, workerAttack)
	}

	// Victims: one probe each prices the flow's current classification.
	costs := make([]float64, len(victims))
	offered := make([]float64, len(victims))
	workerOf := make([]int, len(victims))
	probed := make([]int, 0, len(victims))
	e.batch, e.ports = e.batch[:0], e.ports[:0]
	for i, v := range victims {
		if t < v.StartSec {
			continue
		}
		e.batch = append(e.batch, v.Header)
		e.ports = append(e.ports, v.Port)
		probed = append(probed, i)
		offered[i] = v.OfferedGbps * 1e9 / 8 / PacketBytes // pps
	}
	verdicts := e.dispatch(now)
	assign := e.pool.Assignments()
	for k, i := range probed {
		workerOf[i] = assign[k]
		costs[i] = victimCost(victims[i], verdicts[k], e.nic)
		if verdicts[k].Path == vswitch.PathUpcallDrop {
			// The flow's setup packet was refused at admission: the
			// datapath is dropping the flow on the floor, so it moves no
			// traffic this second. This is the loss the per-port quotas
			// protect victims from.
			offered[i] = 0
		}
	}

	var usample *UpcallSample
	if sub != nil {
		for i := range floods {
			f := &floods[i]
			e.replay(f, f.RatePps-f.RatePps/2, now, workerAttack)
		}
		// Handlers drain on their own service budget, round-robin across
		// the vport queues; leftovers stay queued into the next second.
		budget := e.handledPerSec
		if budget <= 0 {
			budget = math.MaxInt
		}
		handled := sub.HandleNAt(budget, now)
		// Breakers advance on the same cadence as the handler drain: each
		// virtual second is one observation interval.
		sub.TickBreakers(now)
		usample = e.upcallSample(now, handled, swept)
	}

	pps := waterfill(nw, workerOf, offered, costs, workerAttack,
		e.perCore, e.nic.LinePps())
	sample := Sample{
		Sec:              t,
		VictimGbps:       make([]float64, len(victims)),
		AttackPps:        attackPps,
		Masks:            sw.MFC().MaskCount(),
		Entries:          sw.MFC().EntryCount(),
		Budget:           e.perCore * float64(nw),
		WorkerAttackCost: workerAttack,
		WorkerVictimGbps: make([]float64, nw),
		Upcall:           usample,
	}
	for _, c := range workerAttack {
		sample.AttackCost += c
	}
	for i, v := range victims {
		g := pps[i] * PacketBytes * 8 / 1e9
		sample.VictimGbps[i] = g
		sample.TotalVictimGbps += g
		sample.WorkerVictimGbps[workerOf[i]] += g
		v.trackEstablishment(t, g)
	}
	return sample, nil
}

// checkPorts rejects floods and victims that name an ingress vport the
// pool does not have. Ports are user configuration, so a bad one is an
// error here rather than the pool's out-of-range panic; a port-oblivious
// engine ignores ports, so there only a negative one is wrong.
func (e *Engine) checkPorts(floods []Flood, victims []*Victim) error {
	n := e.pool.Ports()
	bad := func(port int) bool { return port < 0 || e.portAware && port >= n }
	for i := range floods {
		if bad(floods[i].Port) {
			return fmt.Errorf("dataplane: flood %d port %d outside [0,%d)", i, floods[i].Port, n)
		}
	}
	for _, v := range victims {
		if bad(v.Port) {
			return fmt.Errorf("dataplane: victim %q port %d outside [0,%d)", v.Name, v.Port, n)
		}
	}
	return nil
}

// swapACL applies a flood's table injection. Inline, the megaflow cache is
// revalidated on the spot (entries the new table reproduces survive,
// keeping their scan position). Asynchronously the swap is applied without
// a sweep and the revalidator's next pass deletes stale megaflows
// (dump-and-check), as OVS reconciles the datapath cache after an OpenFlow
// change.
func (e *Engine) swapACL(f *Flood, now int64) error {
	sw := e.pool.Switch()
	if e.pool.Upcalls() == nil {
		_, err := sw.ReplaceTable(f.InjectACL)
		return err
	}
	if err := sw.SwapTable(f.InjectACL); err != nil {
		return err
	}
	e.journal.RecordNote(now, telemetry.EvACLSwap, f.Port, 0, "mid-run ACL injection")
	return nil
}

// replay dispatches the next n packets of the flood and charges each to
// the worker that processed it.
func (e *Engine) replay(f *Flood, n int, now int64, workerAttack []float64) {
	if len(f.Headers) == 0 || n <= 0 {
		return
	}
	e.batch, e.ports = e.batch[:0], e.ports[:0]
	for k := 0; k < n; k++ {
		e.batch = append(e.batch, f.Headers[*f.Cursor%len(f.Headers)])
		e.ports = append(e.ports, f.Port)
		*f.Cursor++
	}
	verdicts := e.dispatch(now)
	assign := e.pool.Assignments()
	for k, v := range verdicts {
		workerAttack[assign[k]] += verdictCost(v, e.nic)
	}
}

// dispatch sends the scratch batch through the pool in deterministic
// worker order (fire-and-forget on the asynchronous slow path) and returns
// one verdict per header.
func (e *Engine) dispatch(now int64) []vswitch.Verdict {
	ports := e.ports
	if !e.portAware {
		ports = nil // RSS-derived dispatch
	}
	e.verdicts = e.pool.ProcessBatchDeferredPorts(ports, e.batch, now, e.verdicts)
	return e.verdicts[:len(e.batch)]
}
