package main

import (
	"fmt"
	"math/rand"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/trace"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// ports is the ingress vport count of every workload: one attack port
// plus three victim ports, the replay presets' shape.
const ports = 4

// workload is one traffic mix and the pipeline it is replayed through.
// The four below are chosen so that each moves a different layer to the
// front of the per-packet cost; README.md has the full table.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	use flowtable.UseCase
	// strategy and idleTimeout are handed to vswitch.Config as is.
	strategy    map[string]vswitch.Strategy
	idleTimeout int64
	// upcall routes misses through the upcall subsystem in drive mode and
	// runs upcall.Revalidator.Tick at tick transitions instead of
	// Switch.Tick.
	upcall bool
	// fresh builds a new pipeline for every pass (the dataplane.RunReplay
	// shape); otherwise one pipeline lives for the whole run and passes
	// after the warm-up measure its steady state.
	fresh bool
	// seconds is the trace length in virtual seconds. Persistent
	// pipelines shift pass k's ticks by k*seconds to keep time monotone.
	seconds int
	// synth renders the trace.
	synth func(w *trace.Writer, a synthArgs) error
}

// synthArgs is what a trace generator may depend on: the workload's ACL
// and trace length, the one seeded source of randomness, and the rate
// scale (1 in the benchmark; the smoke test runs a small fraction).
type synthArgs struct {
	tbl     *flowtable.Table
	rng     *rand.Rand
	seconds int
	scale   float64
}

var workloads = []*workload{
	{
		name:    "victim_mix",
		why:     "64 benign flows over one mask, ~100% EMC hits: trace decode, EMC lookup and pool overhead are the whole packet",
		use:     flowtable.SipSpDp,
		seconds: 2,
		synth: func(w *trace.Writer, a synthArgs) error {
			return trace.Synthesize(w, victimMix(a))
		},
	},
	{
		name:    "emc_overflow",
		why:     "16384 flows in random order, 64x the EMC, 65 masks: ~98% of packets fall through to the megaflow scan",
		use:     flowtable.SipDp,
		seconds: 2,
		synth:   synthEMCOverflow,
	},
	{
		name:    "tse_attack",
		why:     "victim mix plus the co-located SipSpDp flood: ramp to 8209 masks, then every attack packet scans thousands of them",
		use:     flowtable.SipSpDp,
		fresh:   true,
		seconds: 2,
		synth: func(w *trace.Writer, a synthArgs) error {
			atk, err := core.CoLocated(a.tbl, core.CoLocatedOptions{Noise: true, Seed: a.rng.Int63()})
			if err != nil {
				return err
			}
			opts := victimMix(a)
			opts.Attack, opts.AttackPps = atk, scaled(20000, a.scale)
			return trace.Synthesize(w, opts)
		},
	},
	{
		name:        "flow_setup",
		why:         "victim mix plus never-repeating denied flows under exact-match ip_src: 2 masks, one new megaflow per flood packet, upcall + install + revalidator do the work",
		use:         flowtable.SipSpDp,
		strategy:    map[string]vswitch.Strategy{"ip_src": vswitch.StrategyExact},
		idleTimeout: 2,
		upcall:      true,
		fresh:       true,
		seconds:     4,
		synth:       synthFlowSetup,
	},
}

func scaled(rate int, scale float64) int {
	if n := int(float64(rate) * scale); n > 1 {
		return n
	}
	return 1
}

// victimMix is the replay presets' benign traffic: 64 flows at 2000 pps
// each, spread over vports 1..3.
func victimMix(a synthArgs) trace.SynthOptions {
	return trace.SynthOptions{Seconds: a.seconds, Victims: 64, VictimPps: scaled(2000, a.scale), Ports: ports}
}

// header builds an IPv4Tuple TCP key towards the victim service address.
func header(ipSrc uint32, tpSrc, tpDst uint16) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		f, _ := l.FieldIndex(name)
		h.SetField(l, f, v)
	}
	set("ip_src", uint64(ipSrc))
	set("ip_dst", 0xc0a80002)
	set("ip_proto", 6)
	set("tp_src", uint64(tpSrc))
	set("tp_dst", uint64(tpDst))
	return h
}

// synthEMCOverflow is the middle ground between the victim mix and the
// attack: a working set far above the EMC, three quarters of it allowed
// web flows from distinct sources (one megaflow), one quarter denied
// flows, sent in uniform-random order. Denied flow k differs from rule
// #2's address first at bit k%8 and from rule #1's port first at bit
// (k/8)%8, so the SipDp ACL grows the same 8x8 deny masks whatever the
// seed; the seed picks the bits below (which flows exist) and the order.
func synthEMCOverflow(w *trace.Writer, a synthArgs) error {
	l, rng := bitvec.IPv4Tuple, a.rng
	sip, _ := l.FieldIndex("ip_src")
	dp, _ := l.FieldIndex("tp_dst")
	// flipFrom inverts bit b of field f (MSB first) and randomises the
	// bits below it, which the resulting megaflow wildcards.
	flipFrom := func(h bitvec.Vec, f, b int) {
		h.FlipFieldBit(l, f, b)
		for i := b + 1; i < l.Field(f).Width; i++ {
			if rng.Intn(2) == 1 {
				h.FlipFieldBit(l, f, i)
			}
		}
	}
	flows, pps := scaled(16384, a.scale), scaled(262144, a.scale)
	keys := make([]bitvec.Vec, flows)
	seen := make(map[uint64]bool, flows)
	for i := range keys {
		tpSrc := uint16(1024 + rng.Intn(64000))
		if i%4 != 3 {
			keys[i] = header(0x0a010000+uint32(i), tpSrc, 80)
			continue
		}
		for k := i / 4; ; {
			h := header(0x0a000001, tpSrc, 80)
			flipFrom(h, sip, k%8)
			flipFrom(h, dp, k/8%8)
			if src := h.FieldUint64(l, sip); !seen[src] {
				seen[src], keys[i] = true, h
				break
			}
		}
	}
	for t := 0; t < a.seconds; t++ {
		for n := 0; n < pps; n++ {
			i := rng.Intn(flows)
			if err := w.WriteRecord(int64(t), i%ports, keys[i]); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

// synthFlowSetup merges the victim mix with a flood in which only ip_src
// varies and never repeats. With ip_src under StrategyExact every flood
// packet installs its own megaflow under one shared mask: the §5.4 /
// Theorem 4.1 end of the trade-off, entries instead of masks.
func synthFlowSetup(w *trace.Writer, a synthArgs) error {
	rng, pps := a.rng, scaled(6144, a.scale)
	flood := &core.Trace{Layout: bitvec.IPv4Tuple, Headers: make([]bitvec.Vec, a.seconds*pps)}
	seen := make(map[uint32]bool, len(flood.Headers))
	for i := range flood.Headers {
		src := rng.Uint32() | 1<<31
		for seen[src] {
			src = rng.Uint32() | 1<<31
		}
		seen[src] = true
		flood.Headers[i] = header(src, 40000, 443)
	}
	opts := victimMix(a)
	opts.Attack, opts.AttackPps = flood, pps
	return trace.Synthesize(w, opts)
}

// pipeline is the product path a trace is replayed through: switch,
// one-worker pool, replayer, and the revalidator when the workload
// drives one.
type pipeline struct {
	sw   *vswitch.Switch
	pool *datapath.Pool
	rr   *trace.Replayer
	rv   *upcall.Revalidator
	// last is the last tick dispatched; persistent pipelines carry it
	// across passes so the idle sweep also fires at the pass boundary.
	last int64
	pk   peaks
}

func newSwitch(w *workload, tbl *flowtable.Table) (*vswitch.Switch, error) {
	return vswitch.New(vswitch.Config{Table: tbl, Strategy: w.strategy,
		IdleTimeout: w.idleTimeout, DisableMicroflow: true})
}

func newRevalidator(sw *vswitch.Switch, up *upcall.Subsystem) (*upcall.Revalidator, error) {
	return upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw, Subsystem: up})
}

// build assembles the product defaults: one worker, serial dispatch,
// 32-packet bursts, 256-entry EMC.
func (w *workload) build(tbl *flowtable.Table) (*pipeline, error) {
	sw, err := newSwitch(w, tbl)
	if err != nil {
		return nil, err
	}
	cfg := datapath.Config{Switch: sw, Workers: 1, Ports: ports}
	if w.upcall {
		cfg.Upcall = &upcall.Options{}
	}
	pool, err := datapath.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &pipeline{sw: sw, pool: pool, last: -1,
		rr: &trace.Replayer{Pool: pool, Serial: true, TickSwitch: !w.upcall}}
	if w.upcall {
		if p.rv, err = newRevalidator(sw, pool.Upcalls()); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// dispatch feeds one decoded chunk to the pool. Replayer.Dispatch owns
// the tick split and the Switch.Tick sweep; a revalidator-driven workload
// splits here instead, so Revalidator.Tick runs between ticks.
func (p *pipeline) dispatch(b *trace.Batch) {
	if p.rv == nil {
		p.last = p.rr.Dispatch(b, p.last)
		return
	}
	for i := 0; i < len(b.Ticks); {
		tick := b.Ticks[i]
		j := i + 1
		for j < len(b.Ticks) && b.Ticks[j] == tick {
			j++
		}
		if tick != p.last && p.last >= 0 {
			p.rv.Tick(tick)
		}
		sub := trace.Batch{Ticks: b.Ticks[i:j], Ports: b.Ports[i:j], Keys: b.Keys[i:j]}
		p.last = p.rr.Dispatch(&sub, p.last)
		i = j
	}
}

// tickOffset is what pass number pass adds to the trace's ticks: a
// persistent pipeline must see time move on, a fresh one starts at 0.
func (w *workload) tickOffset(pass int) int64 {
	if w.fresh {
		return 0
	}
	return int64(pass * w.seconds)
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
