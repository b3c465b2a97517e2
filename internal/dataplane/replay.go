package dataplane

import (
	"fmt"
	"slices"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/trace"
	"tse/internal/vswitch"
)

// This file is the wall-clock counterpart of scenario.go: instead of a
// virtual-time cost model, a trace replayed through the real pipeline
// (EMC → megaflow scan → slow path) as fast as the host can ingest it,
// reporting achieved Mpps. The virtual-time scenarios answer "what does
// the paper's testbed see"; the replay mode answers "what does *this*
// implementation actually sustain".

// ReplayConfig describes one wall-clock replay run over the SipSpDp tenant
// ACL.
type ReplayConfig struct {
	// Workers is the PMD pool size (1 when <= 0). Single-worker pools
	// dispatch serially: a goroutine handoff per burst buys nothing on
	// one core.
	Workers int
	// Ports is the vport count; <= 0 derives it from the trace (highest
	// in_port + 1). An explicit count that does not cover the trace's
	// in_port values is an error.
	Ports int
	// TickSwitch runs the switch's idle-expiry sweep at trace tick
	// transitions.
	TickSwitch bool
}

// ReplayReport is the outcome of a replay run.
type ReplayReport struct {
	// Packets, WallMs and Mpps are the ingest numbers: records replayed,
	// host wall-clock spent, achieved millions of packets per second.
	Packets uint64
	WallMs  float64
	Mpps    float64
	// Masks is the megaflow mask count after the run — the TSE damage.
	Masks int
	// Totals is the pool's cumulative verdict/counter sum.
	Totals datapath.WorkerStats
}

// maxReplayPorts bounds the vport count a trace's in_port column may
// demand (the pool keeps per-port ledgers on every worker), so a corrupt
// record cannot ask for gigabytes of them.
const maxReplayPorts = 1 << 16

// buildReplayPipeline assembles the switch and the replayer (over its
// pool) for one run over records whose highest in_port is maxPort.
func buildReplayPipeline(cfg ReplayConfig, maxPort int) (*vswitch.Switch, *trace.Replayer, error) {
	ports := cfg.Ports
	switch {
	case maxPort >= maxReplayPorts:
		return nil, nil, fmt.Errorf("dataplane: trace names in_port %d, limit is %d", maxPort, maxReplayPorts-1)
	case ports <= 0:
		ports = maxPort + 1
	case ports <= maxPort:
		return nil, nil, fmt.Errorf("dataplane: %d ports do not cover the trace's in_port %d", ports, maxPort)
	}
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true})
	if err != nil {
		return nil, nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	pool, err := datapath.New(datapath.Config{
		Switch: sw, Workers: workers, Ports: ports})
	if err != nil {
		return nil, nil, err
	}
	rr := &trace.Replayer{Pool: pool, Serial: workers == 1, TickSwitch: cfg.TickSwitch}
	return sw, rr, nil
}

func replayReport(sw *vswitch.Switch, res trace.Result) *ReplayReport {
	return &ReplayReport{
		Packets: res.Packets,
		WallMs:  float64(res.WallNs) / 1e6,
		Mpps:    res.Mpps,
		Masks:   sw.MFC().MaskCount(),
		Totals:  res.Totals,
	}
}

// RunReplay replays rd through a freshly built pipeline.
func RunReplay(cfg ReplayConfig, rd *trace.Reader) (*ReplayReport, error) {
	sw, rr, err := buildReplayPipeline(cfg, rd.MaxPort())
	if err != nil {
		return nil, err
	}
	return replayReport(sw, rr.Run(rd)), nil
}

// RunReplayRecords replays an in-memory record sequence through the same
// pipeline — the never-encoded side of the replay-vs-synthetic identity
// check the replay experiment reports.
func RunReplayRecords(cfg ReplayConfig, ticks []int64, ports []int, keys []bitvec.Vec) (*ReplayReport, error) {
	maxPort := -1
	if len(ports) > 0 {
		maxPort = slices.Max(ports)
	}
	sw, rr, err := buildReplayPipeline(cfg, maxPort)
	if err != nil {
		return nil, err
	}
	return replayReport(sw, rr.RunRecords(ticks, ports, keys)), nil
}

// ReplayPreset names a canned replay workload.
type ReplayPreset string

const (
	// ReplayVictimMix is the no-attack baseline: a 64-flow victim mix in
	// EMC-hit steady state — the wire-rate ceiling of the pipeline.
	ReplayVictimMix ReplayPreset = "victim-mix"
	// ReplayTSE merges the co-located SipSpDp flood into the same mix:
	// the achieved rate collapses with the mask count, the paper's
	// throughput figure re-measured as ingest rather than modelled.
	ReplayTSE ReplayPreset = "tse-attack"
)

// ReplayScenario synthesises the preset's workload in memory and
// returns a reader over it plus the synth options used (for reporting).
func ReplayScenario(preset ReplayPreset, seconds int) (*trace.Reader, trace.SynthOptions, error) {
	if seconds <= 0 {
		seconds = 2
	}
	opts := trace.SynthOptions{Seconds: seconds, Victims: 64, VictimPps: 2000, Ports: 4}
	if preset == ReplayTSE {
		tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
		atk, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 1})
		if err != nil {
			return nil, opts, err
		}
		opts.Attack, opts.AttackPps = atk, 20000
	} else if preset != ReplayVictimMix {
		return nil, opts, fmt.Errorf("dataplane: unknown replay preset %q", preset)
	}
	var buf trace.Buffer
	w, err := trace.NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		return nil, opts, err
	}
	if err := trace.Synthesize(w, opts); err != nil {
		return nil, opts, err
	}
	rd, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return nil, opts, err
	}
	return rd, opts, nil
}
