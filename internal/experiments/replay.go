package experiments

import (
	"fmt"
	"io"
	"reflect"

	"tse/internal/bitvec"
	"tse/internal/dataplane"
	"tse/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "replay",
		Title: "Wire-rate trace replay — achieved Mpps, victim mix vs TSE attack",
		Run:   runReplay,
	})
}

// RunTraceReplay backs tsebench -replay: open the trace file (mmap'd),
// drive it through a freshly built pipeline, print the achieved rate.
// workers <= 0 means one worker.
func RunTraceReplay(w io.Writer, path string, workers int) error {
	rd, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	fmt.Fprintf(w, "replaying %s: %d records, layout %s\n", path, rd.Count(), rd.LayoutString())
	rep, err := dataplane.RunReplay(dataplane.ReplayConfig{Workers: workers, TickSwitch: true}, rd)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "achieved %.2f Mpps (%d packets in %.2f ms; %d masks, %d emc hits, %d slow path)\n",
		rep.Mpps, rep.Packets, rep.WallMs, rep.Masks, rep.Totals.EMC.Hits, rep.Totals.SlowPath)
	return nil
}

// runReplay measures what the real pipeline ingests per wall second: the
// victim-mix trace (EMC-hit steady state, the wire-rate ceiling) and the
// TSE-attack trace (the same mix with the co-located SipSpDp flood).
// Where the virtual-time
// scenarios model the paper's testbed, this experiment replays encoded
// traces through mmap-style zero-copy decode and 32-packet bursts and
// reports the achieved rate directly. A final check replays the same
// flow sequence from memory (never encoded) and asserts the verdict
// counters are bit-identical to the trace-driven run.
func runReplay(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %10s %12s %10s %8s %12s %12s\n",
		"trace", "packets", "wall_ms", "mpps", "masks", "emc_hits", "slow_path")
	for _, preset := range []dataplane.ReplayPreset{dataplane.ReplayVictimMix, dataplane.ReplayTSE} {
		rd, _, err := dataplane.ReplayScenario(preset, 2)
		if err != nil {
			return err
		}
		rep, err := dataplane.RunReplay(dataplane.ReplayConfig{TickSwitch: true}, rd)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10d %12.2f %10.2f %8d %12d %12d\n",
			preset, rep.Packets, rep.WallMs, rep.Mpps, rep.Masks,
			rep.Totals.EMC.Hits, rep.Totals.SlowPath)
	}

	// Replay-vs-synthetic identity: trace-driven counters must equal the
	// never-encoded in-memory run of the same flow sequence.
	opts := trace.SynthOptions{Seconds: 1, Victims: 16, VictimPps: 500, Ports: 4}
	var buf trace.Buffer
	tw, err := trace.NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		return err
	}
	if err := trace.Synthesize(tw, opts); err != nil {
		return err
	}
	rd, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return err
	}
	traceRep, err := dataplane.RunReplay(dataplane.ReplayConfig{TickSwitch: true}, rd)
	if err != nil {
		return err
	}
	var ticks []int64
	var ports []int
	var keys []bitvec.Vec
	err = trace.SynthRecords(opts, func(tick int64, port int, key bitvec.Vec) error {
		ticks = append(ticks, tick)
		ports = append(ports, port)
		keys = append(keys, key.Clone())
		return nil
	})
	if err != nil {
		return err
	}
	synthRep, err := dataplane.RunReplayRecords(dataplane.ReplayConfig{TickSwitch: true},
		ticks, ports, keys)
	if err != nil {
		return err
	}
	identical := reflect.DeepEqual(traceRep.Totals, synthRep.Totals)
	fmt.Fprintf(w, "\nreplay-vs-synthetic verdict counters identical: %v "+
		"(replayed %d, synthetic %d, allowed %d/%d, dropped %d/%d)\n",
		identical, traceRep.Packets, synthRep.Packets,
		traceRep.Totals.Allowed, synthRep.Totals.Allowed,
		traceRep.Totals.Dropped, synthRep.Totals.Dropped)
	if !identical {
		return fmt.Errorf("replay: trace-driven and synthetic counters diverge")
	}
	return nil
}
