package dataplane

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/trace"
)

// TestReplayPortsFollowTrace: a trace wider than the old fixed 4 vports
// (tsegen -ports 8) replays — the vport count is read off the trace's
// in_port column — and an explicit count that does not cover the trace is
// an error, not a panic out of the pool's dispatch.
func TestReplayPortsFollowTrace(t *testing.T) {
	opts := trace.SynthOptions{Seconds: 1, Victims: 16, VictimPps: 200, Ports: 8}
	var buf trace.Buffer
	w, err := trace.NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Synthesize(w, opts); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.MaxPort(); got != 7 {
		t.Fatalf("MaxPort = %d, want 7", got)
	}

	rep, err := RunReplay(ReplayConfig{}, rd)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != rd.Count() || len(rep.Totals.Ports) != 8 {
		t.Errorf("replayed %d of %d packets over %d vports, want all over 8",
			rep.Packets, rd.Count(), len(rep.Totals.Ports))
	}
	// Vport 0 is the (idle) attack port; the victims spread over 1..7.
	for p, ps := range rep.Totals.Ports[1:] {
		if ps.Packets == 0 {
			t.Errorf("vport %d saw no packets", p+1)
		}
	}

	rd.Reset()
	if _, err := RunReplay(ReplayConfig{Ports: 4}, rd); err == nil {
		t.Error("4 explicit ports over an 8-port trace: want an error")
	}
	var ticks []int64
	var ports []int
	var keys []bitvec.Vec
	err = trace.SynthRecords(opts, func(tick int64, port int, key bitvec.Vec) error {
		ticks, ports, keys = append(ticks, tick), append(ports, port), append(keys, key.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReplayRecords(ReplayConfig{Ports: 4}, ticks, ports, keys); err == nil {
		t.Error("4 explicit ports over 8-port records: want an error")
	}
	if rep, err := RunReplayRecords(ReplayConfig{}, ticks, ports, keys); err != nil || len(rep.Totals.Ports) != 8 {
		t.Errorf("records replay: err %v, want 8 vports", err)
	}
}
