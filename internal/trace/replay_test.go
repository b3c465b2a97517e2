package trace

import (
	"reflect"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/datapath"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// mixOptions is the test workload: a victim mix with a co-located
// SipSpDp flood riding on vport 0 — every layer of the pool exercised
// (EMC hits, megaflow hits, slow-path installs).
func mixOptions(t *testing.T, seconds, attackPps int) SynthOptions {
	t.Helper()
	opts := SynthOptions{Seconds: seconds, Victims: 3, VictimPps: 400, Ports: 4}
	if attackPps > 0 {
		tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
		atk, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		opts.Attack, opts.AttackPps = atk, attackPps
	}
	return opts
}

// newReplayPool builds the pool the replay tests drive: SipSpDp ACL,
// per-worker EMCs, inline slow path, 4 vports.
func newReplayPool(t testing.TB) *datapath.Pool {
	t.Helper()
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := datapath.New(datapath.Config{Switch: sw, Workers: 1, Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// synthImage renders the workload to an in-memory trace image.
func synthImage(t testing.TB, opts SynthOptions) []byte {
	t.Helper()
	var buf Buffer
	w, err := NewWriter(&buf, bitvec.IPv4Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if err := Synthesize(w, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthSlices collects the same workload as parallel record slices (the
// synthetic, never-encoded side of the equivalence test).
func synthSlices(t *testing.T, opts SynthOptions) (ticks []int64, ports []int, keys []bitvec.Vec) {
	t.Helper()
	err := SynthRecords(opts, func(tick int64, port int, key bitvec.Vec) error {
		ticks = append(ticks, tick)
		ports = append(ports, port)
		keys = append(keys, key.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ticks, ports, keys
}

// TestReplayMatchesSynthetic is the replay-vs-synthetic equivalence
// test: the same flow sequence driven once through encode → mmap-style
// decode → dispatch and once straight from memory must leave two
// identical pools with bit-identical verdict counters (worker stats,
// EMC counters, per-port ledgers, probe counts — everything).
func TestReplayMatchesSynthetic(t *testing.T) {
	opts := mixOptions(t, 3, 500)

	replayPool := newReplayPool(t)
	rd, err := NewReader(synthImage(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	rr := &Replayer{Pool: replayPool, Chunk: 256, Serial: true, TickSwitch: true}
	replayRes := rr.Run(rd)

	synthPool := newReplayPool(t)
	ticks, ports, keys := synthSlices(t, opts)
	sr := &Replayer{Pool: synthPool, Chunk: 256, Serial: true, TickSwitch: true}
	synthRes := sr.RunRecords(ticks, ports, keys)

	if replayRes.Packets != synthRes.Packets {
		t.Fatalf("packets: replay %d, synthetic %d", replayRes.Packets, synthRes.Packets)
	}
	if !reflect.DeepEqual(replayRes.Totals, synthRes.Totals) {
		t.Fatalf("verdict counters diverge:\nreplay    %+v\nsynthetic %+v",
			replayRes.Totals, synthRes.Totals)
	}
	if replayRes.Totals.SlowPath == 0 || replayRes.Totals.EMCHits == 0 {
		t.Fatalf("workload did not exercise all layers: %+v", replayRes.Totals)
	}
	if m := replayPool.Switch().MFC().MaskCount(); m != synthPool.Switch().MFC().MaskCount() {
		t.Fatalf("mask counts diverge: replay %d, synthetic %d",
			m, synthPool.Switch().MFC().MaskCount())
	}
}

// TestReplayDecodeAllocs asserts the decode loop is allocation-free:
// once the batch exists, Next writes into its arena and columns only.
func TestReplayDecodeAllocs(t *testing.T) {
	rd, err := NewReader(synthImage(t, mixOptions(t, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(rd.Words(), 256)
	rd.Next(b) // touch once outside the measured region
	allocs := testing.AllocsPerRun(200, func() {
		if rd.Next(b) == 0 {
			rd.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("decode allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestReplayBurstAllocs asserts the full replay step — decode plus
// dispatch through the pool's 32-packet bursts — is allocation-free on
// a warm pool (the EMC already primed by a first pass).
func TestReplayBurstAllocs(t *testing.T) {
	pool := newReplayPool(t)
	rd, err := NewReader(synthImage(t, mixOptions(t, 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	rr := &Replayer{Pool: pool, Chunk: 256, Serial: true}
	rr.Run(rd) // warm: EMC primed, buffers grown
	b := NewBatch(rd.Words(), 256)
	rd.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		n := rd.Next(b)
		if n == 0 {
			rd.Reset()
			return
		}
		rr.Dispatch(b, 0)
	})
	if allocs != 0 {
		t.Fatalf("replay burst allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestReplayFromDisk drives the full wire-rate path the replay
// experiment uses: trace file on disk, mmap'd open, zero-copy decode,
// dispatch. The counters must match the in-memory image of the same
// workload.
func TestReplayFromDisk(t *testing.T) {
	opts := mixOptions(t, 2, 300)
	path := writeTemp(t, opts)

	diskRd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer diskRd.Close()
	diskPool := newReplayPool(t)
	diskRes := (&Replayer{Pool: diskPool, Serial: true, TickSwitch: true}).Run(diskRd)

	memRd, err := NewReader(synthImage(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	memPool := newReplayPool(t)
	memRes := (&Replayer{Pool: memPool, Serial: true, TickSwitch: true}).Run(memRd)

	if !reflect.DeepEqual(diskRes.Totals, memRes.Totals) {
		t.Fatalf("mmap replay diverges from in-memory replay:\ndisk %+v\nmem  %+v",
			diskRes.Totals, memRes.Totals)
	}
}

// TestReplayerConcurrentMode smoke-tests the goroutine dispatch path
// with multiple workers and ports.
func TestReplayerConcurrentMode(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := datapath.New(datapath.Config{Switch: sw, Workers: 2, Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(synthImage(t, mixOptions(t, 2, 200)))
	if err != nil {
		t.Fatal(err)
	}
	rr := &Replayer{Pool: pool, TickSwitch: true}
	res := rr.Run(rd)
	if res.Packets != rd.Count() {
		t.Fatalf("replayed %d of %d packets", res.Packets, rd.Count())
	}
	if res.Totals.Packets != res.Packets {
		t.Fatalf("pool saw %d packets, replayer sent %d", res.Totals.Packets, res.Packets)
	}
}
