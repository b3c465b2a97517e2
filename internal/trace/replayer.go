package trace

import (
	"time"

	"tse/internal/bitvec"
	"tse/internal/datapath"
	"tse/internal/vswitch"
)

// DefaultChunk is the number of records decoded per dispatch. The pool
// still bursts at its own BatchSize (32, NETDEV_MAX_BURST) inside each
// dispatch; the larger decode chunk amortises shard setup and — in
// concurrent mode — goroutine handoff across many bursts, the way a
// PMD's rx ring amortises doorbell costs over many descriptors.
const DefaultChunk = 1024

// Replayer drives a trace through a datapath pool at wall-clock rate:
// decode a chunk into the reusable SoA batch, dispatch it to
// ProcessBatchPorts (32-packet bursts, EMC prepass), repeat. The
// measured quantity is achieved packets per wall second — ingest plus
// classification, the number the experiment runners could previously
// only model.
type Replayer struct {
	// Pool is the worker pool to drive. Its Ports must cover the
	// trace's in_port values.
	Pool *datapath.Pool
	// Chunk is the records decoded per dispatch; <= 0 selects
	// DefaultChunk.
	Chunk int
	// Serial dispatches through ProcessBatchSerialPorts: deterministic
	// order, no goroutine handoff. The right mode for single-worker
	// pools (a goroutine per dispatch buys nothing on one PMD) and for
	// the replay-vs-synthetic equivalence tests.
	Serial bool
	// TickSwitch runs the switch's idle-expiry sweep (Switch.Tick) at
	// every trace tick transition, as the virtual-time scenarios do.
	TickSwitch bool

	out []vswitch.Verdict // reusable verdict buffer
}

// Result summarises one replay run.
type Result struct {
	// Packets is the number of records replayed.
	Packets uint64
	// WallNs is the host wall-clock time of the run, decode included.
	WallNs int64
	// Mpps is the achieved rate: Packets / WallNs, in millions of
	// packets per wall second.
	Mpps float64
	// Totals is the pool's cumulative per-worker counter sum after the
	// run (EMC and per-port splits included).
	Totals datapath.WorkerStats
}

// Run replays rd from its current cursor to the end.
func (r *Replayer) Run(rd *Reader) Result {
	chunk := r.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	b := NewBatch(rd.Words(), chunk)
	var (
		packets uint64
		last    int64 = -1
	)
	start := time.Now()
	for {
		n := rd.Next(b)
		if n == 0 {
			break
		}
		packets += uint64(n)
		last = r.Dispatch(b, last)
	}
	wall := time.Since(start).Nanoseconds()
	res := Result{Packets: packets, WallNs: wall, Totals: r.Pool.Totals()}
	if wall > 0 {
		res.Mpps = float64(packets) * 1e3 / float64(wall)
	}
	return res
}

// RunRecords replays an in-memory record sequence through the same
// chunking and dispatch logic as Run — the synthetic side of the
// replay-vs-synthetic equivalence test: identical flow sequence,
// identical pool, no encode/decode in between.
func (r *Replayer) RunRecords(ticks []int64, ports []int, keys []bitvec.Vec) Result {
	chunk := r.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	var b Batch
	var (
		packets uint64
		last    int64 = -1
	)
	start := time.Now()
	for off := 0; off < len(keys); off += chunk {
		end := off + chunk
		if end > len(keys) {
			end = len(keys)
		}
		b.Ticks, b.Ports, b.Keys = ticks[off:end], ports[off:end], keys[off:end]
		packets += uint64(end - off)
		last = r.Dispatch(&b, last)
	}
	wall := time.Since(start).Nanoseconds()
	res := Result{Packets: packets, WallNs: wall, Totals: r.Pool.Totals()}
	if wall > 0 {
		res.Mpps = float64(packets) * 1e3 / float64(wall)
	}
	return res
}

// Dispatch feeds one decoded batch to the pool, splitting it at tick
// boundaries so every ProcessBatchPorts call runs at a single virtual
// time (and the idle sweep fires between ticks when enabled). Returns
// the last tick seen (pass it back on the next call; -1 to start).
// Run/RunRecords wrap it; callers that manage their own decode loop —
// the 0-alloc benchmarks do — use it directly.
func (r *Replayer) Dispatch(b *Batch, last int64) int64 {
	i := 0
	for i < len(b.Ticks) {
		tick := b.Ticks[i]
		j := i + 1
		for j < len(b.Ticks) && b.Ticks[j] == tick {
			j++
		}
		if r.TickSwitch && tick != last && last >= 0 {
			r.Pool.Switch().Tick(tick)
		}
		last = tick
		if cap(r.out) < j-i {
			r.out = make([]vswitch.Verdict, j-i)
		}
		if r.Serial {
			r.Pool.ProcessBatchSerialPorts(b.Ports[i:j], b.Keys[i:j], tick, r.out[:j-i])
		} else {
			r.Pool.ProcessBatchPorts(b.Ports[i:j], b.Keys[i:j], tick, r.out[:j-i])
		}
		i = j
	}
	return last
}
