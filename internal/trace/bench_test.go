package trace

import "testing"

// benchReader opens the benchmarks' workload: a 1 s victim mix (16 flows
// at 500 pps over 4 vports), the wire-rate shape tsebench -replay drives.
func benchReader(b *testing.B) *Reader {
	b.Helper()
	rd, err := NewReader(synthImage(b, SynthOptions{Seconds: 1, Victims: 16, VictimPps: 500, Ports: 4}))
	if err != nil {
		b.Fatal(err)
	}
	return rd
}

// BenchmarkDecode prices the pure mmap-image → SoA-batch decode, one
// DefaultChunk batch per op.
func BenchmarkDecode(b *testing.B) {
	rd := benchReader(b)
	batch := NewBatch(rd.Words(), DefaultChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd.Next(batch) == 0 {
			rd.Reset()
		}
	}
}

// BenchmarkDispatchBurst adds the serial dispatch through a one-worker
// pool's 32-packet bursts on a warm EMC to the decode above.
func BenchmarkDispatchBurst(b *testing.B) {
	rd := benchReader(b)
	rr := &Replayer{Pool: newReplayPool(b, 1), Serial: true}
	rr.Run(rd) // warm: EMC primed, dispatch buffers grown
	rd.Reset()
	batch := NewBatch(rd.Words(), DefaultChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd.Next(batch) == 0 {
			rd.Reset()
			continue
		}
		rr.Dispatch(batch, 0)
	}
}
