package vswitch

import (
	"testing"

	"tse/internal/flowtable"
	"tse/internal/tss"
)

// TestCountersAccounting drives every counter branch — the three deciding
// paths, the drop/allow partition, installs, the revalidator-quirk
// suppression, and the MaxMegaflows rejection — with explicit expected
// totals. The Fig. 1 ACL allows 001 and denies everything else.
func TestCountersAccounting(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, s *Switch)
		want Counters
	}{
		{
			name: "slow-then-microflow",
			cfg:  Config{Table: flowtable.Fig1()},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b001), 0) // slow path, installs, primes EMC
				s.Process(hyp(0b001), 0) // exact-match hit
			},
			want: Counters{Slow: 1, Microflow: 1, Allowed: 2, Installs: 1},
		},
		{
			name: "slow-then-megaflow",
			cfg:  Config{Table: flowtable.Fig1(), DisableMicroflow: true},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b001), 0)
				s.Process(hyp(0b001), 0) // no EMC: megaflow hit
			},
			want: Counters{Slow: 1, Megaflow: 1, Allowed: 2, Installs: 1},
		},
		{
			name: "megaflow-hit-primes-microflow",
			cfg:  Config{Table: flowtable.Fig1()},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b101), 0) // slow: installs 1** deny megaflow
				s.Process(hyp(0b111), 0) // different header, same megaflow
				s.Process(hyp(0b111), 0) // now cached exactly
			},
			want: Counters{Slow: 1, Megaflow: 1, Microflow: 1, Dropped: 3, Installs: 1},
		},
		{
			name: "drop-allow-partition",
			cfg:  Config{Table: flowtable.Fig1(), DisableMicroflow: true},
			run: func(t *testing.T, s *Switch) {
				for _, v := range []uint64{0b001, 0b101, 0b011, 0b000, 0b001} {
					s.Process(hyp(v), 0)
				}
			},
			want: Counters{Slow: 4, Megaflow: 1, Allowed: 2, Dropped: 3, Installs: 4},
		},
		{
			name: "revalidator-quirk-suppresses-reinstall",
			cfg:  Config{Table: flowtable.Fig1(), DisableMicroflow: true},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b001), 0)
				if n := s.DeleteMegaflows(func(*tss.Entry) bool { return true }); n != 1 {
					t.Fatalf("deleted %d megaflows, want 1", n)
				}
				// §8: once deleted by the monitor, the slow path never
				// re-installs; every revisit stays slow.
				s.Process(hyp(0b001), 0)
				s.Process(hyp(0b001), 0)
			},
			want: Counters{Slow: 3, Allowed: 3, Installs: 1, Suppressed: 2},
		},
		{
			name: "max-megaflows-rejects",
			cfg:  Config{Table: flowtable.Fig1(), DisableMicroflow: true, MaxMegaflows: 1},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b001), 0) // installs the only allowed entry
				s.Process(hyp(0b101), 0) // cache full: rejected
				s.Process(hyp(0b101), 0) // still uncached, still slow
			},
			want: Counters{Slow: 3, Allowed: 1, Dropped: 2, Installs: 1, Rejected: 2},
		},
		{
			name: "disable-megaflow-never-installs",
			cfg:  Config{Table: flowtable.Fig1(), DisableMicroflow: true, DisableMegaflow: true},
			run: func(t *testing.T, s *Switch) {
				s.Process(hyp(0b001), 0)
				s.Process(hyp(0b001), 0)
			},
			want: Counters{Slow: 2, Allowed: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSwitch(t, tc.cfg)
			tc.run(t, s)
			if got := s.Counters(); got != tc.want {
				t.Errorf("counters = %+v, want %+v", got, tc.want)
			}
		})
	}
}
