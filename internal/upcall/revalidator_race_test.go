package upcall_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

// TestRevalidatorSweepDuringReads runs revalidator sweeps (dump → expire →
// regenerate-check) and table swaps concurrently with lock-free readers:
// with copy-on-write classifier snapshots the whole sweep happens on the
// writer side and readers must never observe an inconsistent state — the
// victim flow classifies to the same verdict on every read, and the
// revalidator's dump counters stay monotonic. Run with -race.
func TestRevalidatorSweepDuringReads(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, IdleTimeout: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	r, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	core.Replay(sw, tr, 0)
	victim := tr.Headers[0]
	want := sw.Process(victim, 0).Action

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if v := sw.Process(victim, int64(i%3)); v.Action != want {
					t.Errorf("reader %d: victim verdict flipped to %v via %v", g, v.Action, v.Path)
					return
				}
			}
		}(g)
	}
	var lastDumped uint64
	for i := 0; i < 40; i++ {
		if i%4 == 0 {
			if err := sw.SwapTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		res := r.Sweep(int64(i % 3))
		if res.Expired != 0 {
			t.Fatalf("sweep %d expired %d entries under an effectively infinite timeout", i, res.Expired)
		}
		if s := r.Stats(); s.Dumped < lastDumped {
			t.Fatalf("revalidator dump counter went backwards: %d after %d", s.Dumped, lastDumped)
		} else {
			lastDumped = s.Dumped
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := sw.Process(victim, 0).Action; got != want {
		t.Errorf("victim verdict after sweeps = %v, want %v", got, want)
	}
}
