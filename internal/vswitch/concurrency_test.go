// Concurrency tests for the "safe for concurrent use" claim on Switch:
// multiple goroutines hammer Process/ProcessBatch over an attack trace
// while slow-path installs, monitor deletions, revalidation, expiry ticks,
// and snapshot readers run against the same switch. Run with -race (CI
// does); the counter-conservation asserts catch lost updates even without
// the detector.
package vswitch_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func TestSwitchConcurrentProcess(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		rounds     = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the workers go packet-at-a-time, half in bursts, so the
			// serial and batched paths contend with each other.
			if g%2 == 0 {
				for r := 0; r < rounds; r++ {
					for i, h := range tr.Headers {
						sw.Process(h, int64(i))
					}
				}
				return
			}
			out := make([]vswitch.Verdict, 32)
			for r := 0; r < rounds; r++ {
				for i := 0; i < len(tr.Headers); i += 32 {
					end := i + 32
					if end > len(tr.Headers) {
						end = len(tr.Headers)
					}
					sw.ProcessBatchOn(nil, tr.Headers[i:end], int64(i), out, nil)
				}
			}
		}(g)
	}
	// A monitor goroutine doing what MFCGuard and the revalidator do.
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				sw.DeleteMegaflows(func(e *tss.Entry) bool {
					return e.Action == flowtable.Drop && i%8 == 0
				})
			case 1:
				sw.Tick(int64(i))
			case 2:
				// Revalidation against the same table: entries survive.
				if _, err := sw.ReplaceTable(tbl); err != nil {
					t.Error(err)
					return
				}
			case 3:
				// Snapshot readers.
				sw.Counters()
				sw.MFC().Entries()
				sw.MFC().Stats()
				sw.MFC().MaskCount()
			}
		}
	}()
	wg.Wait()
	close(stop)
	monWG.Wait()

	total := uint64(goroutines * rounds * len(tr.Headers))
	c := sw.Counters()
	if got := c.Megaflow + c.Slow; got != total {
		t.Errorf("path counters sum to %d, want %d (lost updates)", got, total)
	}
	if got := c.Dropped + c.Allowed; got != total {
		t.Errorf("verdict counters sum to %d, want %d (lost updates)", got, total)
	}
	st := sw.MFC().Stats()
	if st.Lookups != st.Hits+st.Misses {
		t.Errorf("MFC lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
	}
}

// TestSwitchConcurrentSwapAndSweep hammers the lock-free read path while
// the slow-path generation is swapped (SwapTable — an atomic pointer
// swap), revalidation sweeps regenerate-check the whole cache, and idle
// expiry runs: readers must only ever observe fully consistent snapshots.
// The invariant checked per lookup is semantic: the victim flow is allowed
// by every generation of the table, so its verdict action must never
// change, whichever snapshot or generation a reader lands on; and the
// classifier's counters stay monotonic throughout. Run with -race.
func TestSwitchConcurrentSwapAndSweep(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	victim := tr.Headers[0] // replay below guarantees it is classified
	core.Replay(sw, tr, 0)
	want := sw.Process(victim, 0).Action

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]vswitch.Verdict, 32)
			for i := 0; !stop.Load(); i++ {
				v := sw.Process(victim, int64(i%5))
				if v.Action != want {
					t.Errorf("reader %d: victim verdict flipped to %v (path %v)", r, v.Action, v.Path)
					return
				}
				if r%2 == 1 {
					end := (i * 32) % (len(tr.Headers) - 32)
					sw.ProcessBatchOn(nil, tr.Headers[end:end+32], int64(i%5), out, nil)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last tss.Stats
		for !stop.Load() {
			s := sw.MFC().Stats()
			if s.Lookups < last.Lookups || s.Probes < last.Probes ||
				s.Inserted < last.Inserted || s.Deleted < last.Deleted {
				t.Errorf("classifier stats went backwards: %+v after %+v", s, last)
				return
			}
			last = s
		}
	}()
	for i := 0; i < 60; i++ {
		switch i % 3 {
		case 0:
			// Swap without inline revalidation: readers keep classifying
			// against the published snapshot; the sweep below reconciles.
			if err := sw.SwapTable(tbl); err != nil {
				t.Fatal(err)
			}
		case 1:
			// Revalidator-style sweep: regenerate-check every entry under
			// the current generation, expire nothing (fresh stamps).
			seq := sw.GenSeq()
			gen := sw.Generator()
			sw.SweepMegaflows(func(e *tss.Entry) vswitch.SweepDecision {
				if !vswitch.Revalidate(gen, e) {
					return vswitch.SweepInvalidate
				}
				return vswitch.SweepKeep
			})
			sw.MarkRevalidated(seq)
		case 2:
			if _, err := sw.ReplaceTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	// The same-table swaps must not have invalidated the victim's entry
	// class: it still classifies identically after the churn.
	if got := sw.Process(victim, 0).Action; got != want {
		t.Errorf("victim verdict after churn = %v, want %v", got, want)
	}
}

// TestClassifierConcurrentLookupInsert drives the classifier's
// reader/writer split directly: concurrent Lookup and LookupBatch readers
// against a writer inserting fresh exact-match entries.
func TestClassifierConcurrentLookupInsert(t *testing.T) {
	l := bitvec.IPv4Tuple
	c := tss.New(l, tss.Options{})
	mask := bitvec.FullMask(l)
	sip, _ := l.FieldIndex("ip_src")
	mk := func(v uint64) bitvec.Vec {
		h := bitvec.NewVec(l)
		h.SetField(l, sip, v)
		return h
	}
	const n = 512
	for i := 0; i < n/2; i++ {
		if err := c.Insert(&tss.Entry{Key: mk(uint64(i)), Mask: mask,
			Action: flowtable.Allow}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := n / 2; i < n; i++ {
			if err := c.Insert(&tss.Entry{Key: mk(uint64(i)), Mask: mask,
				Action: flowtable.Allow}, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 8; r++ {
			for i := 0; i < n; i++ {
				c.Lookup(mk(uint64(i)), int64(r))
			}
		}
	}()
	go func() {
		defer wg.Done()
		hs := make([]bitvec.Vec, 32)
		out := make([]tss.BatchResult, 32)
		for r := 0; r < 8; r++ {
			for i := 0; i+32 <= n; i += 32 {
				for j := range hs {
					hs[j] = mk(uint64(i + j))
				}
				c.LookupBatch(hs, int64(r), out)
			}
		}
	}()
	wg.Wait()
	if got := c.EntryCount(); got != n {
		t.Errorf("entry count = %d, want %d", got, n)
	}
}
