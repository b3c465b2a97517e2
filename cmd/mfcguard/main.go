// Command mfcguard demonstrates the §8 mitigation end to end: it mounts a
// co-located TSE attack against a chosen ACL, runs the MFCGuard monitor on
// its 10-second cadence, and prints the per-second timeline of masks,
// victim lookup cost, and projected slow-path CPU load.
//
// Megaflow lifecycle — idle expiry and the guard's monitor deletions —
// runs through one upcall.Revalidator, the same dump/expire machinery the
// asynchronous slow path uses, so there is a single lifecycle path rather
// than separate Tick and guard sweeps.
//
// Usage:
//
//	mfcguard -use SipDp -rate 1000 -duration 60 -mask-threshold 100
package main

import (
	"flag"
	"fmt"
	"os"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/tss"
	"tse/internal/upcall"
	"tse/internal/vswitch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mfcguard:", err)
		os.Exit(1)
	}
}

func run() error {
	use := flag.String("use", "SipDp", "ACL use case: Dp, SpDp, SipDp, SipSpDp")
	rate := flag.Int("rate", 1000, "attack rate in pps")
	duration := flag.Int("duration", 60, "simulated seconds")
	mth := flag.Int("mask-threshold", 100, "MFCGuard mask threshold m_th")
	cth := flag.Float64("cpu-threshold", 200, "MFCGuard CPU threshold c_th [%]")
	allDrops := flag.Bool("all-drops", false, "delete all drop entries (paper's evaluated variant)")
	flag.Parse()

	u, err := flowtable.ParseUseCase(*use)
	if err != nil {
		return err
	}
	tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, Scan: tss.ScanLinear})
	if err != nil {
		return err
	}
	rv, err := upcall.NewRevalidator(upcall.RevalidatorConfig{Switch: sw})
	if err != nil {
		return err
	}
	guard, err := mitigation.New(mitigation.Config{
		Switch: sw, Sweeper: rv,
		MaskThreshold: *mth, CPUThreshold: *cth, DeleteAllDrops: *allDrops})
	if err != nil {
		return err
	}
	trace, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 1})
	if err != nil {
		return err
	}

	l := bitvec.IPv4Tuple
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)

	fmt.Printf("%4s %8s %8s %12s %10s %10s\n",
		"t[s]", "masks", "entries", "victimProbes", "deleted", "slowCPU[%]")
	cursor := 0
	for t := 0; t < *duration; t++ {
		now := int64(t)
		rv.Tick(now) // idle expiry via the revalidator's dump machinery
		// Attack traffic for this second.
		for k := 0; k < *rate; k++ {
			sw.Process(trace.Headers[cursor%trace.Len()], now)
			cursor++
		}
		sw.Process(victim, now)
		_, probes, _ := sw.MFC().Lookup(victim, now)
		// Once the guard has wiped the fast path, every denied attack
		// packet lands in the slow path: Fig. 9c's CPU cost.
		c := sw.Counters()
		slowShare := 0.0
		if t > 0 && c.Suppressed > 0 {
			slowShare = float64(*rate)
		}
		cpu := mitigation.SlowPathCPUPct(slowShare)
		deleted := guard.Tick(now, cpu)
		fmt.Printf("%4d %8d %8d %12d %10d %10.1f\n",
			t, sw.MFC().MaskCount(), sw.MFC().EntryCount(), probes, deleted, cpu)
	}
	st := guard.Stats()
	fmt.Printf("guard: %d sweeps, %d triggered, %d megaflows deleted, %d CPU aborts\n",
		st.Sweeps, st.Triggered, st.Deleted, st.CPUAborts)
	rs := rv.Stats()
	fmt.Printf("revalidator: %d sweeps, %d dumped, %d expired, %d suppressed\n",
		rs.Sweeps, rs.Dumped, rs.Expired, rs.Suppressed)
	return nil
}
