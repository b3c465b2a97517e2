// Space–time trade-off (Theorem 4.1): every TSS representation of a
// Whitelist+DefaultDeny ACL sits on a curve between one-mask/exponential-
// entries (Fig. 2) and w-masks/w-entries (Fig. 3). This example sweeps k,
// builds the k-mask construction, verifies it against the bound, and
// measures real lookup latencies — showing why OVS's space-saving choice
// (k ≈ w) is exactly what makes the TSE attack possible.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"
	"time"

	"tse/internal/analysis"
	"tse/internal/bitvec"
	"tse/internal/tss"
)

func main() {
	const w = 16
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: w})
	const allow = 0xBEEF

	fmt.Printf("ACL: allow one %d-bit value, deny the rest (Thm 4.1, w=%d)\n\n", w, w)
	fmt.Printf("%4s %8s %10s %12s %14s\n", "k", "masks", "entries", "bound", "lookup (deny)")
	for _, k := range []int{1, 2, 4, 8, 16} {
		entries, err := analysis.KMaskConstruction(l, 0, allow, k)
		if err != nil {
			log.Fatal(err)
		}
		c := tss.New(l, tss.Options{DisableOverlapCheck: true, Scan: tss.ScanLinear})
		for _, e := range entries {
			if err := c.Insert(e, 0); err != nil {
				log.Fatal(err)
			}
		}
		// Worst-case lookup: a denied value forcing a deep scan.
		h := bitvec.NewVec(l)
		h.SetField(l, 0, 0x0001)
		const iters = 200000
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.Lookup(h, 0)
		}
		per := time.Since(start) / iters
		fmt.Printf("%4d %8d %10d %12.0f %14s\n",
			k, c.MaskCount(), c.EntryCount()-1, analysis.Theorem41Space(w, k), per)
	}
	fmt.Println("\nk=1 is Fig. 2 (fast, huge); k=w is Fig. 3 (small, slow under scan).")
	fmt.Println("OVS leans to k≈w to save memory — so an adversary who multiplies the")
	fmt.Println("number of *necessary* masks (Thm 4.2) multiplies every lookup's cost.")
}
