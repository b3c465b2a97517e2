package analysis

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func TestCkConvolutionSingleField(t *testing.T) {
	// Single w-bit header: deny proofs are prefixes of length 1..w, i.e.
	// one entry per wildcard count k = 0..w-1, plus the exact allow entry
	// at k = 0. So C_0 = 2 and C_k = 1 for 1 <= k <= w-1 (cf. Fig. 3:
	// entries 001 and 000 share k=0; 01* has k=1; 1** has k=2).
	counts, err := CkConvolution([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 1, 0}
	for k, c := range counts {
		if c != want[k] {
			t.Errorf("C_%d = %v, want %v", k, c, want[k])
		}
	}
}

func TestCkConvolutionTwoFieldsPaperFormula(t *testing.T) {
	// §11.3 for two headers of lengths s <= l gives C_k = k+2 for
	// 0 <= k < s and C_k = s for s <= k < l. (The paper's closed form for
	// k >= l, s+l-(k+1), undercounts by one at k = l: the census of the
	// actual Fig. 5 MFC has C_4 = 3 — entries 001|****, 01*|0***, and
	// 1**|10** all wildcard 4 bits — which the convolution reproduces;
	// see TestCkConvolutionMatchesGeneratorCensus.)
	s, l := 3, 4
	counts, err := CkConvolution([]int{s, l})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < l; k++ {
		var want float64
		if k < s {
			want = float64(k + 2)
		} else {
			want = float64(s)
		}
		if counts[k] != want {
			t.Errorf("C_%d = %v, want %v (paper §11.3)", k, counts[k], want)
		}
	}
}

// TestCkConvolutionMatchesGeneratorCensus is the strong check: the
// closed-form convolution must equal a brute-force census of the actual
// megaflow generator's output over the exhaustive header space.
func TestCkConvolutionMatchesGeneratorCensus(t *testing.T) {
	l := bitvec.HYP2
	tbl := flowtable.Fig4()
	gen, err := vswitch.NewGenerator(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{} // entry key|mask -> wildcarded bits
	h := bitvec.NewVec(l)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 16; b++ {
			h.SetField(l, 0, a)
			h.SetField(l, 1, b)
			e := gen.Generate(h)
			seen[e.Key.Key()+"|"+e.Mask.Key()] = l.Bits() - e.Mask.OnesCount()
		}
	}
	census := make([]float64, l.Bits()+1)
	for _, k := range seen {
		census[k]++
	}
	counts, err := CkConvolution([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := range counts {
		if counts[k] != census[k] {
			t.Errorf("C_%d: convolution %v, generator census %v", k, counts[k], census[k])
		}
	}
}

func TestCkConvolutionTotalsMatchFig5(t *testing.T) {
	// Total entries for HYP(3)+HYP2(4) should be Fig. 5's 16.
	counts, err := CkConvolution([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total != 16 {
		t.Errorf("total entries = %v, want 16 (Fig. 5)", total)
	}
}

func TestCkConvolutionErrors(t *testing.T) {
	if _, err := CkConvolution(nil); err == nil {
		t.Error("empty widths accepted")
	}
	if _, err := CkConvolution([]int{0}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestExpectedEntriesCkUpperBoundsMasks(t *testing.T) {
	// The Ck-based entry expectation upper-bounds the exact mask
	// expectation (masks coincide across entries; entries >= masks).
	for _, u := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp} {
		tbl := flowtable.UseCaseACL(u, flowtable.ACLParams{})
		var widths []int
		for _, name := range flowtable.TargetFields(u) {
			i, _ := bitvec.IPv4Tuple.FieldIndex(name)
			widths = append(widths, bitvec.IPv4Tuple.Field(i).Width)
		}
		for _, n := range []int{100, 5000, 50000} {
			eCk, err := ExpectedEntriesCk(widths, n)
			if err != nil {
				t.Fatal(err)
			}
			eMask, err := ExpectedMasks(tbl, n)
			if err != nil {
				t.Fatal(err)
			}
			if eCk+1e-9 < eMask {
				t.Errorf("%v n=%d: Ck expectation %.2f below mask expectation %.2f",
					u, n, eCk, eMask)
			}
			// And they should be in the same ballpark (within 2x).
			if eCk > 2.5*eMask+5 {
				t.Errorf("%v n=%d: Ck expectation %.2f far above masks %.2f",
					u, n, eCk, eMask)
			}
		}
	}
}

func TestKMaskConstructionMultiAttainsTheorem42(t *testing.T) {
	// Two fields (6 and 4 bits) with several (k1, k2) choices: the
	// construction must be order-independent, classify all 2^10 headers
	// like the ACL, use exactly k1*k2 deny masks, and have
	// k1(2^(w1/k1)-1) * k2(2^(w2/k2)-1) deny entries.
	l := bitvec.MustLayout(
		bitvec.Field{Name: "A", Width: 6},
		bitvec.Field{Name: "B", Width: 4},
	)
	allowA, allowB := uint64(0b101010), uint64(0b0110)
	for _, ks := range [][]int{{1, 1}, {6, 4}, {2, 4}, {3, 2}, {6, 1}} {
		entries, err := KMaskConstructionMulti(l, []int{0, 1}, []uint64{allowA, allowB}, ks)
		if err != nil {
			t.Fatal(err)
		}
		c := tss.New(l, tss.Options{})
		denyEntries, denyMasks := 0, map[string]bool{}
		for _, e := range entries {
			if err := c.Insert(e, 0); err != nil {
				t.Fatalf("ks=%v: overlap: %v", ks, err)
			}
			if e.Action == flowtable.Drop {
				denyEntries++
				denyMasks[e.Mask.Key()] = true
			}
		}
		if got, want := len(denyMasks), Theorem42Time(ks); got != want {
			t.Errorf("ks=%v: deny masks = %d, want %d", ks, got, want)
		}
		wantEntries := Theorem42Space([]int{6, 4}, ks)
		if float64(denyEntries) != wantEntries {
			t.Errorf("ks=%v: deny entries = %d, want %.0f (Thm 4.2)", ks, denyEntries, wantEntries)
		}
		// Semantics: allow iff A == allowA (rule 1) or B == allowB (rule 2).
		h := bitvec.NewVec(l)
		for a := uint64(0); a < 64; a++ {
			for b := uint64(0); b < 16; b++ {
				h.SetField(l, 0, a)
				h.SetField(l, 1, b)
				e, _, ok := c.Lookup(h, 0)
				if !ok {
					t.Fatalf("ks=%v: header %06b|%04b missed", ks, a, b)
				}
				want := flowtable.Drop
				if a == allowA || b == allowB {
					want = flowtable.Allow
				}
				if e.Action != want {
					t.Fatalf("ks=%v: header %06b|%04b -> %v, want %v", ks, a, b, e.Action, want)
				}
			}
		}
	}
}

func TestKMaskConstructionMultiErrors(t *testing.T) {
	l := bitvec.HYP2
	if _, err := KMaskConstructionMulti(l, []int{0}, []uint64{1, 2}, []int{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := KMaskConstructionMulti(l, []int{0}, []uint64{1}, []int{9}); err == nil {
		t.Error("k > w accepted")
	}
	wide := bitvec.IPv6Tuple
	si, _ := wide.FieldIndex("ip6_src")
	if _, err := KMaskConstructionMulti(wide, []int{si}, []uint64{1}, []int{2}); err == nil {
		t.Error("128-bit field accepted")
	}
}
