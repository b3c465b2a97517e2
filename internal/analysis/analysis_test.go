package analysis

import (
	"math"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

func TestTheorem41Extremes(t *testing.T) {
	// k = w: wildcarding strategy, w deny keys (Fig. 3 has 3 for w = 3).
	if got := Theorem41Space(3, 3); got != 3 {
		t.Errorf("Theorem41Space(3,3) = %v, want 3", got)
	}
	// k = 1: exact-match strategy, 2^w - 1 deny keys (Fig. 2 has 7).
	if got := Theorem41Space(3, 1); got != 7 {
		t.Errorf("Theorem41Space(3,1) = %v, want 7", got)
	}
	if got := Theorem41Space(32, 32); got != 32 {
		t.Errorf("Theorem41Space(32,32) = %v, want 32", got)
	}
}

func TestTheorem41Monotone(t *testing.T) {
	// More masks (time) => fewer required entries (space): the bound is
	// non-increasing in k.
	w := 16
	prev := math.Inf(1)
	for k := 1; k <= w; k++ {
		b := Theorem41Space(w, k)
		if b > prev+1e-9 {
			t.Fatalf("bound not non-increasing at k=%d: %v > %v", k, b, prev)
		}
		prev = b
	}
}

func TestTheorem41Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k out of range did not panic")
		}
	}()
	Theorem41Space(4, 5)
}

func TestTheorem42(t *testing.T) {
	// §4.2's example: HYP (w=3) and HYP2 (w=4) at k_i = w_i give 3*4 = 12
	// deny masks and 3*4 = 12 deny keys.
	if got := Theorem42Time([]int{3, 4}); got != 12 {
		t.Errorf("Theorem42Time = %d, want 12", got)
	}
	if got := Theorem42Space([]int{3, 4}, []int{3, 4}); got != 12 {
		t.Errorf("Theorem42Space = %v, want 12", got)
	}
	// SipSpDp at the wildcarding extreme: 32*16*16 = 8192 (§5.2).
	if got := Theorem42Time([]int{32, 16, 16}); got != 8192 {
		t.Errorf("Theorem42Time = %d, want 8192", got)
	}
}

func TestTheorem42PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Theorem42Space([]int{3}, []int{1, 2})
}

// TestKMaskConstructionAttainsBound sweeps k over a 12-bit field and
// verifies the construction (a) uses exactly k masks, (b) has exactly
// k(2^(w/k)-1) deny entries when k | w, (c) is order-independent, and
// (d) classifies every packet like the ACL — the full Theorem 4.1
// trade-off curve realised.
func TestKMaskConstructionAttainsBound(t *testing.T) {
	l := bitvec.MustLayout(bitvec.Field{Name: "F", Width: 12})
	const allow = 0xABC & 0xFFF
	for _, k := range []int{1, 2, 3, 4, 6, 12} {
		entries, err := KMaskConstruction(l, 0, allow, k)
		if err != nil {
			t.Fatal(err)
		}
		c := tss.New(l, tss.Options{})
		for _, e := range entries {
			if err := c.Insert(e, 0); err != nil {
				t.Fatalf("k=%d: construction not order-independent: %v", k, err)
			}
		}
		// Masks: k distinct prefixes, but the final exact allow entry
		// shares mask k's prefix (= full field) — so exactly k masks.
		if got := c.MaskCount(); got != k {
			t.Errorf("k=%d: masks = %d, want %d", k, got, k)
		}
		wantDeny := int(Theorem41Space(12, k))
		if got := c.EntryCount() - 1; got != wantDeny {
			t.Errorf("k=%d: deny entries = %d, want %d (Thm 4.1)", k, got, wantDeny)
		}
		// Exhaustive semantic check.
		h := bitvec.NewVec(l)
		for v := uint64(0); v < 1<<12; v++ {
			h.SetField(l, 0, v)
			e, _, ok := c.Lookup(h, 0)
			if !ok {
				t.Fatalf("k=%d: value %#x missed", k, v)
			}
			want := flowtable.Drop
			if v == allow {
				want = flowtable.Allow
			}
			if e.Action != want {
				t.Fatalf("k=%d: value %#x -> %v, want %v", k, v, e.Action, want)
			}
		}
	}
}

func TestKMaskConstructionErrors(t *testing.T) {
	l := bitvec.HYP
	if _, err := KMaskConstruction(l, 0, 1, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMaskConstruction(l, 0, 1, 4); err == nil {
		t.Error("k>w accepted")
	}
	wide := bitvec.MustLayout(bitvec.Field{Name: "W", Width: 128})
	if _, err := KMaskConstruction(wide, 0, 1, 2); err == nil {
		t.Error("128-bit field accepted")
	}
}

func TestPkMFCPaperExample(t *testing.T) {
	// §6.1: entry #2 of Fig. 3 has k=2 wildcarded bits on h=3,
	// p_2 = 2^2/2^3 = 0.5.
	if got := PkMFC(2, 3); got != 0.5 {
		t.Errorf("PkMFC(2,3) = %v, want 0.5", got)
	}
	// Eq. 1 sanity: more packets, higher probability; bounded by 1.
	if !(PknMFC(2, 3, 1) < PknMFC(2, 3, 5)) {
		t.Error("PknMFC not increasing in n")
	}
	if p := PknMFC(2, 3, 1000); p <= 0.99 || p > 1 {
		t.Errorf("PknMFC(2,3,1000) = %v", p)
	}
}

// TestExpectedMasksFig9bAnchors checks E[#masks] at the paper's Fig. 9b
// operating points. The paper reports, with 50 000 random packets,
// approximately 16 (Dp), 122 (SipDp) and 581 (SipSpDp) masks.
func TestExpectedMasksFig9bAnchors(t *testing.T) {
	cases := []struct {
		use    flowtable.UseCase
		n      int
		lo, hi float64
	}{
		{flowtable.Dp, 50000, 15, 17},
		{flowtable.SipDp, 50000, 110, 135},
		{flowtable.SipSpDp, 50000, 540, 630},
		{flowtable.Dp, 1000, 9, 12},         // §6.2: 1000 packets ≈ co-located Dp-level damage
		{flowtable.SipSpDp, 1000, 120, 190}, // partial coverage at low n
	}
	for _, c := range cases {
		tbl := flowtable.UseCaseACL(c.use, flowtable.ACLParams{})
		e, err := ExpectedMasks(tbl, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if e < c.lo || e > c.hi {
			t.Errorf("%v n=%d: E = %.1f, want in [%v, %v]", c.use, c.n, e, c.lo, c.hi)
		}
	}
}

func TestExpectedMasksMonotone(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	ns := []int{10, 100, 1000, 10000, 50000}
	curve, err := ExpectedMasksCurve(tbl, ns)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("curve not increasing: %v", curve)
		}
	}
	// The limit is the co-located maximum.
	maxM, err := MaxAttainableMasks(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if maxM != 513 {
		t.Errorf("MaxAttainableMasks(SipDp) = %d, want 513", maxM)
	}
	if curve[len(curve)-1] > float64(maxM) {
		t.Error("expectation exceeds attainable maximum")
	}
}

// TestExpectedVsMeasuredMasks is Fig. 9b's E-vs-M comparison: the
// analytical expectation must agree with a Monte-Carlo run of the actual
// switch within a few percent.
func TestExpectedVsMeasuredMasks(t *testing.T) {
	for _, use := range []flowtable.UseCase{flowtable.Dp, flowtable.SipDp} {
		tbl := flowtable.UseCaseACL(use, flowtable.ACLParams{})
		n := 2000
		e, err := ExpectedMasks(tbl, n)
		if err != nil {
			t.Fatal(err)
		}
		// Average measured masks over independent runs.
		runs := 5
		total := 0
		for r := 0; r < runs; r++ {
			tblr := flowtable.UseCaseACL(use, flowtable.ACLParams{})
			sw, err := vswitch.New(vswitch.Config{Table: tblr})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.General(bitvec.IPv4Tuple, nil, n, core.GeneralOptions{Seed: int64(r*7 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			core.Replay(sw, tr, 0)
			total += sw.MFC().MaskCount()
		}
		m := float64(total) / float64(runs)
		if math.Abs(m-e) > 0.12*e+2 {
			t.Errorf("%v: measured %.1f vs expected %.1f masks (n=%d)", use, m, e, n)
		}
	}
}

func TestExpectedMasksErrors(t *testing.T) {
	l := bitvec.HYP2
	tbl := flowtable.New(l)
	k, m := bitvec.MustPattern(l, "0011111")
	tbl.MustAdd(&flowtable.Rule{Name: "multi", Priority: 1, Action: flowtable.Allow, Key: k, Mask: m})
	if _, err := ExpectedMasks(tbl, 10); err == nil {
		t.Error("multi-field allow rule accepted")
	}
	tbl2 := flowtable.New(l)
	tbl2.MustAdd(&flowtable.Rule{Name: "dd", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if _, err := ExpectedMasks(tbl2, 10); err == nil {
		t.Error("no-allow table accepted")
	}
	tbl3 := flowtable.New(l)
	tbl3.MustAdd(&flowtable.Rule{Name: "any", Priority: 1, Action: flowtable.Allow,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if _, err := ExpectedMasks(tbl3, 10); err == nil {
		t.Error("allow-everything table accepted")
	}
}

// TestExpectedMasksToyExhaustive cross-checks the enumeration on the
// Fig. 1 toy ACL against a brute-force computation over all 8 headers.
func TestExpectedMasksToyExhaustive(t *testing.T) {
	tbl := flowtable.Fig1()
	gen, err := vswitch.NewGenerator(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: for each of the 8 equiprobable headers find its mask;
	// E[masks after n] = sum over masks of 1-(1-p)^n.
	prob := map[string]float64{}
	h := bitvec.NewVec(bitvec.HYP)
	for v := uint64(0); v < 8; v++ {
		h.SetField(bitvec.HYP, 0, v)
		e := gen.Generate(h)
		prob[e.Mask.Key()] += 1.0 / 8
	}
	for _, n := range []int{1, 3, 10, 100} {
		want := 0.0
		for _, p := range prob {
			want += 1 - math.Pow(1-p, float64(n))
		}
		got, err := ExpectedMasks(tbl, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: ExpectedMasks = %v, brute force = %v", n, got, want)
		}
	}
}
