package core

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

func newSwitch(t *testing.T, tbl *flowtable.Table) *vswitch.Switch {
	t.Helper()
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestCoLocatedFig1Trace: §5.1 derives the exact single-header trace
// {001, 101, 011, 000} for the Fig. 1 ACL.
func TestCoLocatedFig1Trace(t *testing.T) {
	tr, err := CoLocated(flowtable.Fig1(), CoLocatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0b001, 0b101, 0b011, 0b000}
	if tr.Len() != len(want) {
		t.Fatalf("trace length = %d, want %d", tr.Len(), len(want))
	}
	for i, h := range tr.Headers {
		if got := h.FieldUint64(bitvec.HYP, 0); got != want[i] {
			t.Errorf("packet %d = %03b, want %03b", i, got, want[i])
		}
	}
	// Replaying the trace spawns exactly Fig. 3: 4 entries, 3 masks.
	sw := newSwitch(t, flowtable.Fig1())
	st := Replay(sw, tr, 0)
	if st.MasksAfter != 3 || st.EntriesAfter != 4 {
		t.Errorf("replay produced %d masks / %d entries, want 3/4", st.MasksAfter, st.EntriesAfter)
	}
	if st.MasksAfter-st.MasksBefore != 3 || st.Packets != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCoLocatedFig4Trace: the two-header outer product of §5.1 yields 13
// masks against the Fig. 4 ACL when allow-combos are skipped
// ("this technique gives exactly 4*3+1 = 13 packets and the same number of
// MFC masks").
func TestCoLocatedFig4Trace(t *testing.T) {
	tr, err := CoLocated(flowtable.Fig4(), CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 13 {
		t.Errorf("trace length = %d, want 13 = 4*3+1 (§5.1)", tr.Len())
	}
	sw := newSwitch(t, flowtable.Fig4())
	st := Replay(sw, tr, 0)
	if st.MasksAfter != 13 {
		t.Errorf("masks = %d, want 13", st.MasksAfter)
	}
}

// TestUseCaseMaskCounts reproduces the §5.2 mask-count table. The paper
// quotes approximate maxima (17 / ~256 / ~512 / ~8195); our exact counts
// differ by a handful because allow-rule megaflow masks mostly *coincide*
// with deny prefix masks (exactly as Fig. 5's entries #2–#4 share masks
// with deny entries):
//
//   - Dp: 16 deny prefixes; the allow mask equals the 16-bit prefix → 16.
//   - SpDp: 256 deny products + rule #1's lone exact-dp mask → 257
//     (rule #3's masks are all deny products with full sp prefix).
//   - SipDp: 512 + 1 → 513.
//   - SipSpDp skip-allow: 8192 + 1 → 8193; full outer product adds rule
//     #2's 16 sp-unconstrained shapes → 8209.
func TestUseCaseMaskCounts(t *testing.T) {
	cases := []struct {
		use       flowtable.UseCase
		skipMasks int // SkipAllowCombos
		fullMasks int // full outer product
	}{
		{flowtable.Dp, 16, 16},
		{flowtable.SpDp, 257, 257},
		{flowtable.SipDp, 513, 513},
		{flowtable.SipSpDp, 8193, 8209},
	}
	for _, c := range cases {
		t.Run(c.use.String(), func(t *testing.T) {
			for _, skip := range []bool{true, false} {
				tbl := flowtable.UseCaseACL(c.use, flowtable.ACLParams{})
				tr, err := CoLocated(tbl, CoLocatedOptions{SkipAllowCombos: skip})
				if err != nil {
					t.Fatal(err)
				}
				sw := newSwitch(t, tbl)
				st := Replay(sw, tr, 0)
				want := c.fullMasks
				if skip {
					want = c.skipMasks
				}
				if st.MasksAfter != want {
					t.Errorf("skip=%v: masks = %d, want %d", skip, st.MasksAfter, want)
				}
				// Sanity: the §5.2 ballpark (deny product) is attained.
				if st.MasksAfter < flowtable.DenyMaskProduct(c.use) {
					t.Errorf("masks %d below deny product %d", st.MasksAfter,
						flowtable.DenyMaskProduct(c.use))
				}
			}
		})
	}
}

// TestCoLocatedNoiseSpawnsSameMasks: noise randomises only wildcarded
// bits, so the spawned mask set is identical while headers gain entropy.
func TestCoLocatedNoiseSpawnsSameMasks(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	plain, err := CoLocated(tbl, CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := CoLocated(tbl, CoLocatedOptions{SkipAllowCombos: true, Noise: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	swP := newSwitch(t, flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}))
	swN := newSwitch(t, flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}))
	stP := Replay(swP, plain, 0)
	stN := Replay(swN, noisy, 0)
	if stP.MasksAfter != stN.MasksAfter {
		t.Errorf("noise changed mask count: %d vs %d", stP.MasksAfter, stN.MasksAfter)
	}
	// Noise must actually vary the headers (entropy for the EMC).
	distinct := make(map[string]bool)
	for _, h := range noisy.Headers {
		distinct[h.Key()] = true
	}
	if len(distinct) != noisy.Len() {
		t.Logf("noisy trace has %d distinct of %d headers", len(distinct), noisy.Len())
	}
	// ip_dst is unconstrained; with noise it should take several values.
	dstVals := make(map[uint64]bool)
	l := noisy.Layout
	dst, _ := l.FieldIndex("ip_dst")
	for _, h := range noisy.Headers {
		dstVals[h.FieldUint64(l, dst)] = true
	}
	if len(dstVals) < 10 {
		t.Errorf("noise left ip_dst nearly constant: %d values", len(dstVals))
	}
}

func TestExtractTargetsErrors(t *testing.T) {
	l := bitvec.HYP2
	// Allow rule spanning two fields: not single-field.
	tbl := flowtable.New(l)
	k, m := bitvec.MustPattern(l, "0011111")
	tbl.MustAdd(&flowtable.Rule{Name: "multi", Priority: 1, Action: flowtable.Allow, Key: k, Mask: m})
	if _, _, err := ExtractTargets(tbl); err == nil {
		t.Error("multi-field allow rule accepted")
	}
	// Allow-everything rule.
	tbl2 := flowtable.New(l)
	tbl2.MustAdd(&flowtable.Rule{Name: "any", Priority: 1, Action: flowtable.Allow,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if _, _, err := ExtractTargets(tbl2); err == nil {
		t.Error("allow-everything rule accepted")
	}
	// Deny-only table.
	tbl3 := flowtable.New(l)
	tbl3.MustAdd(&flowtable.Rule{Name: "dd", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if _, _, err := ExtractTargets(tbl3); err == nil {
		t.Error("deny-only table accepted")
	}
	// Partial-field (prefix) allow rule.
	tbl4 := flowtable.New(l)
	k4, m4 := bitvec.MustPattern(l, "01*****")
	tbl4.MustAdd(&flowtable.Rule{Name: "prefix", Priority: 1, Action: flowtable.Allow, Key: k4, Mask: m4})
	if _, _, err := ExtractTargets(tbl4); err == nil {
		t.Error("prefix allow rule accepted")
	}
}

func TestGeneralTrace(t *testing.T) {
	l := bitvec.IPv4Tuple
	tr, err := General(l, nil, 100, GeneralOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	// Randomised fields should vary; ip_dst (not in defaults) stays zero.
	sip, _ := l.FieldIndex("ip_src")
	dst, _ := l.FieldIndex("ip_dst")
	sipVals := map[uint64]bool{}
	for _, h := range tr.Headers {
		sipVals[h.FieldUint64(l, sip)] = true
		if h.FieldUint64(l, dst) != 0 {
			t.Fatal("non-target field modified without Noise")
		}
	}
	if len(sipVals) < 90 {
		t.Errorf("ip_src not randomised: %d distinct values", len(sipVals))
	}
}

func TestGeneralTraceDeterministic(t *testing.T) {
	l := bitvec.IPv4Tuple
	a, _ := General(l, nil, 50, GeneralOptions{Seed: 9})
	b, _ := General(l, nil, 50, GeneralOptions{Seed: 9})
	for i := range a.Headers {
		if !a.Headers[i].Equal(b.Headers[i]) {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _ := General(l, nil, 50, GeneralOptions{Seed: 10})
	same := true
	for i := range a.Headers {
		if !a.Headers[i].Equal(c.Headers[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneralTraceBaseAndNoise(t *testing.T) {
	l := bitvec.IPv4Tuple
	base := bitvec.NewVec(l)
	dst, _ := l.FieldIndex("ip_dst")
	base.SetField(l, dst, 0xc0a80105)
	tr, err := General(l, base, 20, GeneralOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Headers {
		if h.FieldUint64(l, dst) != 0xc0a80105 {
			t.Fatal("base header value lost")
		}
	}
	noisy, err := General(l, base, 20, GeneralOptions{Seed: 2, Noise: true})
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, h := range noisy.Headers {
		if h.FieldUint64(l, dst) != 0xc0a80105 {
			varied = true
		}
	}
	if !varied {
		t.Error("Noise did not randomise non-target fields")
	}
}

func TestGeneralErrors(t *testing.T) {
	if _, err := General(bitvec.IPv4Tuple, nil, 5, GeneralOptions{Fields: []string{"bogus"}}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := General(bitvec.HYP, nil, 5, GeneralOptions{}); err == nil {
		t.Error("layout without default fields accepted")
	}
}

// TestGeneralMaskGrowth: more random packets spawn more masks, with
// diminishing returns (the qualitative shape of Fig. 9b).
func TestGeneralMaskGrowth(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	sw := newSwitch(t, tbl)
	tr, err := General(bitvec.IPv4Tuple, nil, 5000, GeneralOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var at1000, at5000 int
	for i, h := range tr.Headers {
		sw.Process(h, 0)
		if i == 999 {
			at1000 = sw.MFC().MaskCount()
		}
	}
	at5000 = sw.MFC().MaskCount()
	if at1000 < 50 {
		t.Errorf("masks after 1000 pkts = %d, want > 50 (paper: ~97 for SipDp)", at1000)
	}
	if at5000 <= at1000 {
		t.Errorf("mask count did not grow: %d -> %d", at1000, at5000)
	}
	if at5000 > 529 {
		t.Errorf("masks exceed the co-located maximum: %d", at5000)
	}
}
