package core

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// ipv6ACL builds the §5.4 IPv6 analogue of the SipDp ACL: allow dst port
// 80, allow one /128 source, default deny.
func ipv6ACL(t *testing.T) *flowtable.Table {
	t.Helper()
	l := bitvec.IPv6Tuple
	tbl := flowtable.New(l)
	dp, _ := l.FieldIndex("tp_dst")
	k1 := bitvec.NewVec(l)
	k1.SetField(l, dp, 80)
	tbl.MustAdd(&flowtable.Rule{Name: "#1", Priority: 10, Action: flowtable.Allow,
		Key: k1, Mask: bitvec.FieldMask(l, dp)})
	sip, _ := l.FieldIndex("ip6_src")
	k2 := bitvec.NewVec(l)
	k2.SetFieldBytes(l, sip, []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	tbl.MustAdd(&flowtable.Rule{Name: "#2", Priority: 5, Action: flowtable.Allow,
		Key: k2, Mask: bitvec.FieldMask(l, sip)})
	tbl.MustAdd(&flowtable.Rule{Name: "#4", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	return tbl
}

// TestCoLocatedIPv6Wildcarding: with the wildcarding strategy the IPv6
// SipDp attack attains 128*16 = 2048 deny masks — the trace generator and
// megaflow machinery are layout-generic.
func TestCoLocatedIPv6Wildcarding(t *testing.T) {
	tbl := ipv6ACL(t)
	tr, err := CoLocated(tbl, CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		t.Fatal(err)
	}
	// Deny product 128*16 plus the single all-allow packet.
	if want := 128*16 + 1; tr.Len() != want {
		t.Fatalf("trace length = %d, want %d", tr.Len(), want)
	}
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(sw, tr, 0)
	// 2048 deny masks + the allow rule's exact-dp mask.
	if st.MasksAfter != 2049 {
		t.Errorf("masks = %d, want 2049 = 128*16 + 1", st.MasksAfter)
	}
}

func TestCoLocatedIPv6FullProduct(t *testing.T) {
	if testing.Short() {
		t.Skip("full IPv6 outer product skipped with -short")
	}
	tbl := ipv6ACL(t)
	tr, err := CoLocated(tbl, CoLocatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 129 * 17; tr.Len() != want {
		t.Fatalf("trace length = %d, want %d", tr.Len(), want)
	}
	sw, err := vswitch.New(vswitch.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(sw, tr, 0)
	// Deny product 128*16 = 2048, plus rule #1's exact-dp mask; rule #2
	// masks (dp-prefix x full sip) coincide with deny shapes.
	if st.MasksAfter < 2048 || st.MasksAfter > 2080 {
		t.Errorf("masks = %d, want ≈2049 (128*16 deny + allow)", st.MasksAfter)
	}
}

// TestCoLocatedIPv6ExactStrategy reproduces §5.4's observed OVS behaviour:
// with ip6_src under the exact-match strategy the same trace yields only
// ~17 masks but an entry per distinct source.
func TestCoLocatedIPv6ExactStrategy(t *testing.T) {
	tbl := ipv6ACL(t)
	tr, err := CoLocated(tbl, CoLocatedOptions{SkipAllowCombos: true})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := vswitch.New(vswitch.Config{Table: tbl,
		Strategy: map[string]vswitch.Strategy{"ip6_src": vswitch.StrategyExact}})
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(sw, tr, 0)
	if st.MasksAfter > 40 {
		t.Errorf("masks = %d, want a handful (exact-match regime)", st.MasksAfter)
	}
	if st.EntriesAfter < 100 {
		t.Errorf("entries = %d, want ≈ one per distinct source", st.EntriesAfter)
	}
}

// TestGeneralIPv6 exercises the random generator over 128-bit fields.
func TestGeneralIPv6(t *testing.T) {
	tr, err := General(bitvec.IPv6Tuple, nil, 500, GeneralOptions{
		Fields: []string{"ip6_src", "tp_dst"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, h := range tr.Headers {
		distinct[h.Key()] = true
	}
	if len(distinct) < 495 {
		t.Errorf("only %d distinct headers of 500", len(distinct))
	}
	sw, err := vswitch.New(vswitch.Config{Table: ipv6ACL(t)})
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(sw, tr, 0)
	// Expected masks ≈ #(j1,j2) prefix combos with j1+j2 <= log2(500),
	// about 40 (cf. analysis.ExpectedMasks); assert the right ballpark.
	if st.MasksAfter < 30 || st.MasksAfter > 60 {
		t.Errorf("random IPv6 trace spawned %d masks, want ≈40", st.MasksAfter)
	}
}
