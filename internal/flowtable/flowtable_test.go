package flowtable

import (
	"math/rand"
	"testing"

	"tse/internal/bitvec"
)

func hypHeader(val uint64) bitvec.Vec {
	h := bitvec.NewVec(bitvec.HYP)
	h.SetField(bitvec.HYP, 0, val)
	return h
}

func TestFig1Semantics(t *testing.T) {
	tbl := Fig1()
	for val := uint64(0); val < 8; val++ {
		r := tbl.Lookup(hypHeader(val))
		if r == nil {
			t.Fatalf("no rule matched %03b; DefaultDeny missing", val)
		}
		want := Drop
		if val == 1 {
			want = Allow
		}
		if r.Action != want {
			t.Errorf("header %03b -> %v, want %v", val, r.Action, want)
		}
	}
}

func TestFig4Semantics(t *testing.T) {
	tbl := Fig4()
	l := bitvec.HYP2
	h := bitvec.NewVec(l)
	for hyp := uint64(0); hyp < 8; hyp++ {
		for hyp2 := uint64(0); hyp2 < 16; hyp2++ {
			h.SetField(l, 0, hyp)
			h.SetField(l, 1, hyp2)
			r := tbl.Lookup(h)
			want := Drop
			if hyp == 1 || hyp2 == 0xf {
				want = Allow
			}
			if r.Action != want {
				t.Errorf("header %03b|%04b -> %v, want %v", hyp, hyp2, r.Action, want)
			}
		}
	}
}

func TestPriorityAndTieBreak(t *testing.T) {
	l := bitvec.HYP
	tbl := New(l)
	// Two overlapping all-wildcard rules at equal priority: first added wins.
	tbl.MustAdd(&Rule{Name: "first", Priority: 5, Action: Allow,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	tbl.MustAdd(&Rule{Name: "second", Priority: 5, Action: Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if r := tbl.Lookup(hypHeader(3)); r.Name != "first" {
		t.Errorf("tie broken wrongly: got %q", r.Name)
	}
	// A higher-priority rule added later still wins.
	k, m := bitvec.MustPattern(l, "011")
	tbl.MustAdd(&Rule{Name: "hi", Priority: 9, Action: Drop, Key: k, Mask: m})
	if r := tbl.Lookup(hypHeader(3)); r.Name != "hi" {
		t.Errorf("priority ignored: got %q", r.Name)
	}
}

func TestSection21OverlapExample(t *testing.T) {
	// §2.1: a packet from 10.0.0.1, sport 34521, dport 443 matches both
	// rule #2 and the DefaultDeny in the Fig. 6 ACL, and #2 must win.
	tbl := Fig6()
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	sip, _ := l.FieldIndex("ip_src")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")
	h.SetField(l, sip, 0x0a000001)
	h.SetField(l, sp, 34521)
	h.SetField(l, dp, 443)
	r := tbl.Lookup(h)
	if r == nil || r.Name != "#2" || r.Action != Allow {
		t.Fatalf("lookup = %+v, want rule #2 allow", r)
	}
	if !overlapping(tbl) {
		t.Error("Fig. 6 ACL found order-independent; its rules overlap (§2.1)")
	}
}

// overlapping reports whether some pair of the table's rules overlaps, so
// that priorities matter (§2.1).
func overlapping(tbl *Table) bool {
	rules := tbl.Rules()
	for i, a := range rules {
		for _, b := range rules[i+1:] {
			if bitvec.Overlap(a.Key, a.Mask, b.Key, b.Mask) {
				return true
			}
		}
	}
	return false
}

func TestOrderIndependentTable(t *testing.T) {
	// The Fig. 3 megaflow set, loaded as a flow table, is disjoint.
	l := bitvec.HYP
	tbl := New(l)
	for i, pat := range []string{"001", "1**", "01*", "000"} {
		k, m := bitvec.MustPattern(l, pat)
		a := Drop
		if i == 0 {
			a = Allow
		}
		tbl.MustAdd(&Rule{Name: pat, Priority: 1, Action: a, Key: k, Mask: m})
	}
	if overlapping(tbl) {
		t.Error("Fig. 3 entry set must be order-independent")
	}
}

func TestAddRejectsNonCanonicalKey(t *testing.T) {
	l := bitvec.HYP
	tbl := New(l)
	key := bitvec.NewVec(l)
	key.SetField(l, 0, 7)
	mask := bitvec.NewVec(l) // all wildcard, but key has bits
	if err := tbl.Add(&Rule{Name: "bad", Key: key, Mask: mask}); err == nil {
		t.Error("non-canonical key accepted")
	}
	wrong := make(bitvec.Vec, 9)
	if err := tbl.Add(&Rule{Name: "len", Key: wrong, Mask: wrong}); err == nil {
		t.Error("wrong-length vectors accepted")
	}
}

func TestLookupNoMatch(t *testing.T) {
	tbl := New(bitvec.HYP)
	k, m := bitvec.MustPattern(bitvec.HYP, "111")
	tbl.MustAdd(&Rule{Name: "only", Priority: 1, Action: Allow, Key: k, Mask: m})
	if r := tbl.Lookup(hypHeader(0)); r != nil {
		t.Errorf("expected no match, got %q", r.Name)
	}
}

func TestUseCaseACLShapes(t *testing.T) {
	wantRules := map[UseCase]int{Baseline: 2, Dp: 2, SpDp: 3, SipDp: 3, SipSpDp: 4}
	for _, u := range UseCases {
		tbl := UseCaseACL(u, ACLParams{})
		if got := tbl.Len(); got != wantRules[u] {
			t.Errorf("%v: %d rules, want %d", u, got, wantRules[u])
		}
		// Every scenario must end in DefaultDeny.
		last := tbl.Rules()[tbl.Len()-1]
		if last.Action != Drop || last.Mask.OnesCount() != 0 {
			t.Errorf("%v: last rule is not DefaultDeny", u)
		}
	}
}

func TestDenyMaskProduct(t *testing.T) {
	want := map[UseCase]int{Baseline: 1, Dp: 16, SpDp: 256, SipDp: 512, SipSpDp: 8192}
	for u, w := range want {
		if got := DenyMaskProduct(u); got != w {
			t.Errorf("DenyMaskProduct(%v) = %d, want %d (§5.2)", u, got, w)
		}
	}
}

func TestUseCaseStrings(t *testing.T) {
	if Baseline.String() != "Baseline" || SipSpDp.String() != "SipSpDp" {
		t.Error("UseCase names wrong")
	}
	if UseCase(99).String() != "UseCase(99)" {
		t.Error("unknown UseCase formatting wrong")
	}
	if Drop.String() != "deny" || Allow.String() != "allow" || Forward.String() != "forward" {
		t.Error("Action names do not match the paper's figures")
	}
}

func TestParseUseCase(t *testing.T) {
	for _, u := range UseCases {
		got, err := ParseUseCase(u.String())
		if err != nil || got != u {
			t.Errorf("ParseUseCase(%q) = %v, %v", u.String(), got, err)
		}
	}
	if got, err := ParseUseCase("sipspdp"); err != nil || got != SipSpDp {
		t.Errorf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParseUseCase("bogus"); err == nil {
		t.Error("bogus use case accepted")
	}
}

func TestTableString(t *testing.T) {
	s := Fig1().String()
	if s == "" {
		t.Fatal("empty table rendering")
	}
}

// Property: flow-table lookup over random tables equals a naive
// reference implementation.
func TestLookupMatchesReference(t *testing.T) {
	l := bitvec.IPv4Tuple
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		tbl := New(l)
		type ref struct {
			r *Rule
		}
		var rules []*Rule
		for i := 0; i < 30; i++ {
			key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				if rng.Intn(2) == 0 {
					continue
				}
				plen := rng.Intn(l.Field(f).Width) + 1
				for b := 0; b < plen; b++ {
					mask.SetFieldBit(l, f, b)
					if rng.Intn(2) == 1 {
						key.SetFieldBit(l, f, b)
					}
				}
			}
			r := &Rule{Name: "r", Priority: rng.Intn(5), Action: Action(rng.Intn(2)),
				Key: key, Mask: mask}
			tbl.MustAdd(r)
			rules = append(rules, r)
		}
		_ = ref{}
		for n := 0; n < 200; n++ {
			h := bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				h.SetField(l, f, rng.Uint64())
			}
			got := tbl.Lookup(h)
			// Reference: scan table's own sorted order — instead recompute
			// best by priority/seq from the raw rule list.
			var best *Rule
			for _, r := range rules {
				if !r.Matches(h) {
					continue
				}
				if best == nil || r.Priority > best.Priority ||
					(r.Priority == best.Priority && r.seq < best.seq) {
					best = r
				}
			}
			if got != best {
				t.Fatalf("Lookup disagrees with reference: got %v want %v", got, best)
			}
		}
	}
}
