package vswitch

import (
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

func hyp(val uint64) bitvec.Vec {
	h := bitvec.NewVec(bitvec.HYP)
	h.SetField(bitvec.HYP, 0, val)
	return h
}

func hyp2(a, b uint64) bitvec.Vec {
	h := bitvec.NewVec(bitvec.HYP2)
	h.SetField(bitvec.HYP2, 0, a)
	h.SetField(bitvec.HYP2, 1, b)
	return h
}

func newSwitch(t *testing.T, cfg Config) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("switch without table accepted")
	}
	if _, err := New(Config{Table: flowtable.Fig1(),
		Strategy: map[string]Strategy{"nope": StrategyExact}}); err == nil {
		t.Error("strategy for unknown field accepted")
	}
}

// TestWildcardStrategyFig3 replays the paper's §5.1 single-header
// adversarial trace {001, 101, 011, 000} against the Fig. 1 ACL and checks
// that the MFC ends up exactly as Fig. 3: 4 entries, 3 masks, with the
// printed patterns of the figure.
func TestWildcardStrategyFig3(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1()})
	for _, v := range []uint64{0b001, 0b101, 0b011, 0b000} {
		s.Process(hyp(v), 0)
	}
	if got := s.MFC().EntryCount(); got != 4 {
		t.Errorf("entries = %d, want 4 (Fig. 3)", got)
	}
	if got := s.MFC().MaskCount(); got != 3 {
		t.Errorf("masks = %d, want 3 (Fig. 3)", got)
	}
	want := map[string]string{
		"001": "allow", "1**": "deny", "01*": "deny", "000": "deny",
	}
	for _, e := range s.MFC().Entries() {
		pat := bitvec.FormatMasked(bitvec.HYP, e.Key, e.Mask)
		action, ok := want[pat]
		if !ok {
			t.Errorf("unexpected MFC entry %s", pat)
			continue
		}
		if e.Action.String() != action {
			t.Errorf("entry %s action = %v, want %s", pat, e.Action, action)
		}
		delete(want, pat)
	}
	for pat := range want {
		t.Errorf("Fig. 3 entry %s missing from MFC", pat)
	}
}

// TestExactMatchStrategyFig2 drives all 8 HYP headers through a switch
// configured with the exact-match strategy and expects Fig. 2: one mask,
// eight entries.
func TestExactMatchStrategyFig2(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1(), Strategy: map[string]Strategy{"HYP": StrategyExact}})
	for v := uint64(0); v < 8; v++ {
		s.Process(hyp(v), 0)
	}
	if got := s.MFC().MaskCount(); got != 1 {
		t.Errorf("masks = %d, want 1 (Fig. 2)", got)
	}
	if got := s.MFC().EntryCount(); got != 8 {
		t.Errorf("entries = %d, want 8 (Fig. 2)", got)
	}
}

// TestMultiFieldConstructionFig5 exhausts the two-header toy protocol
// against the Fig. 4 ACL: the paper derives 3*4+1 = 13 distinct masks
// (§4.2), with allow-rule-#2 entries sharing deny masks.
func TestMultiFieldConstructionFig5(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig4()})
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 16; b++ {
			s.Process(hyp2(a, b), 0)
		}
	}
	if got := s.MFC().MaskCount(); got != 13 {
		t.Errorf("masks = %d, want 13 = 3*4+1 (Fig. 5 / §4.2)", got)
	}
	// Spot-check a few of Fig. 5's printed entries.
	found := map[string]bool{}
	for _, e := range s.MFC().Entries() {
		found[bitvec.FormatMasked(bitvec.HYP2, e.Key, e.Mask)+" "+e.Action.String()] = true
	}
	for _, want := range []string{
		"001|**** allow", // #1
		"1**|1111 allow", // #2
		"000|1111 allow", // #4
		"1**|0*** deny",  // #5
		"000|1110 deny",  // #16
	} {
		if !found[want] {
			t.Errorf("Fig. 5 entry %q missing", want)
		}
	}
}

// TestMFCSemanticEquivalence: after processing every header, the fast path
// must agree with the flow table on every header (soundness of caching).
func TestMFCSemanticEquivalence(t *testing.T) {
	tbl := flowtable.Fig4()
	s := newSwitch(t, Config{Table: tbl})
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 16; b++ {
			s.Process(hyp2(a, b), 0)
		}
	}
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 16; b++ {
			h := hyp2(a, b)
			e, _, ok := s.MFC().Lookup(h, 0)
			if !ok {
				t.Fatalf("header %03b|%04b missing from MFC after exhaustion", a, b)
			}
			if want := tbl.Lookup(h).Action; e.Action != want {
				t.Errorf("header %03b|%04b cached %v, table says %v", a, b, e.Action, want)
			}
		}
	}
}

func TestPipelinePaths(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1()})
	// First packet: slow path.
	if v := s.Process(hyp(1), 0); v.Path != PathSlow || v.Action != flowtable.Allow {
		t.Errorf("first packet: %+v, want slow-path allow", v)
	}
	// Same header again: megaflow hit.
	if v := s.Process(hyp(1), 0); v.Path != PathMegaflow {
		t.Errorf("second packet path = %v, want megaflow", v.Path)
	}
	// A different header in the same megaflow region (101 and 111 share
	// entry 1**) after priming with 101.
	s.Process(hyp(5), 0)
	if v := s.Process(hyp(7), 0); v.Path != PathMegaflow || v.Action != flowtable.Drop {
		t.Errorf("megaflow-covered packet: %+v, want megaflow deny", v)
	}
	c := s.Counters()
	if c.Slow != 2 || c.Megaflow != 2 {
		t.Errorf("counters = %+v", c)
	}
	if c.Allowed != 2 || c.Dropped != 2 {
		t.Errorf("verdict counters = %+v", c)
	}
}

func TestIdleTimeoutRecovery(t *testing.T) {
	// Fig. 8a: attacker entries persist for the 10s idle timeout after
	// the attack stops, delaying victim recovery.
	s := newSwitch(t, Config{Table: flowtable.Fig1()})
	s.Process(hyp(5), 100) // attacker megaflow
	s.Process(hyp(1), 100) // victim megaflow
	s.Process(hyp(1), 105) // victim keeps its entry warm
	if n := s.Tick(105); n != 0 {
		t.Errorf("premature eviction of %d entries at t=105", n)
	}
	if n := s.Tick(110); n != 1 {
		t.Errorf("evicted %d at t=110, want 1 (attacker entry, 10s idle)", n)
	}
	if got := s.MFC().EntryCount(); got != 1 {
		t.Errorf("entries = %d, want 1", got)
	}
}

func TestRevalidatorQuirk(t *testing.T) {
	// §8: once MFCGuard deletes an entry, the slow path never re-installs
	// it; matching packets are classified in the slow path forever.
	s := newSwitch(t, Config{Table: flowtable.Fig1()})
	s.Process(hyp(5), 0) // installs deny megaflow 1**
	if n := s.DeleteMegaflows(func(e *tss.Entry) bool { return e.Action == flowtable.Drop }); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	for i := 0; i < 3; i++ {
		if v := s.Process(hyp(5), int64(i)); v.Path != PathSlow {
			t.Fatalf("packet %d path = %v, want slowpath (quirk)", i, v.Path)
		}
	}
	if c := s.Counters(); c.Suppressed != 3 {
		t.Errorf("suppressed = %d, want 3", c.Suppressed)
	}
}

func TestMaxMegaflows(t *testing.T) {
	s := newSwitch(t, Config{Table: flowtable.Fig1(), MaxMegaflows: 2})
	for _, v := range []uint64{1, 5, 3, 0} {
		s.Process(hyp(v), 0)
	}
	if got := s.MFC().EntryCount(); got != 2 {
		t.Errorf("entries = %d, want 2 (limit)", got)
	}
	if c := s.Counters(); c.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", c.Rejected)
	}
}

func TestNoMatchDropsWithExactEntry(t *testing.T) {
	// A table without a catch-all: unmatched headers get an exact-match
	// drop entry (safe, no over-wide coverage).
	l := bitvec.HYP
	tbl := flowtable.New(l)
	k, m := bitvec.MustPattern(l, "001")
	tbl.MustAdd(&flowtable.Rule{Name: "#1", Priority: 1, Action: flowtable.Allow, Key: k, Mask: m})
	s := newSwitch(t, Config{Table: tbl})
	v := s.Process(hyp(6), 0)
	if v.Action != flowtable.Drop || v.Rule != "<no-match>" {
		t.Errorf("verdict = %+v, want drop/<no-match>", v)
	}
	// The installed entry must be exact: it may cover only header 110.
	es := s.MFC().Entries()
	if len(es) != 1 || es[0].Mask.OnesCount() != 3 {
		t.Errorf("no-match entry not exact: %+v", es)
	}
}

// TestIPv6ExactMatchExplosion reproduces §5.4: with the IPv6 source
// address handled by exact matching, random-source attack traffic spawns
// only a handful of masks but an entry per packet (memory/CPU blow-up
// instead of lookup slow-down).
func TestIPv6ExactMatchExplosion(t *testing.T) {
	l := bitvec.IPv6Tuple
	tbl := flowtable.New(l)
	dp, _ := l.FieldIndex("tp_dst")
	key := bitvec.NewVec(l)
	key.SetField(l, dp, 80)
	tbl.MustAdd(&flowtable.Rule{Name: "#1", Priority: 10, Action: flowtable.Allow,
		Key: key, Mask: bitvec.FieldMask(l, dp)})
	sipIdx, _ := l.FieldIndex("ip6_src")
	allowSrc := bitvec.NewVec(l)
	allowSrc.SetFieldBytes(l, sipIdx, []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	tbl.MustAdd(&flowtable.Rule{Name: "#2", Priority: 5, Action: flowtable.Allow,
		Key: allowSrc, Mask: bitvec.FieldMask(l, sipIdx)})
	tbl.MustAdd(&flowtable.Rule{Name: "#4", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})

	s := newSwitch(t, Config{Table: tbl, Strategy: map[string]Strategy{"ip6_src": StrategyExact}})
	rng := rand.New(rand.NewSource(1))
	sip, _ := l.FieldIndex("ip6_src")
	n := 500
	for i := 0; i < n; i++ {
		h := bitvec.NewVec(l)
		addr := make([]byte, 16)
		rng.Read(addr)
		h.SetFieldBytes(l, sip, addr)
		h.SetField(l, dp, uint64(rng.Intn(65536)))
		s.Process(h, 0)
	}
	masks, entries := s.MFC().MaskCount(), s.MFC().EntryCount()
	if masks > 20 {
		t.Errorf("masks = %d, want a handful (§5.4 exact-match regime)", masks)
	}
	if entries < n*9/10 {
		t.Errorf("entries = %d, want ≈ one per packet (%d)", entries, n)
	}
}

// TestGeneratorDisjointnessRandom is the key safety property: for random
// prefix ACLs and random packet sequences the generated megaflows never
// overlap (Process panics on violation) and always agree with the table.
func TestGeneratorDisjointnessRandom(t *testing.T) {
	l := bitvec.HYP2
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		tbl := flowtable.New(l)
		nRules := 1 + rng.Intn(5)
		for i := 0; i < nRules; i++ {
			key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
			for f := 0; f < l.NumFields(); f++ {
				plen := rng.Intn(l.Field(f).Width + 1)
				for b := 0; b < plen; b++ {
					mask.SetFieldBit(l, f, b)
					if rng.Intn(2) == 1 {
						key.SetFieldBit(l, f, b)
					}
				}
			}
			tbl.MustAdd(&flowtable.Rule{Name: "r", Priority: rng.Intn(4),
				Action: flowtable.Action(rng.Intn(2)), Key: key, Mask: mask})
		}
		tbl.MustAdd(&flowtable.Rule{Name: "dd", Priority: -1,
			Action: flowtable.Drop, Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})

		s := newSwitch(t, Config{Table: tbl})
		for i := 0; i < 300; i++ {
			h := hyp2(uint64(rng.Intn(8)), uint64(rng.Intn(16)))
			v := s.Process(h, 0) // panics on Inv(2) violation
			if want := tbl.Lookup(h).Action; v.Action != want {
				t.Fatalf("trial %d: verdict %v, table says %v", trial, v.Action, want)
			}
		}
		// Cached-region soundness: every header covered by a cached entry
		// classifies (via the table) to the entry's action.
		for _, e := range s.MFC().Entries() {
			for a := uint64(0); a < 8; a++ {
				for b := uint64(0); b < 16; b++ {
					h := hyp2(a, b)
					if !bitvec.Covers(e.Key, e.Mask, h) {
						continue
					}
					if want := tbl.Lookup(h).Action; e.Action != want {
						t.Fatalf("trial %d: entry %s caches %v but table says %v for %03b|%04b",
							trial, bitvec.FormatMasked(l, e.Key, e.Mask), e.Action, want, a, b)
					}
				}
			}
		}
	}
}

func TestGeneratorCoverInvariant(t *testing.T) {
	// Inv(1): the generated entry always covers the sparking packet.
	gen, err := NewGenerator(flowtable.Fig4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 16; b++ {
			h := hyp2(a, b)
			e := gen.Generate(h)
			if !bitvec.Covers(e.Key, e.Mask, h) {
				t.Errorf("entry for %03b|%04b does not cover it (Inv(1))", a, b)
			}
		}
	}
}

func TestPathString(t *testing.T) {
	if PathMicroflow.String() != "microflow" || PathMegaflow.String() != "megaflow" ||
		PathSlow.String() != "slowpath" || Path(9).String() != "Path(9)" {
		t.Error("Path names wrong")
	}
	if StrategyWildcard.String() != "wildcard" || StrategyExact.String() != "exact" ||
		Strategy(9).String() != "Strategy(9)" {
		t.Error("Strategy names wrong")
	}
}
