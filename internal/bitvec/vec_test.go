package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLayoutErrors(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
	}{
		{"empty", nil},
		{"zero width", []Field{{Name: "a", Width: 0}}},
		{"negative width", []Field{{Name: "a", Width: -1}}},
		{"oversized", []Field{{Name: "a", Width: MaxFieldWidth + 1}}},
		{"dup name", []Field{{Name: "a", Width: 3}, {Name: "a", Width: 4}}},
		{"empty name", []Field{{Name: "", Width: 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewLayout(c.fields...); err == nil {
				t.Fatalf("NewLayout(%v) succeeded, want error", c.fields)
			}
		})
	}
}

func TestLayoutAccessors(t *testing.T) {
	l := HYP2
	if got := l.Bits(); got != 7 {
		t.Errorf("Bits() = %d, want 7", got)
	}
	if got := l.Words(); got != 1 {
		t.Errorf("Words() = %d, want 1", got)
	}
	if got := l.NumFields(); got != 2 {
		t.Errorf("NumFields() = %d, want 2", got)
	}
	if got := l.FieldOffset(1); got != 3 {
		t.Errorf("FieldOffset(1) = %d, want 3", got)
	}
	if i, ok := l.FieldIndex("HYP2"); !ok || i != 1 {
		t.Errorf("FieldIndex(HYP2) = %d,%v, want 1,true", i, ok)
	}
	if _, ok := l.FieldIndex("nope"); ok {
		t.Error("FieldIndex(nope) found a field")
	}
	if got := l.String(); got != "HYP:3,HYP2:4" {
		t.Errorf("String() = %q", got)
	}
	if got := IPv6Tuple.Bits(); got != 296 {
		t.Errorf("IPv6Tuple.Bits() = %d, want 296", got)
	}
	if got := IPv6Tuple.Words(); got != 5 {
		t.Errorf("IPv6Tuple.Words() = %d, want 5", got)
	}
}

func TestSetFieldRoundTrip(t *testing.T) {
	l := IPv4Tuple
	v := NewVec(l)
	vals := []uint64{0x0a000001, 0xc0a80101, 6, 34521, 443}
	for f, val := range vals {
		v.SetField(l, f, val)
	}
	for f, want := range vals {
		if got := v.FieldUint64(l, f); got != want {
			t.Errorf("field %d = %#x, want %#x", f, got, want)
		}
	}
	// Overwrite one field; neighbours must be untouched.
	v.SetField(l, 2, 17)
	if got := v.FieldUint64(l, 1); got != vals[1] {
		t.Errorf("neighbour field 1 corrupted: %#x", got)
	}
	if got := v.FieldUint64(l, 3); got != vals[3] {
		t.Errorf("neighbour field 3 corrupted: %#x", got)
	}
	if got := v.FieldUint64(l, 2); got != 17 {
		t.Errorf("field 2 = %d, want 17", got)
	}
}

func TestSetFieldTruncates(t *testing.T) {
	l := HYP
	v := NewVec(l)
	v.SetField(l, 0, 0xff) // only low 3 bits kept
	if got := v.FieldUint64(l, 0); got != 7 {
		t.Errorf("FieldUint64 = %d, want 7", got)
	}
}

func TestFieldBytesRoundTrip(t *testing.T) {
	l := IPv6Tuple
	v := NewVec(l)
	addr := make([]byte, 16)
	for i := range addr {
		addr[i] = byte(i*17 + 1)
	}
	v.SetFieldBytes(l, 0, addr)
	got := v.FieldBytes(l, 0)
	for i := range addr {
		if got[i] != addr[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], addr[i])
		}
	}
	// The next field must still be zero.
	if v.FieldBytes(l, 1)[0] != 0 || v.FieldUint64(l, 2) != 0 {
		t.Error("neighbouring fields corrupted")
	}
}

func TestMSBFirstBitOrder(t *testing.T) {
	l := HYP
	v := NewVec(l)
	v.SetField(l, 0, 0b100)
	if !v.FieldBit(l, 0, 0) {
		t.Error("bit 0 (MSB) should be set for value 100b")
	}
	if v.FieldBit(l, 0, 2) {
		t.Error("bit 2 (LSB) should be clear for value 100b")
	}
}

func TestPrefixMask(t *testing.T) {
	l := HYP2
	m := PrefixMask(l, 1, 2) // two MSBs of HYP2
	if got := m.Format(l); got != "000|1100" {
		t.Errorf("PrefixMask = %s, want 000|1100", got)
	}
	if got := m.OnesCount(); got != 2 {
		t.Errorf("OnesCount = %d, want 2", got)
	}
	if got := FieldMask(l, 0).Format(l); got != "111|0000" {
		t.Errorf("FieldMask = %s", got)
	}
	if got := FullMask(l).OnesCount(); got != 7 {
		t.Errorf("FullMask bits = %d, want 7", got)
	}
}

func TestPrefixMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PrefixMask with bad length did not panic")
		}
	}()
	PrefixMask(HYP, 0, 4)
}

func TestCoversFig1(t *testing.T) {
	// Fig. 1 of the paper: flow "001/111" matches header 001 and nothing
	// else; "***" (zero mask) matches everything.
	l := HYP
	key, mask := MustPattern(l, "001")
	h := NewVec(l)
	for val := uint64(0); val < 8; val++ {
		h.SetField(l, 0, val)
		want := val == 1
		if got := Covers(key, mask, h); got != want {
			t.Errorf("Covers(001/111, %03b) = %v, want %v", val, got, want)
		}
		anyKey, anyMask := MustPattern(l, "***")
		if !Covers(anyKey, anyMask, h) {
			t.Errorf("wildcard rule must cover %03b", val)
		}
	}
}

func TestOverlapPaperExample(t *testing.T) {
	// §4.1: installing the Fig. 1 flow table as-is into the MFC is invalid
	// because 001/111 and ***/000 overlap (packet 001 matches both).
	l := HYP
	k1, m1 := MustPattern(l, "001")
	k2, m2 := MustPattern(l, "***")
	if !Overlap(k1, m1, k2, m2) {
		t.Error("001/111 and */000 must overlap")
	}
	// Fig. 3's constructed entries are pairwise disjoint.
	pats := []string{"001", "1**", "01*", "000"}
	for i := range pats {
		for j := range pats {
			if i == j {
				continue
			}
			ka, ma := MustPattern(l, pats[i])
			kb, mb := MustPattern(l, pats[j])
			if Overlap(ka, ma, kb, mb) {
				t.Errorf("Fig. 3 entries %s and %s overlap", pats[i], pats[j])
			}
		}
	}
}

func TestOverlapSymmetric(t *testing.T) {
	l := IPv4Tuple
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		k1, m1 := randomEntry(l, rng)
		k2, m2 := randomEntry(l, rng)
		if Overlap(k1, m1, k2, m2) != Overlap(k2, m2, k1, m1) {
			t.Fatal("Overlap is not symmetric")
		}
	}
}

// randomEntry builds a random valid key/mask pair (key ⊆ mask).
func randomEntry(l *Layout, rng *rand.Rand) (key, mask Vec) {
	key, mask = NewVec(l), NewVec(l)
	for b := 0; b < l.Bits(); b++ {
		if rng.Intn(2) == 1 {
			mask.SetBit(b)
			if rng.Intn(2) == 1 {
				key.SetBit(b)
			}
		}
	}
	return key, mask
}

func TestOverlapWitnessProperty(t *testing.T) {
	// Property: if two entries overlap, the canonical witness header
	// (k1 | k2, filling unconstrained bits with 0) matches both.
	l := IPv4Tuple
	rng := rand.New(rand.NewSource(42))
	overlapsSeen := 0
	for n := 0; n < 2000; n++ {
		k1, m1 := randomEntry(l, rng)
		k2, m2 := randomEntry(l, rng)
		if !Overlap(k1, m1, k2, m2) {
			continue
		}
		overlapsSeen++
		w := k1.Or(k2)
		if !Covers(k1, m1, w) || !Covers(k2, m2, w) {
			t.Fatalf("witness %s does not match both entries", w.Format(l))
		}
	}
	if overlapsSeen == 0 {
		t.Skip("no overlaps sampled; widen the generator")
	}
}

func TestSubsetOf(t *testing.T) {
	l := HYP2
	p2 := PrefixMask(l, 0, 2)
	p3 := PrefixMask(l, 0, 3)
	if !p2.SubsetOf(p3) {
		t.Error("2-bit prefix should be subset of 3-bit prefix")
	}
	if p3.SubsetOf(p2) {
		t.Error("3-bit prefix should not be subset of 2-bit prefix")
	}
	if !p2.SubsetOf(p2) {
		t.Error("mask should be subset of itself")
	}
}

func TestBitwiseOps(t *testing.T) {
	l := HYP2
	a := NewVec(l)
	b := NewVec(l)
	a.SetField(l, 0, 0b101)
	b.SetField(l, 0, 0b011)
	if got := a.And(b).FieldUint64(l, 0); got != 0b001 {
		t.Errorf("And = %03b", got)
	}
	if got := a.Or(b).FieldUint64(l, 0); got != 0b111 {
		t.Errorf("Or = %03b", got)
	}
	if got := a.AndNot(b).FieldUint64(l, 0); got != 0b100 {
		t.Errorf("AndNot = %03b", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	l := HYP
	a := NewVec(l)
	a.SetField(l, 0, 5)
	c := a.Clone()
	c.SetField(l, 0, 2)
	if got := a.FieldUint64(l, 0); got != 5 {
		t.Errorf("Clone aliases original: %d", got)
	}
}

func TestKeyUniqueness(t *testing.T) {
	l := IPv4Tuple
	seen := make(map[string]uint64)
	v := NewVec(l)
	for i := uint64(0); i < 1000; i++ {
		v.SetField(l, 0, i)
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("values %d and %d share a Key", prev, i)
		}
		seen[k] = i
	}
}

// TestAppendKey pins Key's byte layout (each word little-endian, in word
// order), checks AppendKey produces the same bytes after any prefix, and
// checks a map read through a reused AppendKey buffer does not allocate.
func TestAppendKey(t *testing.T) {
	v := Vec{0x0807060504030201, 0x100f0e0d0c0b0a09}
	want := "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"
	if got := v.Key(); got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	rng := rand.New(rand.NewSource(3))
	for _, l := range []*Layout{HYP, IPv4Tuple, IPv6Tuple} {
		v := NewVec(l)
		for i := range v {
			v[i] = rng.Uint64()
		}
		if got := string(v.AppendKey([]byte("pre"))); got != "pre"+v.Key() {
			t.Errorf("%s: AppendKey = %q, want %q", l, got, "pre"+v.Key())
		}
	}
	m := map[string]int{v.Key(): 1}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = v.AppendKey(buf[:0])
		if m[string(buf)] != 1 {
			t.Fatal("lookup through AppendKey missed")
		}
	}); allocs != 0 {
		t.Errorf("map read through AppendKey: %v allocations, want 0", allocs)
	}
}

func TestHashSpread(t *testing.T) {
	l := IPv4Tuple
	seen := make(map[uint64]bool)
	v := NewVec(l)
	for i := uint64(0); i < 1000; i++ {
		v.SetField(l, 4, i)
		seen[v.Hash()] = true
	}
	if len(seen) < 990 {
		t.Errorf("hash collisions too frequent: %d distinct of 1000", len(seen))
	}
}

func TestNonzeroWords(t *testing.T) {
	v := make(Vec, 4)
	if got := v.NonzeroWords(); len(got) != 0 {
		t.Errorf("NonzeroWords(zero) = %v, want empty", got)
	}
	v[1], v[3] = 5, 1
	got := v.NonzeroWords()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("NonzeroWords = %v, want [1 3]", got)
	}
}

func TestKeyHashPositionSensitive(t *testing.T) {
	a := Vec{0xdead, 0}
	b := Vec{0, 0xdead}
	if KeyHash(a) == KeyHash(b) {
		t.Error("KeyHash ignores word position")
	}
	// Zero words contribute nothing: padding with zero words preserves the
	// hash — the property HashMasked's word-skipping relies on.
	if KeyHash(a) != KeyHash(Vec{0xdead}) {
		t.Error("KeyHash of zero-padded vector differs")
	}
}

func TestMaskedPrimitivesAgainstMaterialised(t *testing.T) {
	l := IPv4Tuple
	rng := rand.New(rand.NewSource(99))
	for n := 0; n < 500; n++ {
		h, m := NewVec(l), NewVec(l)
		for i := range h {
			h[i] = rng.Uint64()
			// Bias masks sparse so the zero-word skip path is exercised.
			if rng.Intn(3) == 0 {
				m[i] = rng.Uint64()
			}
		}
		trim(l, h)
		trim(l, m)
		words := m.NonzeroWords()
		masked := h.And(m)
		if got, want := HashMasked(h, m, words), KeyHash(masked); got != want {
			t.Fatalf("HashMasked = %#x, KeyHash(h AND m) = %#x", got, want)
		}
		key := masked.Clone()
		if !EqualMasked(key, h, m, words) {
			t.Fatal("EqualMasked(h AND m, h, m) = false")
		}
		sp, ok := NewSparseMask(m)
		if !ok {
			t.Fatal("IPv4Tuple mask must fit a SparseMask inline")
		}
		if sp.Hash(h) != KeyHash(masked) {
			t.Fatal("SparseMask.Hash disagrees with KeyHash")
		}
		if !sp.EqualKey(key, h) {
			t.Fatal("SparseMask.EqualKey(h AND m, h) = false")
		}
		// Perturb one covered key bit: equality must now fail everywhere.
		if len(words) > 0 {
			w := words[0]
			key[w] ^= m[w] & -m[w] // flip the mask's lowest covered bit
			if EqualMasked(key, h, m, words) || sp.EqualKey(key, h) {
				t.Fatal("masked equality ignored a covered-bit difference")
			}
		}
	}
}

func TestSparseMaskFallback(t *testing.T) {
	// A mask with more nonzero words than the inline capacity must refuse.
	wide := make(Vec, SparseMaskInline+2)
	for i := range wide {
		wide[i] = 1
	}
	if _, ok := NewSparseMask(wide); ok {
		t.Errorf("mask with %d nonzero words fit inline (cap %d)", len(wide), SparseMaskInline)
	}
	if sp, ok := NewSparseMask(make(Vec, 3)); !ok {
		t.Error("all-zero mask should fit inline")
	} else if sp.Hash(Vec{1, 2, 3}) != 0 {
		t.Error("all-wildcard SparseMask hash should be 0 for any header")
	}
}

func TestFormatMasked(t *testing.T) {
	l := HYP2
	key, mask := MustPattern(l, "01*|1111")
	if got := FormatMasked(l, key, mask); got != "01*|1111" {
		t.Errorf("FormatMasked = %q", got)
	}
	key2, mask2 := MustPattern(l, "1**0***")
	if got := FormatMasked(l, key2, mask2); got != "1**|0***" {
		t.Errorf("FormatMasked = %q", got)
	}
}

func TestParsePatternErrors(t *testing.T) {
	if _, _, err := ParsePattern(HYP, "0011"); err == nil {
		t.Error("wrong-length pattern accepted")
	}
	if _, _, err := ParsePattern(HYP, "0x1"); err == nil {
		t.Error("bad char accepted")
	}
}

func TestFormatWideField(t *testing.T) {
	l := IPv6Tuple
	v := NewVec(l)
	addr := make([]byte, 16)
	addr[0] = 0x20
	addr[1] = 0x01
	addr[15] = 0x01
	v.SetFieldBytes(l, 0, addr)
	s := v.Format(l)
	if len(s) == 0 || s[0] != '2' {
		t.Errorf("wide-field hex format wrong: %q", s)
	}
}

// Property: Covers(h&m, m, h) holds for every header/mask pair — the
// megaflow key derived from a packet always matches that packet (Inv(1)).
func TestCoverInvariantQuick(t *testing.T) {
	l := IPv4Tuple
	f := func(hw, mw [2]uint64) bool {
		h, m := NewVec(l), NewVec(l)
		copy(h, hw[:])
		copy(m, mw[:])
		// Trim bits beyond the layout width so vectors stay canonical.
		trim(l, h)
		trim(l, m)
		key := h.And(m)
		return Covers(key, m, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Overlap is reflexive for any valid entry (an entry overlaps
// itself) and anything overlaps the all-wildcard entry.
func TestOverlapReflexiveQuick(t *testing.T) {
	l := IPv4Tuple
	zero := NewVec(l)
	f := func(hw, mw [2]uint64) bool {
		h, m := NewVec(l), NewVec(l)
		copy(h, hw[:])
		copy(m, mw[:])
		trim(l, h)
		trim(l, m)
		key := h.And(m)
		return Overlap(key, m, key, m) && Overlap(key, m, zero, zero)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func trim(l *Layout, v Vec) {
	for b := l.Bits(); b < len(v)*64; b++ {
		v.ClearBit(b)
	}
}

func BenchmarkCovers(b *testing.B) {
	l := IPv4Tuple
	key, mask := NewVec(l), NewVec(l)
	h := NewVec(l)
	h.SetField(l, 0, 0x0a000001)
	mask.SetField(l, 0, 0xffffffff)
	key.SetField(l, 0, 0x0a000001)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Covers(key, mask, h) {
			b.Fatal("must cover")
		}
	}
}

// TestStageBoundaries pins the staged-lookup word ranges of the standard
// layouts: the IPv4 5-tuple splits into an L3 word and an L3/L4 tail word,
// the IPv6 5-tuple into four address words and the proto+ports word, and
// the single-word toy layouts cannot stage at all.
func TestStageBoundaries(t *testing.T) {
	cases := []struct {
		l    *Layout
		want []int
	}{
		{IPv4Tuple, []int{1, 2}},
		{IPv6Tuple, []int{4, 5}},
		{HYP, []int{1}},
		{HYP2, []int{1}},
	}
	for _, c := range cases {
		got := c.l.StageBoundaries()
		if len(got) != len(c.want) {
			t.Errorf("%s: boundaries = %v, want %v", c.l, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: boundaries = %v, want %v", c.l, got, c.want)
				break
			}
		}
	}
	// The final boundary is always the word count, and mutating the copy
	// must not corrupt the layout.
	b := IPv4Tuple.StageBoundaries()
	if b[len(b)-1] != IPv4Tuple.Words() {
		t.Errorf("final boundary = %d, want Words() = %d", b[len(b)-1], IPv4Tuple.Words())
	}
	b[0] = 99
	if IPv4Tuple.StageBoundaries()[0] != 1 {
		t.Error("StageBoundaries returned aliased internal state")
	}
}

// TestHashRangePartition is the incremental-hash property staged lookup
// rests on: for any split points, the XOR of HashRange over the segments
// equals the full Hash, and the final accumulated value equals the full
// fingerprint KeyHash(h AND m).
func TestHashRangePartition(t *testing.T) {
	l := IPv6Tuple
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		h, m := NewVec(l), NewVec(l)
		for i := range h {
			h[i] = rng.Uint64()
			if rng.Intn(3) > 0 {
				m[i] = rng.Uint64()
			}
		}
		trim(l, h)
		trim(l, m)
		sp, ok := NewSparseMask(m)
		if !ok {
			t.Fatal("IPv6Tuple mask must fit inline")
		}
		full := sp.Hash(h)
		n := sp.N()
		// Random partition of [0, n).
		var cuts []int
		for k := 1; k < n; k++ {
			if rng.Intn(2) == 0 {
				cuts = append(cuts, k)
			}
		}
		cuts = append(cuts, n)
		var acc uint64
		from := 0
		for _, to := range cuts {
			acc ^= sp.HashRange(h, from, to)
			from = to
		}
		if acc != full {
			t.Fatalf("partition hash %#x != full hash %#x (cuts %v)", acc, full, cuts)
		}
		if full != KeyHash(h.And(m)) {
			t.Fatalf("full hash %#x != KeyHash(h AND m)", full)
		}
		// MixWord agrees with the internal mixer through KeyHash: a vector
		// with one nonzero word hashes to exactly that word's mix.
		one := NewVec(l)
		w := rng.Uint64() | 1
		one[2] = w
		if KeyHash(one) != MixWord(w, 2) {
			t.Fatal("MixWord disagrees with KeyHash on a single-word vector")
		}
	}
}

// TestSparseMaskAccessors checks the slot accessors agree with
// NonzeroWords on the masks the classifier builds.
func TestSparseMaskAccessors(t *testing.T) {
	l := IPv4Tuple
	m := NewVec(l)
	m.SetField(l, 0, 0xffff0000) // ip_src prefix: word 0
	m.SetField(l, 4, 0xffff)     // tp_dst: word 1
	sp, ok := NewSparseMask(m)
	if !ok {
		t.Fatal("mask must fit inline")
	}
	words := m.NonzeroWords()
	if sp.N() != len(words) {
		t.Fatalf("N() = %d, want %d", sp.N(), len(words))
	}
	for k, wi := range words {
		if sp.WordIndex(k) != wi {
			t.Errorf("WordIndex(%d) = %d, want %d", k, sp.WordIndex(k), wi)
		}
		if sp.MaskWord(k) != m[wi] {
			t.Errorf("MaskWord(%d) = %#x, want %#x", k, sp.MaskWord(k), m[wi])
		}
	}
}
