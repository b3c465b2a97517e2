package tss

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// pinFamily describes one disjoint family of entries: for every (i, k) in
// is × ks, the mask src/i | tag/tagLen | dp/k | extra (i == 0 or k == 0
// leaves that field out) holding per entries. Each key is "0…01" up to the
// prefix end in src and dp, carries tag in the top byte of the tag field
// and its entry index in the byte after, and is zero under extra. Masks of
// one family differ in src or dp, where their keys disagree; families
// differ in tag; so every family set is pairwise disjoint.
type pinFamily struct {
	tag     int
	tagLen  int
	is, ks  []int
	per     int
	extraOf []string // fields whose first bit every mask of the family adds
}

// span returns from, from+step, ... up to to.
func span(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

// entries builds the family over l with src, tag and dp naming its fields.
func (f pinFamily) entries(l *bitvec.Layout, src, tag, dp string) []*Entry {
	field := func(name string) int {
		i, ok := l.FieldIndex(name)
		if !ok {
			panic("no field " + name)
		}
		return i
	}
	fs, ft, fd := field(src), field(tag), field(dp)
	extra := bitvec.NewVec(l)
	for _, name := range f.extraOf {
		extra = extra.Or(bitvec.PrefixMask(l, field(name), 1))
	}
	var out []*Entry
	for _, i := range f.is {
		for _, k := range f.ks {
			mask := bitvec.PrefixMask(l, ft, f.tagLen).Or(extra)
			if i > 0 {
				mask = mask.Or(bitvec.PrefixMask(l, fs, i))
			}
			if k > 0 {
				mask = mask.Or(bitvec.PrefixMask(l, fd, k))
			}
			for v := 0; v < f.per; v++ {
				key := bitvec.NewVec(l)
				if i > 0 {
					key.SetFieldBit(l, fs, i-1)
				}
				if k > 0 {
					key.SetFieldBit(l, fd, k-1)
				}
				for b := 0; b < 8; b++ {
					if f.tag>>(7-b)&1 == 1 {
						key.SetFieldBit(l, ft, b)
					}
					if v>>(7-b)&1 == 1 {
						key.SetFieldBit(l, ft, 8+b)
					}
				}
				out = append(out, &Entry{Key: key.And(mask), Mask: mask, Action: flowtable.Drop,
					RuleName: fmt.Sprintf("f%d-%d-%d-%d", f.tag, i, k, v)})
			}
		}
	}
	return out
}

// wideLayout has eight 64-bit words, seven L3 and one L4, so a mask can
// have more nonzero words than a SparseMask holds inline.
var wideLayout = bitvec.MustLayout(
	bitvec.Field{Name: "ip_w0", Width: 64}, bitvec.Field{Name: "ip_w1", Width: 64},
	bitvec.Field{Name: "ip_w2", Width: 64}, bitvec.Field{Name: "ip_w3", Width: 64},
	bitvec.Field{Name: "ip_w4", Width: 64}, bitvec.Field{Name: "ip_w5", Width: 64},
	bitvec.Field{Name: "ip_w6", Width: 64}, bitvec.Field{Name: "tp_w7", Width: 64},
)

// scanPinCase is one attack-shaped classifier of TestScanCountPins.
type scanPinCase struct {
	name         string
	l            *bitvec.Layout
	src, tag, dp string
	fams         []pinFamily
}

// scanPinCases cover every shape a scan record can take: one-entry groups
// of one, two and three or more nonzero words; multi-entry groups whose
// first stage is one word, whose first stage is wider, and that are not
// staged at all; and masks too wide for the inline sparse view.
var scanPinCases = []scanPinCase{
	{name: "ipv4", l: bitvec.IPv4Tuple, src: "ip_src", tag: "ip_dst", dp: "tp_dst", fams: []pinFamily{
		{tag: 1, tagLen: 8, is: span(1, 32, 1), ks: []int{0}, per: 1},       // one word
		{tag: 2, tagLen: 8, is: span(1, 32, 1), ks: span(1, 16, 1), per: 1}, // two words
		{tag: 3, tagLen: 16, is: span(1, 32, 3), ks: span(1, 16, 5), per: 3},
		{tag: 4, tagLen: 16, is: span(1, 32, 2), ks: []int{0}, per: 3}, // one word, unstaged
	}},
	{name: "ipv6", l: bitvec.IPv6Tuple, src: "ip6_src", tag: "ip6_dst", dp: "tp_dst", fams: []pinFamily{
		{tag: 1, tagLen: 8, is: span(1, 64, 3), ks: []int{0}, per: 1},         // two L3 words
		{tag: 2, tagLen: 8, is: span(65, 128, 4), ks: span(1, 16, 3), per: 1}, // four words
		{tag: 3, tagLen: 8, is: span(1, 64, 4), ks: span(1, 16, 2), per: 1},   // three words
		{tag: 4, tagLen: 16, is: []int{0}, ks: span(1, 16, 1), per: 3},        // first stage one word
		{tag: 5, tagLen: 16, is: span(1, 64, 8), ks: span(1, 16, 4), per: 3},  // first stage two words
		{tag: 6, tagLen: 8, is: []int{0}, ks: []int{0}, per: 1},               // one word
	}},
	{name: "wide", l: wideLayout, src: "ip_w0", tag: "ip_w6", dp: "tp_w7", fams: []pinFamily{
		{tag: 1, tagLen: 16, is: span(1, 16, 1), ks: span(1, 4, 1), per: 1,
			extraOf: []string{"ip_w1", "ip_w2", "ip_w3", "ip_w4", "ip_w5"}}, // eight words
		{tag: 2, tagLen: 16, is: span(1, 16, 2), ks: span(1, 4, 1), per: 2,
			extraOf: []string{"ip_w1", "ip_w2", "ip_w3", "ip_w4", "ip_w5"}},
		{tag: 3, tagLen: 8, is: span(1, 16, 1), ks: span(1, 8, 1), per: 1}, // three words
		{tag: 4, tagLen: 16, is: []int{0}, ks: span(1, 8, 1), per: 3},      // first stage one word
		{tag: 5, tagLen: 8, is: span(1, 16, 1), ks: []int{0}, per: 1},      // two L3 words
	}},
}

// build installs the case's families into a classifier with the given
// scan and returns it with the installed entries.
func (tc scanPinCase) build(t testing.TB, scan Scan) (*Classifier, []*Entry) {
	c := New(tc.l, Options{Scan: scan})
	var es []*Entry
	for _, f := range tc.fams {
		es = append(es, f.entries(tc.l, tc.src, tc.tag, tc.dp)...)
	}
	mustInsertBatch(t, c, es, 0)
	return c, es
}

// headers returns the case's seeded replay set: random headers (nearly all
// misses), then per entry a hit with random wildcarded bits and three near
// misses flipping its first, last and a random mask bit.
func (tc scanPinCase) headers(es []*Entry, seed int64) []bitvec.Vec {
	l := tc.l
	rng := rand.New(rand.NewSource(seed))
	random := func() bitvec.Vec {
		h := bitvec.NewVec(l)
		for i := range h {
			h[i] = rng.Uint64()
		}
		for b := l.Bits(); b < len(h)*64; b++ {
			h.ClearBit(b)
		}
		return h
	}
	var hs []bitvec.Vec
	for i := 0; i < 300; i++ {
		hs = append(hs, random())
	}
	for _, e := range es {
		var bits []int
		for b := 0; b < l.Bits(); b++ {
			if e.Mask.Bit(b) {
				bits = append(bits, b)
			}
		}
		hit := random().AndNot(e.Mask).Or(e.Key)
		hs = append(hs, hit)
		for _, b := range []int{bits[0], bits[len(bits)-1], bits[rng.Intn(len(bits))]} {
			nm := hit.Clone()
			if nm.Bit(b) {
				nm.ClearBit(b)
			} else {
				nm.SetBit(b)
			}
			hs = append(hs, nm)
		}
	}
	return hs
}

// TestScanCountPins pins the staged scan's exact work, Stats.Probes and
// Stats.StageSkips, on a seeded header replay against classifiers holding
// every scan-record shape, and checks every verdict against a brute-force
// scan of the installed entries. Like TestWorkLedgerPins, the counts
// repeat exactly on any host: a change to how a probe is decided that
// skips a different set of probes, or probes a different number of masks,
// fails here. Each case is pinned under the staged linear scan and under
// the pruned lookup; the "wide" layout has no field narrow enough to
// prune, so its pruned lookup walks every group in tree order. The ipv6
// and wide ScanPruned rows moved (75 274 / 70 690 → 75 168 / 70 584 and
// 202 496 → 201 914 probes) when a cache of 16 masks or fewer came to be
// pruned too: the index is built from the first mask, so its first groups
// take their tree places in insertion order rather than in the
// probe mirror's hash order at the 17th mask, and a hit is reached after
// a different number of candidates.
func TestScanCountPins(t *testing.T) {
	want := map[string]map[Scan][2]uint64{ // probes, stage skips
		"ipv4": {ScanLinear: {1249835, 1125496}, ScanPruned: {4439, 22}},
		"ipv6": {ScanLinear: {420266, 391192}, ScanPruned: {75168, 70584}},
		"wide": {ScanLinear: {223348, 144603}, ScanPruned: {201914, 114158}},
	}
	kinds := map[uint8]int{}
	wide := 0
	for _, tc := range scanPinCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, scan := range []Scan{ScanLinear, ScanPruned} {
				c, es := tc.build(t, scan)
				if c.EntryCount() != len(es) {
					t.Fatalf("%d entries installed, want %d", c.EntryCount(), len(es))
				}
				// The record-kind census reads the probe mirror, which only
				// the linear scan keeps.
				for _, ch := range c.dir {
					for k, p := range ch.hot {
						kinds[p.kind]++
						if !ch.side[k].g.sparseOK {
							wide++
						}
					}
				}
				if scan == ScanPruned && c.dir != nil {
					t.Fatalf("pruned classifier of %d masks keeps a probe mirror", c.MaskCount())
				}
				for i, h := range tc.headers(es, 7) {
					got, _, ok := c.Lookup(h, 0)
					var ref *Entry
					for _, e := range es {
						if bitvec.Covers(e.Key, e.Mask, h) {
							ref = e
							break
						}
					}
					if got != ref || ok != (ref != nil) {
						t.Fatalf("scan %d, header %d %s: lookup %v, brute force %v", scan, i, h.Format(tc.l), got, ref)
					}
				}
				s := c.Stats()
				if got := [2]uint64{s.Probes, s.StageSkips}; got != want[tc.name][scan] {
					t.Errorf("scan %d, %d masks: probes, skips = %v, want %v", scan, c.MaskCount(), got, want[tc.name][scan])
				}
			}
		})
	}
	for kind := kindSolo1; kind <= kindGroup; kind++ {
		if kinds[kind] == 0 {
			t.Errorf("no case holds a record of kind %d", kind)
		}
	}
	if wide == 0 {
		t.Error("no case holds a mask too wide for the inline sparse view")
	}
}

// TestGroupFootprint guards the small groups an attack spawns by the
// thousand: a group stays in its 208-byte size class, and an Insert that
// creates a new one-entry group makes a fixed number of allocations (the
// integer part of the mean over 300 installs, a few of which double their
// leaf's ref array): the group, its mask's copy, its stage offsets and the
// published snapshot. The group has no slot table and no stage filters
// until a second entry arrives, no word list (only a mask too wide for the
// inline sparse view keeps one) and no mask key string (the mask directory
// files it by its hash); those made 9. None is a copy of the pruning index:
// the group's ref lands in spare room of its leaf, and the snapshot holds
// the index's view by value. None is
// the probe mirror's: ScanPruned keeps no mirror, so the insert copies no
// chunk's two record arrays and no snapshot chunk directory. An Entry stays
// 96 bytes, a size class of its own: its install epoch took the word that
// narrowing Port and OutPort to int32 freed.
func TestGroupFootprint(t *testing.T) {
	if n := unsafe.Sizeof(group{}); n > 208 {
		t.Errorf("group is %d bytes, want <= 208", n)
	}
	if n := unsafe.Sizeof(Entry{}); n != 96 {
		t.Errorf("Entry is %d bytes, want 96", n)
	}
	l := bitvec.IPv4Tuple
	es := attackEntries(l, 4096+301)
	c := New(l, Options{})
	mustInsertBatch(t, c, es[:4096], 0)
	next := 4096
	allocs := testing.AllocsPerRun(300, func() {
		if err := c.Insert(es[next], 1); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 4 {
		t.Errorf("Insert of a new one-entry group: %v allocations, want 4", allocs)
	}
}

// TestScanRecordLayout guards the hot scan record: at most 24 bytes, and
// nothing in it the garbage collector would have to scan.
func TestScanRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(scanProbe{}); n > 24 {
		t.Errorf("scanProbe is %d bytes, want <= 24", n)
	}
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	typ := reflect.TypeOf(scanProbe{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("scanProbe.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}
