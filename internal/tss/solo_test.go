package tss

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// soloEntry builds an IPv4Tuple entry constraining ip_src to its first
// srcLen bits of src, tp_src to sp and tp_dst to dp (a port of 0 leaves
// the field wildcarded).
func soloEntry(srcLen int, src uint64, sp, dp uint64, a flowtable.Action) *Entry {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	spf, _ := l.FieldIndex("tp_src")
	dpf, _ := l.FieldIndex("tp_dst")
	mask := bitvec.PrefixMask(l, sip, srcLen)
	key := bitvec.NewVec(l)
	key.SetField(l, sip, src)
	if sp != 0 {
		mask = mask.Or(bitvec.FieldMask(l, spf))
		key.SetField(l, spf, sp)
	}
	if dp != 0 {
		mask = mask.Or(bitvec.FieldMask(l, dpf))
		key.SetField(l, dpf, dp)
	}
	return &Entry{Key: key.And(mask), Mask: mask, Action: a, RuleName: "solo"}
}

// snapLookup is a lookup of h over snapshot sn.
func snapLookup(sn *snapshot, h bitvec.Vec) *Entry {
	e, _, _ := sn.lookup(h, 0)
	return e
}

// TestSoloGroupLifecycle walks a group without a slot table through every
// write under both scans: a one-entry group is its solo entry alone (no
// table, no stage filters, no word list); a refresh clones it without
// copying a slot, and the clone goes into a copy of its tree path, so the
// held snapshot keeps the original; a second entry, installed while older
// snapshots are held, gives the copy its table and filters, and the copy
// is stored over the held group, unchanged, in its leaf's ref, where the
// held snapshots skip the new entry on its epoch; the overlap check
// confirms against the solo entry, by its masked probe and by the full
// comparison; a sweep drops it, emptying its leaf, and takes an entry out
// of the other group through a path copy; the survivor takes a second
// entry again and doubles, each copy stored in place; and a mask on a new
// field rebuilds the tree. Every snapshot keeps answering, and dumping,
// exactly what it was published with, and hands out as many candidate
// groups for every header as it did then.
func TestSoloGroupLifecycle(t *testing.T) {
	for _, scan := range []Scan{ScanPruned, ScanLinear} {
		t.Run(map[Scan]string{ScanPruned: "pruned", ScanLinear: "linear"}[scan], func(t *testing.T) {
			c := New(bitvec.IPv4Tuple, Options{Scan: scan})
			a := soloEntry(16, 0xc0010000, 0, 80, flowtable.Drop)
			n := soloEntry(8, 0x0b000000, 1000, 0, flowtable.Drop)
			a2 := fresh(a, flowtable.Allow)
			b := soloEntry(16, 0xc0020000, 0, 80, flowtable.Drop)
			var more []*Entry // a's mask on more /16s: enough to double b's group
			for i := uint64(3); i < 10; i++ {
				more = append(more, soloEntry(16, 0xc0000000|i<<16, 0, 80, flowtable.Drop))
			}
			// dst constrains ip_dst, which no other mask does.
			l := bitvec.IPv4Tuple
			dip, _ := l.FieldIndex("ip_dst")
			dst := soloEntry(0, 0, 0, 443, flowtable.Allow)
			dst.Mask = dst.Mask.Or(bitvec.FieldMask(l, dip))
			dst.Key.SetField(l, dip, 0x08080808)
			headers := append([]*Entry{a, n, b, dst}, more...)

			// held is a snapshot with the entries it holds and the
			// candidate groups its walk hands out for each header.
			type held struct {
				name  string
				sn    *snapshot
				live  []*Entry
				walks []int
			}
			var rows []held
			hold := func(name string, live ...*Entry) *snapshot {
				sn := c.snap.Load()
				h := held{name: name, sn: sn, live: live}
				for _, x := range headers {
					h.walks = append(h.walks, sn.missProbes(x.Key))
				}
				rows = append(rows, h)
				return sn
			}

			mustInsertBatch(t, c, []*Entry{a, n}, 0)
			g := c.groupOf(a.Mask)
			if g.slots != nil || g.filters != nil || g.words != nil || g.solo != a || g.n != 1 || !g.frozen {
				t.Fatalf("one-entry group: slots %d, filters %d, words %v, solo %v, n %d, frozen %v; want the solo entry alone",
					len(g.slots), len(g.filters), g.words, g.solo == a, g.n, g.frozen)
			}
			s1 := hold("initial", a, n)

			// A refresh clones the group and copies no slot.
			before := c.Stats()
			if err := c.Insert(a2, 1); err != nil {
				t.Fatal(err)
			}
			g2 := c.groupOf(a.Mask)
			if d := ledgerDelta(before, c.Stats()); g2 == g || g2.slots != nil || g2.solo != a2 || d.slotsCopied != 0 {
				t.Fatalf("refresh: new group %v, slots %d, solo %v, %d slots copied; want a tableless clone holding the new entry",
					g2 != g, len(g2.slots), g2.solo == a2, d.slotsCopied)
			}
			if g.solo != a || s1.groupOf(a.Mask) != g {
				t.Fatal("refresh rewrote the published group's solo entry or its snapshot's ref")
			}
			s2 := hold("refresh", a2, n)

			// A second entry builds the table and the filters, in a copy.
			if err := c.Insert(b, 2); err != nil {
				t.Fatal(err)
			}
			g3 := c.groupOf(a.Mask)
			switch {
			case g3 == g2 || len(g3.slots) != 1<<minSlotBits || g3.n != 2 || g3.solo != nil:
				t.Fatalf("second entry: new group %v, %d slots, n %d, solo %v; want a copy with the first table",
					g3 != g2, len(g3.slots), g3.n, g3.solo)
			case len(g3.stageOff) > 2 && len(g3.filters) != len(g3.stageOff)-2:
				t.Fatalf("second entry: %d stage filters for %d stage offsets", len(g3.filters), len(g3.stageOff))
			case g3.find(a.Key) != a2 || g3.find(b.Key) != b:
				t.Fatal("second entry: the table does not hold both entries")
			}
			for _, e := range []*Entry{a2, b} {
				if len(g3.stageOff) > 2 && !g3.filters[0].has(g3.sparse.HashRange(e.Key, 0, int(g3.stageOff[1]))) {
					t.Fatalf("%s is missing from the stage-0 filter", e.Format(c.layout))
				}
			}
			// The copy took g2's ref in place (s2 skips b on its epoch); g2
			// itself is as s2 published it.
			if s2.groupOf(a.Mask) != g3 || g2.slots != nil || g2.solo != a2 || g2.n != 1 {
				t.Fatal("the second entry's copy did not replace the one-entry group in place, or changed it")
			}
			s3 := hold("second entry", a2, n, b)

			// The overlap check against the tableless group n: a mask that
			// holds n's (one masked probe of the solo entry) and one that
			// does not (the full comparison).
			for _, tc := range []struct {
				e        *Entry
				compared uint64
			}{
				{soloEntry(8, 0x0b000000, 1000, 443, flowtable.Allow), 0},
				{soloEntry(4, 0x00000000, 1000, 0, flowtable.Allow), 1},
			} {
				before := c.Stats()
				var ov *ErrOverlap
				if err := c.Insert(tc.e, 3); !errors.As(err, &ov) || ov.Existing != n {
					t.Fatalf("overlap of %s: %v, want ErrOverlap naming the solo entry", tc.e.Format(c.layout), err)
				}
				if d := ledgerDelta(before, c.Stats()); d.overlapCompared != tc.compared || d.publishes != 0 {
					t.Fatalf("overlap of %s: %d entries compared, %d publishes; want %d, 0",
						tc.e.Format(c.layout), d.overlapCompared, d.publishes, tc.compared)
				}
			}

			// A sweep drops n's group whole, emptying its leaf, and takes a2
			// out of g3's table, in a clone on a copied path.
			if got := c.DeleteWhere(func(e *Entry) bool { return e == n || e == a2 }); got != 2 {
				t.Fatalf("sweep removed %d, want 2", got)
			}
			if c.groupOf(n.Mask) != nil {
				t.Fatal("the swept one-entry group is still in the mask directory")
			}
			g4 := c.groupOf(a.Mask)
			if g4.n != 1 || g4.solo != b || g4.find(b.Key) != b || g4.find(a.Key) != nil {
				t.Fatalf("swept group: n %d, solo %v; want b alone", g4.n, g4.solo)
			}
			if s3.groupOf(a.Mask) != g3 || s3.groupOf(n.Mask) == nil {
				t.Fatal("the sweep rewrote a ref of the snapshot before it")
			}
			hold("partial sweep", b)

			// The survivor takes a second entry again, then doubles: every
			// copy is stored over the group its snapshots hold.
			live := []*Entry{b}
			doubled := 0
			for i, e := range more {
				prev, sn := c.groupOf(a.Mask), c.snap.Load()
				if err := c.Insert(e, int64(4+i)); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
				ng := c.groupOf(a.Mask)
				if ng.slotBits > prev.slotBits && prev.slots != nil {
					doubled++
				}
				if sn.groupOf(a.Mask) != ng {
					t.Fatalf("install %d: the snapshot before it does not hold the group's copy", i)
				}
				hold(fmt.Sprintf("install %d", i), slices.Clone(live)...)
			}
			if doubled != 1 {
				t.Fatalf("%d doublings, want 1", doubled)
			}

			// A mask on ip_dst makes it a tree level: the tree is rebuilt
			// over what the sweep left.
			levels := len(c.snap.Load().prune.levels)
			if err := c.Insert(dst, 20); err != nil {
				t.Fatal(err)
			}
			if got := len(c.snap.Load().prune.levels); got != levels+1 {
				t.Fatalf("%d tree levels after a mask on a new field, want %d", got, levels+1)
			}
			hold("rebuild", append(slices.Clone(live), dst)...)

			for _, r := range rows {
				for i, h := range headers {
					var want *Entry
					for _, x := range r.live {
						if x.Key.Equal(h.Key) && x.Mask.Equal(h.Mask) {
							want = x
						}
					}
					if got := snapLookup(r.sn, h.Key); got != want {
						t.Errorf("%s: lookup of %s = %v, want %v", r.name, h.Format(c.layout), got, want)
					}
					if got := r.sn.missProbes(h.Key); got != r.walks[i] {
						t.Errorf("%s: %d candidate groups for %s, %d when held", r.name, got, h.Format(c.layout), r.walks[i])
					}
				}
				es := r.sn.entries()
				for _, e := range es {
					if !slices.ContainsFunc(r.live, func(x *Entry) bool {
						return e.Key.Equal(x.Key) && e.Mask.Equal(x.Mask) && e.Action == x.Action
					}) {
						t.Errorf("%s: dumps %s, which it does not hold", r.name, e.Format(c.layout))
					}
				}
				if len(es) != len(r.live) {
					t.Errorf("%s: dumps %d entries, holds %d", r.name, len(es), len(r.live))
				}
			}
			if got := c.Entries(); len(got) != len(live)+1 {
				t.Errorf("Entries lists %d entries, want %d", len(got), len(live)+1)
			}
			checkPruneIndex(t, c, c.snap.Load())
		})
	}
}

// TestMaskHashTies plants masks under one hash, so the mask directory
// files all but one as ties and OrderHash orders them by their words
// alone. Lookup, install, refresh, the overlap check, delete and the scan
// order must stay exact under both scans.
func TestMaskHashTies(t *testing.T) {
	const planted = 0x9e3779b97f4a7c15
	es := []*Entry{
		soloEntry(8, 0x0a000000, 0, 0, flowtable.Drop),
		soloEntry(8, 0x0b000000, 0, 80, flowtable.Allow),
		soloEntry(16, 0x0c010000, 0, 0, flowtable.Drop),
		soloEntry(24, 0x0d010100, 1000, 0, flowtable.Drop),
	}
	// byWords is the masks' OrderHash order when every hash ties.
	byWords := slices.Clone(es)
	slices.SortFunc(byWords, func(x, y *Entry) int { return compareKeys(x.Mask, y.Mask) })
	position := func(e *Entry) int {
		return slices.IndexFunc(byWords, func(x *Entry) bool { return x.Mask.Equal(e.Mask) }) + 1
	}
	for _, scan := range []Scan{ScanPruned, ScanLinear} {
		t.Run(map[Scan]string{ScanPruned: "pruned", ScanLinear: "linear"}[scan], func(t *testing.T) {
			c := New(bitvec.IPv4Tuple, Options{Scan: scan})
			c.maskHash = func(bitvec.Vec) uint64 { return planted }
			live := slices.Clone(es)
			for i, e := range live {
				live[i] = fresh(e, e.Action)
				if err := c.Insert(live[i], int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step string) {
				t.Helper()
				if got := len(c.byMask.list()); got != len(live) {
					t.Fatalf("%s: directory holds %d groups, want %d", step, got, len(live))
				}
				if got := len(c.byMask.first); got != 1 {
					t.Fatalf("%s: %d hashes filed, want the one planted", step, got)
				}
				for _, e := range live {
					if g := c.groupOf(e.Mask); g == nil || !g.mask.Equal(e.Mask) || g.find(e.Key) != e {
						t.Fatalf("%s: the directory does not file %s", step, e.Format(c.layout))
					}
					got, probes, _ := c.Lookup(e.Key, 0)
					if got != e {
						t.Fatalf("%s: lookup of %s = %v", step, e.Format(c.layout), got)
					}
					if want := position(e) - countGone(byWords, live, position(e)); scan == ScanLinear && probes != want {
						t.Fatalf("%s: lookup of %s took %d probes, want its scan position %d", step, e.Format(c.layout), probes, want)
					}
				}
				got := c.Entries()
				for i := 1; i < len(got); i++ {
					if compareKeys(got[i-1].Mask, got[i].Mask) >= 0 {
						t.Fatalf("%s: Entries is not in mask-word order at %d", step, i)
					}
				}
				checkPruneIndex(t, c, c.snap.Load())
			}
			check("install")

			// A refresh finds the tied group, not the first filed.
			r := fresh(live[2], flowtable.Allow)
			if err := c.Insert(r, 5); err != nil {
				t.Fatal(err)
			}
			live[2] = r
			check("refresh")

			// The overlap check names the first overlapping group in
			// mask-word order: a tp_dst 80 entry overlaps every group
			// that leaves tp_dst open or holds 80.
			var ov *ErrOverlap
			wide := soloEntry(0, 0, 0, 80, flowtable.Allow)
			if err := c.Insert(wide, 6); !errors.As(err, &ov) || ov.Existing != firstOf(byWords, live) {
				t.Fatalf("overlap: %v, want the group first in mask-word order", err)
			}

			// Deleting the first-filed group promotes a tie; reinstalling
			// files it as a tie.
			first := c.byMask.first[planted]
			gone := slices.IndexFunc(live, func(e *Entry) bool { return e.Mask.Equal(first.mask) })
			if !deleteEntry(c, live[gone].Key, live[gone].Mask) {
				t.Fatal("delete of the first-filed group failed")
			}
			back := live[gone]
			live = slices.Delete(live, gone, gone+1)
			check("delete")
			back = fresh(back, back.Action)
			if err := c.Insert(back, 7); err != nil {
				t.Fatal(err)
			}
			live = append(live, back)
			check("reinstall")
			if c.byMask.first[planted].mask.Equal(back.Mask) {
				t.Fatal("the reinstalled mask took first's place from a live group")
			}
			for _, e := range slices.Clone(live) {
				if !deleteEntry(c, e.Key, e.Mask) {
					t.Fatalf("delete of %s failed", e.Format(c.layout))
				}
				live = slices.DeleteFunc(live, func(x *Entry) bool { return x == e })
				if len(live) > 0 {
					check("drain")
				}
			}
			if len(c.byMask.first) != 0 || len(c.byMask.ties) != 0 {
				t.Fatalf("drained directory holds %d hashes and %d tie lists", len(c.byMask.first), len(c.byMask.ties))
			}
		})
	}
}

// countGone returns how many masks of order before position pos have no
// live entry: they are not in the scan.
func countGone(order, live []*Entry, pos int) int {
	n := 0
	for _, e := range order[:pos-1] {
		if !slices.ContainsFunc(live, func(x *Entry) bool { return x.Mask.Equal(e.Mask) }) {
			n++
		}
	}
	return n
}

// firstOf returns the live entry of the first mask of order that has one.
func firstOf(order, live []*Entry) *Entry {
	for _, e := range order {
		if i := slices.IndexFunc(live, func(x *Entry) bool { return x.Mask.Equal(e.Mask) }); i >= 0 {
			return live[i]
		}
	}
	return nil
}

// TestMaskHashTiesFuzzCorpus runs FuzzClassifierOps' committed corpus with
// planted hash ties: every mask under one hash, and masks spread over
// three. The reference orders masks by the same hash, so every check of
// the fuzz target, on lookups, installs, refreshes, deletes, sweeps, scan
// positions, dumps and held snapshots, holds the tie paths to it.
func TestMaskHashTiesFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzClassifierOps")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var corpus [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		corpus = append(corpus, []byte(data))
	}
	for name, h := range map[string]func(bitvec.Vec) uint64{
		"one":   func(bitvec.Vec) uint64 { return 1 },
		"three": func(m bitvec.Vec) uint64 { return m.Hash() % 3 },
	} {
		t.Run(name, func(t *testing.T) {
			for _, data := range corpus {
				classifierOps(t, data, h)
			}
		})
	}
}
