package tss

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// heldView is a snapshot a reader keeps while the writer moves on, with
// the entries it held when it was published, by key, and its group's slot
// table as it was then.
type heldView struct {
	sn    *snapshot
	want  map[string]*Entry
	g     *group
	slots []slot
}

// check fails unless the view's lookups over every key of keys and its
// dump return exactly the entries it held.
func (v *heldView) check(t *testing.T, keys []bitvec.Vec) bool {
	t.Helper()
	for _, k := range keys {
		if e, _, _ := v.sn.lookup(k, 0); e != v.want[k.Key()] {
			t.Errorf("snapshot of epoch %d: lookup of %x = %p, held %p", v.sn.epoch, k, e, v.want[k.Key()])
			return false
		}
	}
	es := v.sn.entries()
	if len(es) != len(v.want) {
		t.Errorf("snapshot of epoch %d dumps %d entries, held %d", v.sn.epoch, len(es), len(v.want))
		return false
	}
	for _, e := range es {
		if v.want[e.Key.Key()] == nil {
			t.Errorf("snapshot of epoch %d dumps %x, which it did not hold", v.sn.epoch, e.Key)
			return false
		}
	}
	return true
}

// TestInPlaceInsertIsolation checks the in-place install against the
// snapshots it writes under. The group is the exactEntries shape, one
// exact-match mask, grown to 2048 slots. Every key is chosen so that it
// sits in its home cell, which lets the test say which cells each install
// writes and keeps a removal from moving any other entry.
//
// The writer then takes the table a page of 64 cells at a time: it fills
// the page's empty cells in place, in one batch, and sweeps the page's
// entries out with DeleteWhere. The batch writes into the group every
// snapshot since the last sweep holds; the sweep clones the group, table
// and all, so every snapshot from before it keeps the page full and no
// later batch writes into its table. After every sweep each group the
// writer has replaced shares no storage with the current group's table
// and holds what it held when the last snapshot holding it was published.
//
// Readers hold every snapshot published on the way and, while the writer
// runs and once more after it, check that each answers every key and dumps
// exactly the entries it held: an install from a later epoch is never
// visible to it. Every lookup must return; a hung one fails the test on
// its deadline.
func TestInPlaceInsertIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		scan Scan
	}{{"ScanPruned", ScanPruned}, {"ScanLinear", ScanLinear}} {
		t.Run(tc.name, func(t *testing.T) { inPlaceInsertIsolation(t, tc.scan) })
	}
}

func inPlaceInsertIsolation(t *testing.T, scan Scan) {
	const (
		bits    = 11 // 2048 slots
		slots   = 1 << bits
		page    = 64
		pages   = slots / page
		initial = 800 // above 3/4 of 1024 slots, so the table has doubled to 2048
	)
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	dip, _ := l.FieldIndex("ip_dst")
	// byHome[i] is an exact key whose home cell in a 2048-slot table is i.
	byHome := make([]bitvec.Vec, slots)
	for v, found := uint64(0x0a000000), 0; found < slots; v++ {
		key := bitvec.NewVec(l)
		key.SetField(l, sip, v)
		key.SetField(l, dip, 1)
		if h := keyHash(key) & (slots - 1); byHome[h] == nil {
			byHome[h], found = key, found+1
		}
	}
	mk := func(home int) *Entry {
		return &Entry{Key: byHome[home], Mask: bitvec.FullMask(l), Action: flowtable.Drop, RuleName: "exact"}
	}

	c := New(l, Options{Scan: scan})
	live := map[string]*Entry{}
	home := map[*Entry]int{}
	var batch []*Entry
	for i := 0; i < initial; i++ {
		e := mk(i * slots / initial)
		batch = append(batch, e)
		live[e.Key.Key()], home[e] = e, i*slots/initial
	}
	mustInsertBatch(t, c, batch, 0)
	g := c.groupOf(bitvec.FullMask(l))
	if g.slotBits != bits {
		t.Fatalf("group has %d slot bits, want %d", g.slotBits, bits)
	}
	for i := uint64(0); i < slots; i++ {
		if e := g.at(i).e; e != nil && home[e] != int(i) {
			t.Fatalf("entry homed at %d sits in cell %d", home[e], i)
		}
	}

	var mu sync.Mutex
	var held []*heldView
	hold := func() {
		v := &heldView{sn: c.snap.Load(), want: make(map[string]*Entry, len(live))}
		for k, e := range live {
			v.want[k] = e
		}
		if v.g = v.sn.groupOf(bitvec.FullMask(l)); v.g != nil {
			v.slots = slices.Clone(v.g.slots)
		}
		mu.Lock()
		held = append(held, v)
		mu.Unlock()
	}
	hold()
	// retired checks every group the writer has replaced: walking back
	// from the last hold, the first view of each is the last snapshot that
	// published it. It returns how many there are, or -1 on a failure.
	retired := func() int {
		cur := c.groupOf(bitvec.FullMask(l))
		seen := map[*group]bool{}
		for i := len(held) - 1; i >= 0; i-- {
			v := held[i]
			if v.g == nil || v.g == cur || seen[v.g] {
				continue
			}
			seen[v.g] = true
			if cur != nil && unsafe.SliceData(v.g.slots) == unsafe.SliceData(cur.slots) {
				t.Errorf("snapshot of epoch %d: its group shares the current group's slot table", v.sn.epoch)
				return -1
			}
			if !slices.Equal(v.g.slots, v.slots) {
				t.Errorf("snapshot of epoch %d: its group's slot table changed after its last publish", v.sn.epoch)
				return -1
			}
		}
		return len(seen)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				v := held[i%len(held)]
				mu.Unlock()
				if !v.check(t, byHome) {
					return
				}
			}
		}(r)
	}

	installed := c.Stats().SlotsCopied
	for p := 0; p < pages; p++ {
		batch = batch[:0]
		for i := p * page; i < (p+1)*page; i++ {
			if live[byHome[i].Key()] == nil {
				e := mk(i)
				batch = append(batch, e)
				live[e.Key.Key()], home[e] = e, i
			}
		}
		mustInsertBatch(t, c, batch, int64(p))
		if got := c.Stats().SlotsCopied; got != installed {
			t.Errorf("page %d: filling it in place copied %d slots", p, got-installed)
		}
		hold()
		swept := c.DeleteWhere(func(e *Entry) bool { return home[e]/page == p })
		if swept != page {
			t.Errorf("page %d: swept %d entries, want %d", p, swept, page)
		}
		for i := p * page; i < (p+1)*page; i++ {
			delete(live, byHome[i].Key())
		}
		installed = c.Stats().SlotsCopied
		hold()
		// Readers still run: stop them before the test ends.
		if n := retired(); n != p+1 {
			t.Errorf("page %d: %d retired groups checked, want one per sweep, %d", p, n, p+1)
			break
		}
	}
	close(done)

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		readers.Wait()
		for _, v := range held {
			if !v.check(t, byHome) {
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("a lookup over a held snapshot did not return")
	}
}

// TestInPlaceInsertStaleRecord covers the probe mirror's side of an
// in-place install. A snapshot keeps the chunk it was published with, and
// a later write elsewhere in the chunk makes the writer copy it, so the
// old chunk's record of a kindFilter group stops taking the group's new
// stage-0 bits. The old snapshot's lookup of a later install's key then
// bails on that record, a skip the group alone would not make; it must
// still miss, and the current snapshot must hit. checkScan holds both to
// the group-by-group reference.
func TestInPlaceInsertStaleRecord(t *testing.T) {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	dp, _ := l.FieldIndex("tp_dst")
	c := New(l, Options{Scan: ScanLinear})
	mask := bitvec.PrefixMask(l, sip, 24).Or(bitvec.PrefixMask(l, dp, 16))
	exact := func(src uint64) *Entry {
		key := bitvec.NewVec(l)
		key.SetField(l, sip, src<<8)
		key.SetField(l, dp, 80)
		return &Entry{Key: key, Mask: mask, Action: flowtable.Allow}
	}
	other := func() *Entry {
		key := bitvec.NewVec(l)
		key.SetField(l, dp, 443)
		return &Entry{Key: key, Mask: bitvec.FieldMask(l, dp), Action: flowtable.Drop}
	}
	mustInsertBatch(t, c, []*Entry{exact(1), exact(2), other()}, 0)
	g := c.groupOf(mask)
	ci, k := c.locateLocked(g)
	if c.dir[ci].hot[k].kind != kindFilter {
		t.Fatalf("the two-entry group's record is kind %d, want kindFilter", c.dir[ci].hot[k].kind)
	}
	old := c.snap.Load()
	// A refresh of the other group copies the chunk both records share.
	if err := c.Insert(other(), 1); err != nil {
		t.Fatal(err)
	}
	y := exact(3)
	copied := c.Stats().SlotsCopied
	if err := c.Insert(y, 2); err != nil {
		t.Fatal(err)
	}
	if c.groupOf(mask) != g || c.Stats().SlotsCopied != copied {
		t.Fatal("the install into the two-entry group was not made in place")
	}
	if fp := g.sparse.HashRange(y.Key, 0, int(g.stageOff[1])); (*stageFilter)(&old.chunks[ci].side[k].w).has(fp) {
		t.Fatal("the old record already has the install's stage-0 bit; the test shows nothing")
	}
	for _, sn := range []*snapshot{old, c.snap.Load()} {
		e, probes, skips, _ := c.def.lookupSnap(sn, y.Key, 2)
		checkScan(t, c, sn, nil, y.Key, e, probes, skips)
		if want := sn != old; (e == y) != want {
			t.Errorf("snapshot of epoch %d: lookup of the install's key = %v, want a hit: %v", sn.epoch, e, want)
		}
	}
}

// heldIndexView is a snapshot a reader keeps while the writer moves on,
// with what it answered when it was published: each header's lookup, the
// number of candidate groups its walk handed out, and its dump.
type heldIndexView struct {
	sn    *snapshot
	hs    []bitvec.Vec
	want  []BatchResult
	walks []int
	dump  []string
}

func (v *heldIndexView) answer(i int) (BatchResult, int) {
	e, probes, _ := v.sn.lookup(v.hs[i], 0)
	return BatchResult{Entry: e, Probes: probes, OK: e != nil}, v.sn.missProbes(v.hs[i])
}

// dumpOf lists sn's dump, one string per entry: its key, mask and action.
func dumpOf(sn *snapshot) []string {
	var d []string
	for _, e := range sn.entries() {
		d = append(d, fmt.Sprintf("%x/%x:%v", e.Key, e.Mask, e.Action))
	}
	return d
}

// check fails unless the view answers every header as it did; dump also
// compares its dump.
func (v *heldIndexView) check(t *testing.T, dump bool) bool {
	t.Helper()
	for i := range v.hs {
		if got, walk := v.answer(i); got != v.want[i] || walk != v.walks[i] {
			t.Errorf("snapshot of epoch %d: header %x answers %+v after %d candidates, held %+v after %d",
				v.sn.epoch, v.hs[i], got, walk, v.want[i], v.walks[i])
			return false
		}
	}
	if dump && !slices.Equal(dumpOf(v.sn), v.dump) {
		t.Errorf("snapshot of epoch %d dumps other entries than it held", v.sn.epoch)
		return false
	}
	return true
}

// TestIndexAppendIsolation checks the pruning index's writes against the
// snapshots they write under, one row per way a write changes a leaf's
// refs. Every row holds a snapshot after each of its writes, with its
// answers for the row's headers, and readers check the held snapshots
// while the writer runs; every one is checked once more after it. Each
// must return the same entry with the same probes for every header, hand
// out the same number of candidate groups from its walk, and dump exactly
// the entries it held.
//
//   - ramp: the 8 192 attack masks, one Insert each, with an exact group
//     growing alongside, deletes, reinstalls of deleted entries, refreshes
//     and a sweep: refs appended behind their leaves' published counts.
//   - second entry and doubling: copies of a group that only add an entry,
//     stored over the group in its ref in place; the snapshot before holds
//     the copy, and skips the entry on its epoch.
//   - refresh and partial sweep: clones stored into a copy of the path, so
//     the snapshot before keeps the group it was published with.
//   - rebuild after sweep: a sweep empties leaves, and a mask on new fields
//     then rebuilds the tree from what is left.
func TestIndexAppendIsolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, c *Classifier, hold func(hs []bitvec.Vec))
	}{
		{"ramp", indexRamp},
		{"second entry", func(t *testing.T, c *Classifier, hold func([]bitvec.Vec)) {
			es, hs := prefixFamily(40)
			mustInsertBatch(t, c, es, 0)
			hold(hs)
			for _, e := range es[:8] {
				e2 := secondEntry(e)
				hs = append(hs, e2.Key)
				checkInPlace(t, c, e.Mask, true, func() { mustInsertBatch(t, c, []*Entry{e2}, 1) })
				hold(hs)
			}
		}},
		{"doubling", func(t *testing.T, c *Classifier, hold func([]bitvec.Vec)) {
			es, hs := prefixFamily(40)
			mustInsertBatch(t, c, es, 0)
			ex := exactEntries(bitvec.IPv4Tuple, 30)
			for _, e := range ex {
				hs = append(hs, e.Key)
			}
			hold(hs)
			full := bitvec.FullMask(bitvec.IPv4Tuple)
			copies, doublings := 0, 0
			for _, e := range ex {
				sn, old := c.snap.Load(), c.groupOf(full)
				mustInsertBatch(t, c, []*Entry{e}, 1)
				if g := c.groupOf(full); old != nil && g != old {
					if sn.groupOf(full) != g {
						t.Fatalf("the copy of a %d-entry group is not in the snapshot before it", old.n)
					}
					copies++
					if old.slots != nil {
						doublings++
					}
				}
				hold(hs)
			}
			if copies != 4 || doublings != 3 {
				t.Fatalf("%d copies, %d of them doublings; want 4, 3", copies, doublings)
			}
		}},
		{"refresh", func(t *testing.T, c *Classifier, hold func([]bitvec.Vec)) {
			es, hs := prefixFamily(40)
			ex := exactEntries(bitvec.IPv4Tuple, 10)
			mustInsertBatch(t, c, append(slices.Clone(es), ex...), 0)
			for _, e := range ex {
				hs = append(hs, e.Key)
			}
			hold(hs)
			for i, e := range append(es[:8:8], ex[:4]...) {
				checkInPlace(t, c, e.Mask, false, func() { mustInsertBatch(t, c, []*Entry{fresh(e, flowtable.Allow)}, int64(1+i)) })
				hold(hs)
			}
		}},
		{"partial sweep", func(t *testing.T, c *Classifier, hold func([]bitvec.Vec)) {
			es, hs := prefixFamily(20)
			var seconds []*Entry
			for _, e := range es {
				seconds = append(seconds, secondEntry(e))
				hs = append(hs, seconds[len(seconds)-1].Key)
			}
			ex := exactEntries(bitvec.IPv4Tuple, 30)
			for _, e := range ex {
				hs = append(hs, e.Key)
			}
			mustInsertBatch(t, c, slices.Concat(es, seconds, ex), 0)
			hold(hs)
			// Each round takes some entries out of groups it leaves
			// nonempty: the group of mask is one of them.
			for _, r := range []struct {
				mask bitvec.Vec
				pick func(i int) []*Entry
			}{
				{es[0].Mask, func(i int) []*Entry { return []*Entry{seconds[i*2%20]} }},
				{bitvec.FullMask(bitvec.IPv4Tuple), func(i int) []*Entry { return []*Entry{ex[i*3%30]} }},
				{es[1].Mask, func(i int) []*Entry { return []*Entry{es[(i*4+1)%20], ex[(i*3+1)%30]} }},
			} {
				victims := map[*Entry]bool{}
				for i := range 10 {
					for _, e := range r.pick(i) {
						victims[e] = true
					}
				}
				checkInPlace(t, c, r.mask, false, func() { c.DeleteWhere(func(e *Entry) bool { return victims[e] }) })
				hold(hs)
			}
		}},
		{"rebuild after sweep", func(t *testing.T, c *Classifier, hold func([]bitvec.Vec)) {
			es, hs := prefixFamily(40)
			ex := exactEntries(bitvec.IPv4Tuple, 4)
			for _, e := range ex {
				hs = append(hs, e.Key)
			}
			mustInsertBatch(t, c, es, 0)
			hold(hs)
			// Fifteen groups, each alone in its leaf.
			victims := map[*Entry]bool{}
			for i, e := range es {
				victims[e] = i%16 < 5
			}
			c.DeleteWhere(func(e *Entry) bool { return victims[e] })
			hold(hs)
			levels := len(c.snap.Load().prune.levels)
			for i, e := range ex {
				mustInsertBatch(t, c, []*Entry{e, es[i]}, 1)
				hold(hs)
			}
			if got := len(c.snap.Load().prune.levels); got <= levels {
				t.Fatalf("%d tree levels after an exact mask, %d before", got, levels)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkIndexIsolation(t, tc.write) })
	}
}

// prefixFamily returns n ≤ 64 one-entry groups: entry i on ip_src /1+i%32,
// from the 33rd on with tp_src exactly too, and on tp_dst 1000+i exactly,
// so they are pairwise disjoint and disjoint from exactEntries; and
// headers: each key and a near miss.
func prefixFamily(n int) (es []*Entry, hs []bitvec.Vec) {
	for i := range n {
		e := soloEntry(1+i%32, uint64(0x0a000000+i*0x01010101), uint64(i/32*2000), 1000+uint64(i), flowtable.Drop)
		es, hs = append(es, e), append(hs, e.Key, flipSrc(e.Key))
	}
	return es, hs
}

// flipSrc returns key with the first bit of ip_src flipped.
func flipSrc(key bitvec.Vec) bitvec.Vec {
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	h := key.Clone()
	h.FlipFieldBit(l, sip, 0)
	return h
}

// secondEntry returns an entry for e's group, disjoint from e by the first
// bit of ip_src.
func secondEntry(e *Entry) *Entry {
	return &Entry{Key: flipSrc(e.Key), Mask: e.Mask, Action: flowtable.Allow, RuleName: "second"}
}

// checkInPlace runs write and fails t unless it gave mask a new group and
// stored it over the old one in the ref the snapshot before it holds
// (inPlace), or left that snapshot the old group.
func checkInPlace(t *testing.T, c *Classifier, mask bitvec.Vec, inPlace bool, write func()) {
	t.Helper()
	sn, old := c.snap.Load(), c.groupOf(mask)
	write()
	g := c.groupOf(mask)
	if g == old || (sn.groupOf(mask) == g) != inPlace {
		t.Fatalf("the write of %s: new group %v, the snapshot before holds it %v; want %v",
			mask.Format(c.layout), g != old, sn.groupOf(mask) == g, inPlace)
	}
}

// checkIndexIsolation runs write on a new pruned IPv4Tuple classifier.
// hold keeps the current snapshot with its answers for hs; two readers
// check the held snapshots while write runs, and every one is checked
// once more, dump and all, after it.
func checkIndexIsolation(t *testing.T, write func(t *testing.T, c *Classifier, hold func(hs []bitvec.Vec))) {
	c := New(bitvec.IPv4Tuple, Options{})
	var mu sync.Mutex
	var held []*heldIndexView
	hold := func(hs []bitvec.Vec) {
		v := &heldIndexView{sn: c.snap.Load(), hs: slices.Clone(hs)}
		for i := range v.hs {
			got, walk := v.answer(i)
			v.want, v.walks = append(v.want, got), append(v.walks, walk)
		}
		v.dump = dumpOf(v.sn)
		mu.Lock()
		held = append(held, v)
		mu.Unlock()
	}

	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	var readers sync.WaitGroup
	defer func() { stop(); readers.Wait() }() // also when write fails t
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				n := len(held)
				mu.Unlock()
				if n == 0 {
					continue
				}
				mu.Lock()
				v := held[i%n]
				mu.Unlock()
				if !v.check(t, false) {
					return
				}
			}
		}(r)
	}
	write(t, c, hold)
	stop()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		readers.Wait()
		for _, v := range held {
			if !v.check(t, true) {
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("a lookup over a held snapshot did not return")
	}
	checkPruneIndex(t, c, c.snap.Load())
}

// indexRamp ramps the classifier through the 8 192 attack masks, one
// Insert per mask, and every 16th install adds a key to one exact-match
// group, which takes it through its second entry and its doublings. Every
// 128 installs it installs again the attack entry it deleted 128 installs
// before, which keeps the install epoch the older snapshots held it under
// but takes a new ref, refreshes the entry it has just installed, and
// deletes an attack entry and an exact one (a removal, and a clone of the
// exact group). Halfway it sweeps out one key-hash class. Every 256
// installs it holds the snapshot with its answers for keys installed by
// then, keys still to come and near misses.
func indexRamp(t *testing.T, c *Classifier, hold func(hs []bitvec.Vec)) {
	l := bitvec.IPv4Tuple
	attack := attackEntries(l, 32*16*16)
	exact := exactEntries(l, len(attack)/16)
	sip, _ := l.FieldIndex("ip_src")
	rng := rand.New(rand.NewSource(5))
	headers := func(installed int) []bitvec.Vec {
		var hs []bitvec.Vec
		for k := 0; k < 24; k++ {
			var h bitvec.Vec
			switch k % 4 {
			case 0: // an attack key installed by now, or since removed
				h = attack[rng.Intn(installed)].Key.Clone()
			case 1: // an attack key still to come, once the ramp has any left
				h = attack[rng.Intn(len(attack))].Key.Clone()
				if installed < len(attack) {
					h = attack[installed+rng.Intn(len(attack)-installed)].Key.Clone()
				}
			case 2: // an exact key, installed or not
				h = exact[rng.Intn(len(exact))].Key.Clone()
			default: // a near miss of an attack key
				h = attack[rng.Intn(len(attack))].Key.Clone()
				h.SetFieldBit(l, sip, rng.Intn(32))
			}
			hs = append(hs, h)
		}
		return hs
	}

	mustInsert := func(e *Entry, now int64) {
		t.Helper()
		if err := c.Insert(e, now); err != nil {
			t.Fatalf("insert %s: %v", e.Format(l), err)
		}
	}
	nExact, holds := 0, 0
	inst := make([]*Entry, len(attack)) // the entry installed for each mask
	var gone *Entry                     // the attack entry deleted last
	for i, e := range attack {
		now := int64(i)
		inst[i] = fresh(e, flowtable.Drop)
		mustInsert(inst[i], now)
		if i%16 == 15 {
			mustInsert(fresh(exact[nExact], flowtable.Allow), now)
			nExact++
		}
		if i%128 == 127 {
			if gone != nil {
				mustInsert(gone, now)
			}
			mustInsert(inst[i], now) // a refresh: the same entry again
			// Either may be gone already, to the sweep or an earlier delete.
			x := exact[rng.Intn(nExact)]
			gone = inst[i-rng.Intn(128)]
			deleteEntry(c, gone.Key, gone.Mask)
			deleteEntry(c, x.Key, x.Mask)
		}
		if i == len(attack)/2 {
			c.DeleteWhere(func(e *Entry) bool { return keyHash(e.Key)%7 == 0 })
		}
		if i%256 == 255 {
			hold(headers(i + 1))
			holds++
		}
	}
	if holds != len(attack)/256 {
		t.Fatalf("held %d snapshots, want %d", holds, len(attack)/256)
	}
}
