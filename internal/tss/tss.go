// Package tss implements the Tuple Space Search (TSS) packet classifier
// [Srinivasan, Suri, Varghese, SIGCOMM'99] as used by the megaflow cache
// (MFC) of Open vSwitch and other hypervisor switches (§2.2 of the paper).
//
// The classifier is an unordered set of key-mask pairs C = {(K, M)}. It
// maintains the list of distinct masks M (the "tuple space") and, for each
// mask M ∈ M, a hash table H_M storing the keys with that mask. Lookup
// (Alg. 1 in the paper's appendix) probes each mask in turn: apply M to the
// packet header, look the result up in H_M, return on the first hit.
//
// Because all entries are kept disjoint (independence invariant Inv(2),
// §3.2), the first hit is the only hit and lookup can early-exit. The cost
// of that simplification is the paper's central observation:
//
//	Observation 1. The time-complexity of TSS lookup grows linearly with
//	the number of distinct masks as O(|M|) and the space-complexity grows
//	linearly with the number of entries as O(|C|).
//
// The Tuple Space Explosion attack inflates |M|; see package vswitch for
// how the slow path's megaflow generation lets an adversary do that, and
// package core for the attack itself.
//
// Observation 1 is what the linear scan (ScanLinear) pays, and the
// paper's cost model prices its probes. The default lookup
// (ScanPruned) is the tuple pruning of the same TSS paper, which OVS's
// prefix tries also implement (§7): a per-field index of the installed
// prefix lengths and values leaves a header only the few groups that
// could match it, so an attack-inflated cache costs a lookup a handful of
// probes instead of thousands (prune.go). The pruned lookup returns the
// entry the linear scan returns; only its probe count differs.
//
// # Concurrency: copy-on-write snapshots
//
// The classifier's read path is lock-free. The scan state (mask order,
// per-mask subtables, inlined probe data) lives in a snapshot published
// through an atomic pointer, the Go equivalent of OVS's RCU cmap/pvector
// in dpcls: readers load the current snapshot and scan it without
// synchronisation, writers build the next snapshot under a mutex and
// publish it atomically. The snapshot also carries the pruning index.
// Installs are made in place, as OVS's cmap makes them: a new key
// installed into a published group of two or more entries fills an empty
// slot of the table that group already has, and a new group's tree ref
// fills spare room of its leaf that no snapshot reads yet (prune.go).
// Every publish carries an epoch, and every entry and tree ref
// the epoch it was installed in, so a reader of an older snapshot skips
// what was written in place after it and sees exactly its snapshot (see
// group). A retired snapshot lives until its last in-flight reader drops
// it; the garbage collector plays the role of the RCU grace period.
// Lookup statistics are sharded per reader handle so parallel PMD workers
// never contend on a shared counter cache line, and LookupBatch publishes
// a whole batch's counts with one add per counter.
//
// # Writes cost what they change
//
// Every write is priced by what it touches, not by |M| or |C|, because
// under the attack the writer runs once per flood packet. The linear scan's
// order lives in a probe mirror of 256-record chunks (mirror.go): a publish
// copies the chunk directory plus the chunks written since the last one.
// Only ScanLinear keeps the mirror: under ScanPruned an install copies no
// scan structure, as in OVS's dpcls. An install into a published
// multi-entry group copies nothing at all: it writes one slot and the
// stage filters' bits in place. Any other write to a published group
// copies the group, its one slot table whole. A group of one entry, the
// attack's one megaflow per mask, is one small object: its entry, no slot
// table and no stage filters until a second entry's copy builds them. The
// writer files groups by mask hash (maskDir), so an install builds no
// string key. No install copies any of the
// pruning index; a removal copies the index nodes on its path. The
// insert-time overlap check walks the pruning index, which leaves only the
// groups whose per-field values agree with the new entry, and confirms
// those survivors exactly. A sweep
// (DeleteWhere) makes one walk of the index's tree, or one pass over the
// mirror it compacts, and rebuilds each touched group's stage filters once.
// Stats.ProbesCopied, SlotsCopied, OverlapCompared and IndexCopied count
// that work exactly.
package tss

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// MaskOrder selects the order in which the linear scan (ScanLinear) walks
// the mask list; the pruned lookup ignores it. The paper's measurements
// (§5.4: "the flow completion time only increases half as high as the
// number of MFC masks") correspond to the victim's mask sitting at a
// uniformly random position in the scan, which OrderHash models
// deterministically. OrderInsertion is the kernel datapath's order, which
// Fig. 8c's scenario runs under.
type MaskOrder int

const (
	// OrderHash scans masks sorted by a hash of their bits: a stable,
	// adversary-independent order in which any particular mask lands at an
	// effectively uniform position. Default.
	OrderHash MaskOrder = iota
	// OrderInsertion scans masks oldest-first.
	OrderInsertion
)

// Scan selects the lookup's probe strategy.
type Scan int

const (
	// ScanPruned (default) probes only the groups the tuple-pruning index
	// leaves as candidates (prune.go), in index order, whatever the cache's
	// size; Order does not apply and no probe mirror is kept. Probes and
	// StageSkips count the groups actually probed.
	ScanPruned Scan = iota
	// ScanLinear is Algorithm 1: every mask in Order, first hit wins, each
	// probe with the staged early bail. A miss costs |M| probes — the
	// Observation 1 cost the paper's cost model prices.
	ScanLinear
)

// Entry is one megaflow: a disjoint key-mask pair with a cached action.
//
// Insert takes the entry over: it stamps LastUsed and, the first time the
// entry is installed anywhere, its epoch (see clock). From then on
// every field but LastUsed is immutable (a refresh installs a new entry in
// the old one's slot), so lookups read them lock-free. The struct is 96
// bytes, exactly a Go size class; a field that grows it costs every
// installed megaflow 16 bytes.
type Entry struct {
	// Key and Mask define the match (Key must equal Key AND Mask).
	Key bitvec.Vec
	// epoch is the stamp of the entry's first install (0 before it):
	// above every snapshot published before that install, so a snapshot
	// that finds the entry in a slot written in place after its publish
	// skips it. It sits beside Key, which a probe that reads it has just
	// loaded.
	epoch uint64
	Mask  bitvec.Vec
	// Action is the cached slow-path decision.
	Action flowtable.Action
	// OutPort is the destination for Forward actions.
	OutPort int32
	// Port is the ingress vport whose flow miss installed the entry
	// (0 for single-port deployments and direct inserts). The revalidator
	// aggregates its dump statistics by this field to drive per-port
	// adaptive upcall quotas: a port whose megaflow footprint explodes is
	// the one flooding the slow path.
	Port int32
	// RuleName records which flow-table rule generated the entry
	// (diagnostics and MFCGuard pattern matching).
	RuleName string
	// LastUsed is the virtual time of the last hit or the install time.
	// The simulator advances virtual time in seconds. Concurrent lookups
	// update it atomically, storing only when the time has moved. Entry
	// pointers are shared between successive snapshots, so the stamp
	// survives copy-on-write group clones.
	LastUsed int64
}

// Format renders the entry figure-style: "01*|1111 -> deny".
func (e *Entry) Format(l *bitvec.Layout) string {
	return fmt.Sprintf("%s -> %s", bitvec.FormatMasked(l, e.Key, e.Mask), e.Action)
}

// LastUsedAt atomically reads a live entry's last-used stamp. Sweep
// predicates (DeleteWhere, vswitch.SweepMegaflows deciders) run while
// lock-free lookups refresh the stamp, so they must read through this
// accessor; the copies returned by Entries carry plain values and may be
// read directly.
func (e *Entry) LastUsedAt() int64 { return atomic.LoadInt64(&e.LastUsed) }

// stageFilter is a 256-bit Bloom filter over the partial stage hashes of a
// group's entries: one bit per possible low byte of the running stage
// hash. A probe whose accumulated hash has no bit set can bail before
// touching the group's later-stage words or its slot table. False
// positives only cost the skipped early-exit; the final slot probe still
// confirms exactly. OVS's classifier keeps the same structure per subtable
// ("staged lookup" in lib/classifier.c).
//
// An install into a published group ORs its bits into the filter in
// place, so both sides are atomic: a reader that loads a word before the
// OR only misses a bit of an entry too new for its snapshot.
type stageFilter [4]uint64

func (f *stageFilter) add(h uint64) { atomic.OrUint64(&f[(h>>6)&3], 1<<(h&63)) }

func (f *stageFilter) has(h uint64) bool { return atomic.LoadUint64(&f[(h>>6)&3])>>(h&63)&1 == 1 }

// group is one tuple: a mask plus the hash table of keys sharing it,
// OVS-subtable style. Two precomputations make the lookup probe cheap: the
// inline sparse view of the mask, so hashing and comparing a header under
// the mask touches only the words the mask can constrain (miniflow-style
// sparsity) and never materialises the masked header; and entries live in
// one power-of-two open-addressing slot table (fingerprint + entry
// pointer, linear probing) rather than a Go map, so a probe is an array
// walk with no map-runtime calls and no allocation.
//
// A group of one entry, the shape the TSE attack makes by the thousand,
// is one small object: the entry is solo, and the group has no slot table
// and no stage filters (slots == nil) until a second entry arrives, since
// every probe of a one-entry group reads solo alone (probe, buildProbe).
// The table and the filters are built by the copy or the regrow the second
// entry's install makes anyway (put, regrow). A mask that does not fit the
// inline sparse view keeps its table from the start: its probe always
// walks the table, through words, the mask's nonzero word indices, which
// only such a group keeps.
//
// A published group (frozen == true) takes one write in place: the install
// of a new key into a group of two or more entries that stays within its
// 3/4 load. It fills an empty slot of the group's table and ORs the
// entry's bits into the stage filters, all atomically (see put and set); a
// reader of an older snapshot that meets the new entry skips it on its
// epoch (probeSlots). Every other write is copy-on-write: the one-entry
// group's second entry, a refresh and every removal clone the group,
// table and all, and a table doubling copies the entries into a new group
// (doubled), so the snapshots that hold the original keep its entries,
// slots and positions, and no later write reaches them. A copy that only
// adds a new key is published to the pruning index as soon as it is made
// (insertCopyLocked), so it is frozen from then on.
type group struct {
	// slots and sparse lead the struct so a lookup probe's loads stay
	// within the group's first cache lines.
	slots    []slot            // the open-addressing table, 1<<slotBits cells; nil while solo is the only entry
	sparse   bitvec.SparseMask // inline nonzero-word view of mask
	sparseOK bool              // mask fits inline; else use mask/words
	frozen   bool              // published in a snapshot; clone to mutate
	slotBits uint8             // the table has 1<<slotBits slots (0 without one)
	n        int32             // entries
	solo     *Entry            // the sole entry while n == 1, else nil

	// stageOff are the staged-lookup slot offsets: stage s covers sparse
	// slots [stageOff[s], stageOff[s+1]). nil (or a single effective
	// stage) means the group probes full width. filters[s] is the Bloom
	// filter of entry hashes accumulated through stage s (checked after
	// every stage but the last, which the slot table itself decides); it is
	// made with the table.
	stageOff []uint8
	filters  []stageFilter

	mask  bitvec.Vec
	hash  uint64 // hashMask(mask): the mask directory's key and the OrderHash sort key
	words []int  // nonzero word indices of mask, in order; !sparseOK only
}

// slot is one open-addressing cell: the key's fingerprint (keyHash) for a
// cheap first-pass reject, plus the entry. e == nil marks the cell empty.
// A writer filling a cell of a published group stores fp first and e
// last, and readers load e first, all atomically (set, load), so a reader
// that sees an entry sees its fingerprint.
type slot struct {
	fp uint64
	e  *Entry
}

// entryPtr is the address of s.e as atomic.LoadPointer and StorePointer
// take it.
func (s *slot) entryPtr() *unsafe.Pointer { return (*unsafe.Pointer)(unsafe.Pointer(&s.e)) }

// load reads the cell as a lock-free reader: an install may be filling it.
func (s *slot) load() (fp uint64, e *Entry) {
	e = (*Entry)(atomic.LoadPointer(s.entryPtr()))
	return atomic.LoadUint64(&s.fp), e
}

// minSlotBits keeps even two-entry groups probe-cheap without resizing on
// every early insert.
const minSlotBits = 3

// alloc gives the group an empty table of 1<<bits slots.
func (g *group) alloc(bits uint8) {
	g.slotBits, g.slots = bits, make([]slot, 1<<bits)
}

// newGroup builds an empty group for the (already cloned) mask, whose
// hash is hash. stages is the classifier's staged-lookup word boundary
// list (nil on a single-stage layout). A mask that fits the inline sparse
// view gets no table: its first entry is solo.
func newGroup(mask bitvec.Vec, hash uint64, stages []int) *group {
	g := &group{mask: mask, hash: hash}
	g.sparse, g.sparseOK = bitvec.NewSparseMask(mask)
	switch {
	case !g.sparseOK:
		g.words = mask.NonzeroWords()
		g.alloc(minSlotBits)
	case len(stages) > 1:
		g.stageOff = buildStageOff(&g.sparse, stages)
	}
	return g
}

// buildStageOff converts the layout's word-range stage boundaries into
// sparse-slot offsets for this mask, collapsing stages the mask has no
// words in. Returns nil when the mask effectively has a single stage (all
// its nonzero words fall in one range), in which case staging would be a
// full-width probe anyway.
func buildStageOff(sp *bitvec.SparseMask, bounds []int) []uint8 {
	n := sp.N()
	off := make([]uint8, 1, len(bounds)+1)
	k := 0
	for _, b := range bounds {
		for k < n && sp.WordIndex(k) < b {
			k++
		}
		if int(off[len(off)-1]) != k {
			off = append(off, uint8(k))
		}
	}
	if len(off) < 3 {
		return nil
	}
	return off
}

// clone returns a mutable copy of the group sharing the immutable pieces
// (mask, words, stage offsets) and copying what a writer mutates: Bloom
// filters, counts and the slot table.
func (g *group) clone() *group {
	ng := *g
	ng.frozen = false
	ng.filters = append([]stageFilter(nil), g.filters...)
	ng.slots = append([]slot(nil), g.slots...)
	return &ng
}

// doubled returns a mutable copy of g whose table is twice g's (or the
// first, for a group without one), holding g's entries: what clone and then
// put's regrow would make, without the copy of a table the new one
// replaces. An insert that takes a published group past 3/4 load, or gives
// a one-entry group its second entry, starts from it.
func (g *group) doubled() *group {
	ng := *g
	ng.frozen = false
	ng.filters = append([]stageFilter(nil), g.filters...)
	ng.regrow(g)
	return &ng
}

// regrow gives g a table of twice old's slots and re-places old's entries
// in it. A group without a table gets its first, of 1<<minSlotBits slots,
// holding its solo entry, and its stage filters with it.
func (g *group) regrow(old *group) {
	if old.slots == nil {
		g.alloc(minSlotBits)
		if n := len(g.stageOff); n > 2 {
			g.filters = make([]stageFilter, n-2)
		}
		g.insertSlot(keyHash(old.solo.Key), old.solo)
		g.addToFilters(old.solo)
		return
	}
	g.alloc(old.slotBits + 1)
	for _, s := range old.slots {
		if s.e != nil {
			g.insertSlot(s.fp, s.e)
		}
	}
}

// slotMask is the table's index mask.
func (g *group) slotMask() uint64 { return 1<<g.slotBits - 1 }

// at returns slot i to the writer, which alone stores slots.
func (g *group) at(i uint64) slot { return g.slots[i] }

// set stores s at slot i, fingerprint first and entry last, atomically: in
// a published group, lock-free readers may be probing the cell.
func (g *group) set(i uint64, s slot) {
	c := &g.slots[i]
	atomic.StoreUint64(&c.fp, s.fp)
	atomic.StorePointer(c.entryPtr(), unsafe.Pointer(s.e))
}

// hashHeader returns the fingerprint of h under the group's mask,
// KeyHash(h AND mask), via the inline sparse view when the mask fits.
func (g *group) hashHeader(h bitvec.Vec) uint64 {
	if g.sparseOK {
		return g.sparse.Hash(h)
	}
	return bitvec.HashMasked(h, g.mask, g.words)
}

// equalKey reports key == (h AND mask) for a stored (canonical) key.
func (g *group) equalKey(key, h bitvec.Vec) bool {
	if g.sparseOK {
		return g.sparse.EqualKey(key, h)
	}
	return bitvec.EqualMasked(key, h, g.mask, g.words)
}

// keyHash mixes the vector words into a bucket fingerprint without
// allocating. It is bitvec.KeyHash, shared with HashMasked so that the
// masked fast path and the exact writer-side paths agree on fingerprints.
func keyHash(v bitvec.Vec) uint64 { return bitvec.KeyHash(v) }

// findMasked returns the entry matching header h under the group's mask
// (the one whose key equals h AND mask) installed by epoch ep, or nil. This
// is the full-width probe: hash and compare run fused over the mask's
// nonzero words only, so no scratch vector and no allocation.
func (g *group) findMasked(h bitvec.Vec, ep uint64) *Entry {
	fp := g.hashHeader(h)
	return g.probeSlots(fp, h, ep)
}

// findMaskedStaged is findMasked with the staged early bail: the
// fingerprint is accumulated stage by stage (bitvec.SparseMask.HashRange's
// incremental property) and each pre-final stage's running value is
// checked against the group's Bloom filter of entry hashes. A probe whose
// partial hash matches no entry bails without touching the remaining
// stages' header words or the slot table; skipped reports that early exit
// (the quantity Stats.StageSkips counts).
func (g *group) findMaskedStaged(h bitvec.Vec, ep uint64) (e *Entry, skipped bool) {
	if len(g.stageOff) < 3 {
		return g.findMasked(h, ep), false
	}
	return g.stagesFrom(0, 0, h, ep)
}

// stagesFrom runs a staged probe from stage s on, fp being the running
// hash through the stages before s. The scan enters it at stage 1 for a
// kindFilter record whose stage 0 it already decided from the mirror.
func (g *group) stagesFrom(s int, fp uint64, h bitvec.Vec, ep uint64) (e *Entry, skipped bool) {
	last := len(g.stageOff) - 1
	for ; s < last; s++ {
		fp ^= g.sparse.HashRange(h, int(g.stageOff[s]), int(g.stageOff[s+1]))
		if s < last-1 && !g.filters[s].has(fp) {
			return nil, true
		}
	}
	return g.probeSlots(fp, h, ep), false
}

// probeSlots walks the open-addressing slot array for the fingerprint and
// returns the entry matching h that a reader of epoch ep may see. It is
// the one probe that can meet an entry installed in place after its
// snapshot (only multi-entry groups take such installs, and the one-entry
// fast paths never come here), so it alone compares epochs: it steps past
// a newer entry and probes on. Linear probing keeps that exact, since an
// install only fills a cell its snapshot had empty and nothing of that
// snapshot lies past such a cell on a chain. The walk ends at an empty
// cell, which a table kept within 3/4 load always has, or, as a safety
// bound, after one lap of the table.
func (g *group) probeSlots(fp uint64, h bitvec.Vec, ep uint64) *Entry {
	m := g.slotMask()
	for i, n := fp&m, m; ; i, n = (i+1)&m, n-1 {
		sfp, e := g.slots[i].load()
		if e == nil {
			return nil
		}
		if sfp == fp && g.equalKey(e.Key, h) && e.epoch <= ep {
			return e
		}
		if n == 0 {
			return nil
		}
	}
}

// find returns the entry in g whose key equals k, or nil (writer-side
// exact probe; k must already be canonical for the mask).
func (g *group) find(k bitvec.Vec) *Entry {
	if g.slots == nil {
		if g.solo != nil && g.solo.Key.Equal(k) {
			return g.solo
		}
		return nil
	}
	fp := keyHash(k)
	m := g.slotMask()
	for i := fp & m; ; i = (i + 1) & m {
		s := g.at(i)
		if s.e == nil {
			return nil
		}
		if s.fp == fp && s.e.Key.Equal(k) {
			return s.e
		}
	}
}

// full reports whether one more entry needs a new table: the group has
// none, or one more entry would take it past 3/4 load.
func (g *group) full() bool { return g.slots == nil || (g.n+1)*4 > 3<<g.slotBits }

// put inserts e (whose key must not already be present). Into an empty
// group without a table it only makes e solo. Otherwise it builds the
// first table or doubles a table past 3/4 load (regrow) and folds the entry
// into the stage filters. Into a published group of two or more entries
// that is not full, it is the in-place install: it neither doubles nor
// touches solo, and it stores only the free cell (set) and the filter bits
// (stageFilter.add).
func (g *group) put(e *Entry) {
	if g.slots == nil && g.n == 0 {
		g.solo, g.n = e, 1
		return
	}
	if g.full() {
		old := *g
		g.regrow(&old)
	}
	fp := keyHash(e.Key)
	g.insertSlot(fp, e)
	g.n++
	if g.n == 1 {
		g.solo = e
	} else if g.solo != nil {
		g.solo = nil
	}
	// Bloom bits only accumulate on insert; settle rebuilds from scratch.
	g.addToFilters(e)
}

// addToFilters records e's partial stage hashes in the group's Bloom
// filters. filters[s] holds hashes accumulated through sparse slots
// [0, stageOff[s+1]); the entry's key is canonical (key ⊆ mask), so
// hashing the key under the group's own sparse view yields exactly the
// running value a matching header produces at that stage.
func (g *group) addToFilters(e *Entry) {
	for s := range g.filters {
		g.filters[s].add(g.sparse.HashRange(e.Key, 0, int(g.stageOff[s+1])))
	}
}

// insertSlot places e at the first free cell of its probe chain.
func (g *group) insertSlot(fp uint64, e *Entry) {
	m := g.slotMask()
	for i := fp & m; ; i = (i + 1) & m {
		if g.at(i).e == nil {
			g.set(i, slot{fp: fp, e: e})
			return
		}
	}
}

// replace swaps old for e in its slot (same key, so same fingerprint).
func (g *group) replace(old, e *Entry) {
	if g.slots == nil {
		if g.solo == old {
			g.solo = e
		}
		return
	}
	m := g.slotMask()
	for i := keyHash(old.Key) & m; ; i = (i + 1) & m {
		s := g.at(i)
		if s.e == old {
			g.set(i, slot{fp: s.fp, e: e})
			if g.solo == old {
				g.solo = e
			}
			return
		}
		if s.e == nil {
			return
		}
	}
}

// remove deletes the entry with key k. Deletion uses backward-shift
// compaction (no tombstones): the probe cluster after the hole is
// re-packed so linear probing stays correct. The solo entry and the stage
// filters go stale; the caller settles the group after its last removal.
func (g *group) remove(k bitvec.Vec) {
	fp := keyHash(k)
	m := g.slotMask()
	i := fp & m
	for {
		s := g.at(i)
		if s.e == nil {
			return
		}
		if s.fp == fp && s.e.Key.Equal(k) {
			break
		}
		i = (i + 1) & m
	}
	j := i
	for {
		j = (j + 1) & m
		s := g.at(j)
		if s.e == nil {
			break
		}
		// s may fill the hole at i iff its home cell is cyclically at or
		// before i (moving it cannot break its own probe chain).
		if (j-s.fp)&m >= (j-i)&m {
			g.set(i, s)
			i = j
		}
	}
	g.set(i, slot{})
	g.n--
}

// settle restores what removals leave stale: the solo entry, and the
// stage filters, which as Bloom filters cannot delete and are rebuilt from
// the live entries — once per sweep of the group, not once per entry
// removed.
func (g *group) settle() {
	g.solo = nil
	if g.filters == nil && g.n != 1 {
		return
	}
	for s := range g.filters {
		g.filters[s] = stageFilter{}
	}
	for _, s := range g.slots {
		if s.e == nil {
			continue
		}
		if g.n == 1 {
			g.solo = s.e
		}
		g.addToFilters(s.e)
	}
}

// allEpochs is the epoch of the writer's view: every installed entry.
const allEpochs = ^uint64(0)

// each calls f for every entry installed by epoch ep, loading each cell as
// a lock-free reader; f returning false stops the walk. The writer's walk
// (allEpochs) reads no stamp, so it touches only the lines f does. A group
// without a table is its solo entry.
func (g *group) each(ep uint64, f func(*Entry) bool) {
	if g.slots == nil {
		if e := g.solo; e != nil && (ep == allEpochs || e.epoch <= ep) {
			f(e)
		}
		return
	}
	for i := range g.slots {
		if _, e := g.slots[i].load(); e != nil && (ep == allEpochs || e.epoch <= ep) && !f(e) {
			return
		}
	}
}

// Stats aggregates classifier activity counters.
type Stats struct {
	// Lookups is the total number of Lookup calls.
	Lookups uint64
	// Hits and Misses partition Lookups.
	Hits, Misses uint64
	// Probes is the total number of mask probes performed; Probes/Lookups
	// is the average per-packet classification effort the attack inflates.
	Probes uint64
	// StageSkips counts probes that bailed at a stage boundary before
	// doing the full-width hash+compare work: a staged probe rejected on
	// its first-stage words (or, for one-entry groups, on an early key
	// word). StageSkips/Probes is the fraction of the O(|M|) scan the
	// staging optimisation reduced to one-or-two-word touches.
	StageSkips uint64
	// Inserted and Deleted count entry lifecycle events.
	Inserted, Deleted uint64
	// Publishes counts snapshot publications; a K-entry InsertBatch raises
	// it by exactly one — the amortisation the batched slow path exists
	// for. Under ScanLinear each also copies the probe mirror's chunk
	// directory (O(|M|/256) entries) plus the chunks written since the
	// previous one (ProbesCopied).
	Publishes uint64
	// ProbesCopied, SlotsCopied, OverlapCompared and IndexCopied are the
	// writer's work ledger, counted under the writer lock and never on the
	// lookup path: probe records copied into published snapshots
	// (ScanLinear only), group slots copied by copy-on-write clones,
	// entries passed to the full bitvec.Overlap by the insert-time overlap
	// check, and pruning-index pieces copied by writes: a tree node on the
	// path of a removal or of a refresh's or sweep's clone, and a field's
	// candidate table rebuilt at publish. An install copies no node.
	// Unlike timings they repeat exactly, so tests pin them.
	ProbesCopied, SlotsCopied, OverlapCompared, IndexCopied uint64
}

// Options configures a Classifier.
type Options struct {
	// Order selects ScanLinear's mask scan order (default OrderHash). It
	// applies to ScanLinear only: the pruned lookup walks its index, and
	// Entries lists groups in OrderHash order under either scan.
	Order MaskOrder
	// DisableOverlapCheck skips the independence verification on Insert.
	// The vswitch megaflow generator guarantees disjointness by
	// construction, so its pipeline may disable the check; tests and
	// direct users keep it on. Over overlapping entries a linear scan
	// returns the first covering entry in Order, the pruned lookup one of
	// the covering entries.
	DisableOverlapCheck bool
	// Scan selects how a lookup finds the groups it probes (default
	// ScanPruned).
	Scan Scan
}

// statShard is one reader handle's private counter block, padded to a
// cache line so parallel workers never false-share. Updates are atomic
// (Stats aggregates shards while readers run, and the classifier's default
// handle is shared) but rare: LookupBatch adds a whole batch at once.
type statShard struct {
	lookups, hits, misses, probes, stageSkips uint64
	_                                         [3]uint64 // pad to 64 bytes
}

// add publishes lookups lookups, hits of them hits, with the probes and
// stage skips they spent: one atomic add per counter that moved.
func (sh *statShard) add(lookups, hits, probes, skips uint64) {
	atomic.AddUint64(&sh.lookups, lookups)
	if hits > 0 {
		atomic.AddUint64(&sh.hits, hits)
	}
	if lookups > hits {
		atomic.AddUint64(&sh.misses, lookups-hits)
	}
	atomic.AddUint64(&sh.probes, probes)
	if skips > 0 {
		atomic.AddUint64(&sh.stageSkips, skips)
	}
}

// Handle is a per-reader view of the classifier: same lock-free lookups,
// but hit statistics land in a private cache-line-padded shard, so
// parallel PMD workers scanning the shared classifier never contend on
// counter memory. Create one Handle per worker (NewHandle); the
// classifier's own Lookup/LookupBatch use a default handle.
type Handle struct {
	c  *Classifier
	sh *statShard
}

// Classifier is a TSS megaflow cache, safe for concurrent use. Readers
// (Lookup, LookupBatch, MissProbes, Entries, MaskCount, EntryCount) are
// lock-free: they load the current snapshot from an atomic pointer and
// never block, so PMD-style datapath workers scale without serialising on a
// classifier lock. Writers (Insert, InsertBatch, DeleteWhere)
// serialise on a mutex, clone only the mask groups they touch
// (copy-on-write), and publish the next snapshot atomically.
type Classifier struct {
	mu     sync.Mutex // serialises writers; readers never take it
	layout *bitvec.Layout
	dir    []chunk  // writer-side probe mirror in scan order; ScanLinear only
	masks  int      // |M|
	thawed []*group // groups created/cloned since the last publish
	byMask maskDir
	nEntry int
	opts   Options
	stages []int // staged-lookup word boundaries; nil on a single-stage layout
	prune  *pruneIndex

	// maskHash, when set, replaces bitvec.Vec.Hash as the mask hash
	// groups are filed and ordered by (hashMask), so tests can plant ties:
	// two masks may share a hash, and the mask directory and the OrderHash
	// tie-break then compare their words.
	maskHash func(bitvec.Vec) uint64
	// victims is DeleteWhere's buffer of the entries a sweep removes from
	// one group, kept across sweeps and cleared after each so it pins no
	// entry.
	victims []*Entry

	snap atomic.Pointer[snapshot]

	def      *Handle
	shardsMu sync.Mutex
	shards   []*statShard

	// Writer-side counters, under mu.
	inserted, deleted, published               uint64
	probesCopied, slotsCopied, overlapCompared uint64
}

// hashMask returns the hash mask's group is filed and ordered by.
func (c *Classifier) hashMask(mask bitvec.Vec) uint64 {
	if c.maskHash != nil {
		return c.maskHash(mask)
	}
	return mask.Hash()
}

// maskDir is the writer's mask directory: the group of each installed
// mask, filed under the mask's hash (group.hash) and confirmed on its
// words, so an install finds its mask's group without building a string
// key. Masks that share a hash with first's mask, which a 64-bit hash
// makes rare, sit in ties, compared one by one.
type maskDir struct {
	first map[uint64]*group
	ties  map[uint64][]*group
}

// get returns the group of mask, whose hash is h, or nil.
func (d *maskDir) get(mask bitvec.Vec, h uint64) *group {
	g := d.first[h]
	if g == nil || g.mask.Equal(mask) {
		return g
	}
	for _, t := range d.ties[h] {
		if t.mask.Equal(mask) {
			return t
		}
	}
	return nil
}

// set files g as its mask's group, in place of the one there.
func (d *maskDir) set(g *group) {
	f := d.first[g.hash]
	if f == nil || f.mask.Equal(g.mask) {
		d.first[g.hash] = g
		return
	}
	ts := d.ties[g.hash]
	for i, t := range ts {
		if t.mask.Equal(g.mask) {
			ts[i] = g
			return
		}
	}
	if d.ties == nil {
		d.ties = make(map[uint64][]*group)
	}
	d.ties[g.hash] = append(ts, g)
}

// del drops g's mask from the directory; a tie of its hash, if there is
// one, takes first's place.
func (d *maskDir) del(g *group) {
	ts := d.ties[g.hash]
	if len(ts) == 0 {
		delete(d.first, g.hash)
		return
	}
	if i := slices.IndexFunc(ts, func(t *group) bool { return t.mask.Equal(g.mask) }); i >= 0 {
		ts[i] = ts[len(ts)-1]
	} else {
		d.first[g.hash] = ts[len(ts)-1]
	}
	ts[len(ts)-1] = nil
	if ts = ts[:len(ts)-1]; len(ts) == 0 {
		delete(d.ties, g.hash)
	} else {
		d.ties[g.hash] = ts
	}
}

// snapshot is one immutable published scan state: the pruning index, whose
// tree holds the groups Entries reads (see groups), plus under
// ScanLinear the probe mirror's chunk directory in scan order. Readers
// obtained it from the atomic pointer; nothing it references is mutated
// after publication (entry and hit counters are updated atomically through
// shared pointers).
type snapshot struct {
	chunks []records
	masks  int
	nEntry int
	prune  pruneView
	pruned bool   // ScanPruned: lookups walk the index
	epoch  uint64 // the publish epoch: entries stamped later are not in it
}

// Probe record kinds: what the scan can decide about a group from its
// record, without dereferencing the group. Inline-able masks only; a
// group whose mask does not fit a bitvec.SparseMask is kindGroup.
const (
	kindSolo1  uint8 = iota // one entry, at most one nonzero mask word
	kindSolo2               // one entry, two words: the second is in the side record
	kindSoloN               // one entry, more words
	kindFilter              // several entries, stage 0 is sparse word 0: side holds its filter
	kindGroup               // any other group
)

// scanProbe is the hot half of one step of the lookup scan: pointer-free
// and 24 bytes, so the O(|M|) walk streams sequential memory the hardware
// prefetcher can follow, the garbage collector never scans it, and bytes
// per probe — the budget of a memory-bandwidth-bound scan — are half those
// of a record carrying pointers. For a one-entry group — the shape TSE
// attack state takes, one megaflow per inflated mask — it holds the first
// nonzero mask word and the entry's key word under it, so a staged probe
// decides most misses with a single AND and compare against streamed
// bytes. For a kindFilter group it holds the word stage 0 hashes.
type scanProbe struct {
	mw0  uint64 // first nonzero mask word
	kw0  uint64 // one-entry kinds: the entry's key word under mw0
	idx0 uint8  // Vec word index of mw0
	idx1 uint8  // kindSolo2: Vec word index of the second mask word
	kind uint8
}

// probeSide is the cold half of a scan record, read only when the hot half
// cannot decide a probe: the group, plus four inline words — for kindSolo2
// the second mask word and the entry's key word under it, so a first-word
// agreement is decided here too; for kindFilter the group's stage-0
// stageFilter, so a probe bails on it without touching the group. The
// entry and its counters are reached through g only on a hit.
type probeSide struct {
	g *group
	w [4]uint64
}

// buildProbe constructs the scan record for a group's current state.
// Writers call it whenever a group's membership, solo entry or filters
// change, keeping the probe mirror in sync with the groups.
func buildProbe(g *group) (scanProbe, probeSide) {
	p, s := scanProbe{kind: kindGroup}, probeSide{g: g}
	if !g.sparseOK {
		return p, s
	}
	sp := &g.sparse
	if sp.N() > 0 {
		p.idx0, p.mw0 = uint8(sp.WordIndex(0)), sp.MaskWord(0)
	}
	switch {
	case g.solo != nil && sp.N() <= 1:
		p.kind, p.kw0 = kindSolo1, g.solo.Key[p.idx0]
	case g.solo != nil && sp.N() == 2:
		p.kind, p.kw0 = kindSolo2, g.solo.Key[p.idx0]
		p.idx1 = uint8(sp.WordIndex(1))
		s.w[0], s.w[1] = sp.MaskWord(1), g.solo.Key[p.idx1]
	case g.solo != nil:
		p.kind, p.kw0 = kindSoloN, g.solo.Key[p.idx0]
	case len(g.stageOff) > 2 && g.stageOff[1] == 1:
		p.kind, s.w = kindFilter, g.filters[0]
	}
	return p, s
}

// New creates an empty classifier over the layout.
func New(l *bitvec.Layout, opts Options) *Classifier {
	c := &Classifier{
		layout: l,
		byMask: maskDir{first: make(map[uint64]*group)},
		opts:   opts,
		prune:  newPruneIndex(l),
	}
	// The stage boundaries are the layout's (metadata → L2 → L3 → L4),
	// which is what OVS's flow-struct offsets hard-code.
	if bounds := l.StageBoundaries(); len(bounds) > 1 {
		c.stages = bounds
	}
	c.def = c.NewHandle()
	c.publishLocked()
	return c
}

// Layout returns the classifier's header layout.
func (c *Classifier) Layout() *bitvec.Layout { return c.layout }

// NewHandle returns a reader handle with a private statistics shard.
// Handles are cheap and never expire; create one per worker goroutine.
func (c *Classifier) NewHandle() *Handle {
	sh := &statShard{}
	c.shardsMu.Lock()
	c.shards = append(c.shards, sh)
	c.shardsMu.Unlock()
	return &Handle{c: c, sh: sh}
}

// Lookup classifies header h at virtual time now. It returns the matching
// entry, the number of mask probes performed (the classification cost the
// attack drives up), and whether the lookup hit. Statistics land in the
// classifier's default handle; parallel workers should use per-worker
// handles (NewHandle) to keep counter cache lines private.
func (c *Classifier) Lookup(h bitvec.Vec, now int64) (*Entry, int, bool) {
	return c.def.Lookup(h, now)
}

// Lookup is Classifier.Lookup recording statistics in the handle's shard:
// a batch of one.
func (hd *Handle) Lookup(h bitvec.Vec, now int64) (*Entry, int, bool) {
	e, probes, _, ok := hd.lookupSnap(hd.c.snap.Load(), h, now)
	return e, probes, ok
}

// lookupSnap is sn.lookup with its statistics added to the handle's shard.
func (hd *Handle) lookupSnap(sn *snapshot, h bitvec.Vec, now int64) (*Entry, int, int, bool) {
	e, probes, skips := sn.lookup(h, now)
	var hit uint64
	if e != nil {
		hit = 1
	}
	hd.sh.add(1, hit, uint64(probes), uint64(skips))
	return e, probes, skips, e != nil
}

// lookup classifies h over one snapshot: the pruned lookup, or Algorithm 1
// — for M ∈ M, look up (h AND M) in H_M; first hit wins. Each probe runs
// fused over the mask's nonzero words (no scratch vector, no allocation),
// with the staged early bail skipping most of that work for non-matching
// masks. A hit stamps the entry's LastUsed with now, atomically and only
// when the stamp moves, so any number of readers may run concurrently
// without writing a shared line per packet. It records no statistics; the
// caller adds them to its handle's shard.
func (sn *snapshot) lookup(h bitvec.Vec, now int64) (e *Entry, probes, skips int) {
	if sn.pruned {
		e, probes, skips = sn.scanPruned(h)
	} else {
		e, probes, skips = sn.scanStaged(h)
	}
	if e != nil && atomic.LoadInt64(&e.LastUsed) != now {
		atomic.StoreInt64(&e.LastUsed, now)
	}
	return e, probes, skips
}

// scanStaged is the staged scan: it returns the first entry matching h in
// scan order, or nil, with the probes made and the stage skips among them.
// A record's probe number is its chunk's base plus its index plus one.
// Every miss is decided from the mirror: a one-entry record on its inline
// words, a kindFilter record on its stage-0 filter. Only a kindSoloN
// first-word agreement, a filter pass, a kindGroup record and a hit
// dereference the group.
func (sn *snapshot) scanStaged(h bitvec.Vec) (*Entry, int, int) {
	skips, base := 0, 0
	for _, ch := range sn.chunks {
		hot, side := ch.hot, ch.side
		for k := 0; k < len(hot); k++ {
			// One-entry records whose first masked header word differs from
			// the inline key word — the common case by far in the attack
			// regime — are skipped in a loop of their own that calls nothing
			// and keeps its state in registers.
			p := &hot[k]
			for p.kind <= kindSoloN && h[p.idx0]&p.mw0 != p.kw0 {
				if p.kind != kindSolo1 {
					skips++
				}
				if k++; k == len(hot) {
					break
				}
				p = &hot[k]
			}
			if k == len(hot) {
				break
			}
			s := &side[k]
			var e *Entry
			switch p.kind {
			case kindSolo1:
				// The first word was the whole mask: a match (the key is
				// canonical, so agreeing on every mask word is the match).
				e = s.g.solo
			case kindSolo2:
				if h[p.idx1]&s.w[0] == s.w[1] {
					e = s.g.solo
				}
			case kindSoloN:
				if g := s.g; g.sparse.EqualKey(g.solo.Key, h) {
					e = g.solo
				}
			case kindFilter:
				// Stage 0 is the one word mw0 covers: its partial hash, as
				// SparseMask.HashRange computes it, against the inline filter.
				var fp uint64
				if w := h[p.idx0] & p.mw0; w != 0 {
					fp = bitvec.MixWord(w, int(p.idx0))
				}
				if !(*stageFilter)(&s.w).has(fp) {
					skips++
					continue
				}
				var skip bool
				if e, skip = s.g.stagesFrom(1, fp, h, sn.epoch); skip {
					skips++
				}
			default:
				var skip bool
				if e, skip = s.g.findMaskedStaged(h, sn.epoch); skip {
					skips++
				}
			}
			if e != nil {
				return e, base + k + 1, skips
			}
		}
		base += len(hot)
	}
	return nil, base, skips
}

// probe decides one group for header h from the group itself, as the
// linear scan decides its record, for a reader of epoch ep: a one-entry
// inline group is rejected on its first nonzero mask word (a skip when the
// mask has more), and any other group takes findMaskedStaged.
func (g *group) probe(h bitvec.Vec, ep uint64) (e *Entry, skipped bool) {
	if !g.sparseOK || g.solo == nil {
		return g.findMaskedStaged(h, ep)
	}
	sp := &g.sparse
	if n := sp.N(); n > 0 && h[sp.WordIndex(0)]&sp.MaskWord(0) != g.solo.Key[sp.WordIndex(0)] {
		return nil, n > 1
	}
	if sp.EqualKey(g.solo.Key, h) {
		return g.solo, false
	}
	return nil, false
}

// BatchResult is one per-header outcome of LookupBatch.
type BatchResult struct {
	// Entry is the matching megaflow (nil on a miss).
	Entry *Entry
	// Probes is the number of mask probes spent on this header.
	Probes int
	// OK reports whether the lookup hit.
	OK bool
}

// LookupBatch classifies consecutive headers from hs over a single
// snapshot load, filling out (which must be at least as long as hs) and
// returning the number of headers consumed. It stops after the first miss
// — in the OVS datapath a miss triggers an upcall whose megaflow install
// changes cache membership, so results computed past a miss could diverge
// from serial processing. Consuming until the first miss makes the batch
// exactly equivalent, header for header, to the same sequence of Lookup
// calls: the caller resolves the miss (out[n-1].OK == false) and re-enters
// with the remainder of the batch.
func (c *Classifier) LookupBatch(hs []bitvec.Vec, now int64, out []BatchResult) int {
	return c.def.LookupBatch(hs, now, out)
}

// LookupBatch is Classifier.LookupBatch recording statistics in the
// handle's shard. The batch's lookups, hits, misses, probes and stage
// skips are summed in locals and published once, at the end, with one
// atomic add per counter (OVS's per-batch flow statistics), so Stats
// reads the same totals as per-packet Lookup calls would leave.
func (hd *Handle) LookupBatch(hs []bitvec.Vec, now int64, out []BatchResult) int {
	if len(hs) == 0 {
		return 0
	}
	sn := hd.c.snap.Load()
	n, hits := 0, 0
	var probes, skips uint64
	for _, h := range hs {
		e, p, s := sn.lookup(h, now)
		out[n] = BatchResult{Entry: e, Probes: p, OK: e != nil}
		n++
		probes += uint64(p)
		skips += uint64(s)
		if e == nil {
			break
		}
		hits++
	}
	hd.sh.add(uint64(n), uint64(hits), probes, skips)
	return n
}

// Stats returns the read-path counters recorded through this handle only
// (its private shard): the per-worker share of lookups, hits, misses,
// probes, and stage skips. Lifecycle counters (Inserted/Deleted) are
// writer-side and always zero here; use Classifier.Stats for totals.
func (hd *Handle) Stats() Stats {
	return Stats{
		Lookups:    atomic.LoadUint64(&hd.sh.lookups),
		Hits:       atomic.LoadUint64(&hd.sh.hits),
		Misses:     atomic.LoadUint64(&hd.sh.misses),
		Probes:     atomic.LoadUint64(&hd.sh.probes),
		StageSkips: atomic.LoadUint64(&hd.sh.stageSkips),
	}
}

// ErrOverlap is returned by Insert when the new entry would violate the
// independence invariant Inv(2).
type ErrOverlap struct {
	// Existing is a conflicting entry already in the cache, from the
	// conflicting mask group first in OrderHash order, whatever the scan
	// and Order.
	Existing *Entry
}

func (e *ErrOverlap) Error() string {
	return "tss: entry overlaps existing megaflow (Inv(2) violation)"
}

// Insert adds a megaflow at virtual time now. If an entry with the same
// key and mask exists, it is refreshed in place (idempotent install). If
// the new entry overlaps a different existing entry, Insert returns
// *ErrOverlap and the cache is unchanged (unless the check is disabled).
func (c *Classifier) Insert(e *Entry, now int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.insertLocked(e, now)
	if err == nil {
		c.publishLocked()
	}
	return err
}

// InsertBatch adds a batch of megaflows in one transaction: the per-entry
// semantics are exactly Insert's (idempotent refresh, overlap rejection,
// per-entry error in the returned slice, aligned with es), but every
// probe-mirror chunk the batch touches is copied at most once, as is every
// group it refreshes, and the snapshot is published exactly once at commit
// — the pvector-republish amortisation OVS applies to megaflow install
// bursts. A publish copies the chunk directory plus the chunks written, so
// a K-miss burst pays for at most K chunks and one directory rather than
// K. A new key into a published group of two or more entries, below its
// 3/4 load, copies nothing: it is written in place, stamped with an epoch
// above every snapshot published before, which skip it, so like the rest
// of the batch it becomes visible at the publish. A new key that gives a
// published group its second entry or takes it past its load copies the
// group, and the copy replaces it in the pruning index at once, so later
// writes in the batch treat the copy as published. The errors are written
// into errs when it has sufficient capacity (pass nil to allocate).
//
// Entries that fail validation or overlap an existing megaflow get their
// error recorded and do not block the rest of the batch; the snapshot is
// published if at least one entry landed. An empty batch takes no lock.
func (c *Classifier) InsertBatch(es []*Entry, now int64, errs []error) []error {
	if cap(errs) < len(es) {
		errs = make([]error, len(es))
	}
	errs = errs[:len(es)]
	if len(es) == 0 {
		return errs
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := 0
	for i, e := range es {
		if errs[i] = c.insertLocked(e, now); errs[i] == nil {
			ok++
		}
	}
	if ok > 0 {
		c.publishLocked()
	}
	return errs
}

// insertLocked is one entry's insert under the writer lock, with the
// snapshot publication left to the caller: Insert publishes per call,
// InsertBatch once per batch. Until that publication the groups it creates
// or clones stay thawed, so a batch that writes one group repeatedly clones
// it once; a copy that only adds an entry (insertCopyLocked) counts as
// published at once.
func (c *Classifier) insertLocked(e *Entry, now int64) error {
	if len(e.Key) != c.layout.Words() || len(e.Mask) != c.layout.Words() {
		return fmt.Errorf("tss: entry vector length mismatch")
	}
	if !e.Key.SubsetOf(e.Mask) {
		return fmt.Errorf("tss: entry key has bits outside its mask")
	}
	mh := c.hashMask(e.Mask)
	g := c.byMask.get(e.Mask, mh)
	if g != nil {
		if old := g.find(e.Key); old != nil {
			// Same key and mask: refresh by swapping in the new entry.
			// Decision fields of a published entry are never mutated in
			// place — concurrent lookups may still hold the old pointer
			// lock-free — so the entry itself is replaced in a cloned
			// group.
			atomic.StoreInt64(&e.LastUsed, now)
			stamp(e)
			g, ci, k := c.mutableLocked(g)
			g.replace(old, e)
			c.setProbeLocked(ci, k, g)
			return nil
		}
	}
	if !c.opts.DisableOverlapCheck {
		if ex := c.findOverlapLocked(e); ex != nil {
			return &ErrOverlap{Existing: ex}
		}
	}
	// Atomically: an entry installed before, and deleted or refreshed
	// since, may still be hit through an older snapshot.
	atomic.StoreInt64(&e.LastUsed, now)
	first := stamp(e)
	cls := c.prune.classes(e.Mask)
	switch {
	case g == nil:
		g = newGroup(e.Mask.Clone(), mh, c.stages)
		c.byMask.set(g)
		c.thawed = append(c.thawed, g)
		g.put(e)
		c.placeLocked(g)
		c.prune.add(g, &cls)
	case g.frozen && g.n > 1 && !g.full() && first:
		// In place: e fills a cell that is empty in every snapshot that
		// can reach g, and those snapshots skip e on its epoch. An entry
		// installed before keeps its old stamp, which they might not
		// skip, so it takes the copy-on-write way.
		g.put(e)
		c.foldProbeLocked(g)
	case g.frozen && first:
		c.insertCopyLocked(g, e)
	default:
		g, ci, k := c.mutableLocked(g)
		g.put(e)
		c.setProbeLocked(ci, k, g)
	}
	c.prune.addEntry(e.Key, &cls)
	c.nEntry++
	c.inserted++
	return nil
}

// clock is the publish epoch, one for every classifier: each publish takes
// the next tick (publishLocked), and stamp gives an entry the tick after
// the current one, so the stamp is above every snapshot published before
// the install and at most every snapshot published after it. A shared
// clock keeps the stamp valid for an entry later installed into another
// classifier.
var clock atomic.Uint64

// nextEpoch is the stamp of a write made now: the epoch of the next
// publish at the latest, above every snapshot published before.
func nextEpoch() uint64 { return clock.Load() + 1 }

// stamp gives an entry that no classifier has installed its epoch and
// reports whether it did; an installed entry keeps the stamp it has.
func stamp(e *Entry) bool {
	if e.epoch != 0 {
		return false
	}
	e.epoch = nextEpoch()
	return true
}

// findOverlapLocked returns an existing entry overlapping e from the
// first such group in OrderHash order, or nil. It walks the pruning tree
// with e's overlap candidates (pruneIndex.overlapCands): a group whose
// classes hold no value agreeing with e on the bits both masks constrain
// cannot hold an overlapping entry. Every group checked is confirmed
// exactly (groupOverlapLocked), so OverlapCompared counts the index's
// survivors.
func (c *Classifier) findOverlapLocked(e *Entry) *Entry {
	var first *group
	var found *Entry
	w := walk{cand: c.prune.overlapCands(e.Key, e.Mask)}
	for g := w.first(&c.prune.view, allEpochs); g != nil; g = w.next() {
		if ex := c.groupOverlapLocked(g, e); ex != nil && (first == nil || hashBefore(g, first.hash, first.mask)) {
			first, found = g, ex
		}
	}
	return found
}

// groupOverlapLocked returns an entry of g overlapping e, or nil.
func (c *Classifier) groupOverlapLocked(g *group, e *Entry) *Entry {
	// If the group's mask is a subset of e's mask, an overlap within this
	// group must agree with e on the group mask, so a single masked hash
	// probe decides: of the table, or of the solo entry of a group without
	// one.
	if g.mask.SubsetOf(e.Mask) {
		if g.slots == nil {
			if g.equalKey(g.solo.Key, e.Key) {
				return g.solo
			}
			return nil
		}
		return g.findMasked(e.Key, allEpochs)
	}
	var found *Entry
	g.each(allEpochs, func(ex *Entry) bool {
		c.overlapCompared++
		if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
			found = ex
			return false
		}
		return true
	})
	return found
}

// placeLocked counts a new group and inserts its probe record into the
// mirror, if there is one, at its scan position: binary-searched into hash
// order under OrderHash, appended otherwise.
func (c *Classifier) placeLocked(g *group) {
	if c.masks++; !c.mirrored() {
		return
	}
	ci, k := c.endLocked()
	if c.opts.Order == OrderHash {
		ci, k = c.searchLocked(g.hash, g.mask)
	}
	c.insertProbeLocked(ci, k, g)
}

// DeleteWhere removes every entry for which pred returns true and returns
// the number removed. MFCGuard's drop-entry wipe (§8) is built on this,
// and vswitch.SweepMegaflows routes every megaflow-lifecycle sweep here:
// the whole dump-and-delete runs on the writer side and publishes one
// snapshot at the end, so concurrent readers scan the previous snapshot
// undisturbed for the duration (the revalidator's dump never stalls the
// fast path).
//
// The sweep is one pass, O(|M| + |C|), over the pruning index's tree as
// the sweep began or, under ScanLinear, the probe mirror. A group that
// loses every entry is dropped without being cloned, and a group that
// loses some is cloned once.
// The mirror is compacted as it is walked: a chunk is copied first only if
// it changes and a snapshot shares it.
func (c *Classifier) DeleteWhere(pred func(*Entry) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	victims := c.victims[:0]
	// sweep removes g's entries that pred selects and returns what is left
	// of g and how many went: nil if all of them, else g, thawed and
	// settled if any went. A one-entry group is its solo entry, so the
	// attack-shaped bulk of a sweep never walks a slot table.
	sweep := func(g *group) (*group, int) {
		victims = victims[:0]
		if g.solo != nil {
			if pred(g.solo) {
				victims = append(victims, g.solo)
			}
		} else {
			g.each(allEpochs, func(e *Entry) bool {
				if pred(e) {
					victims = append(victims, e)
				}
				return true
			})
		}
		gone := len(victims)
		if gone == 0 {
			return g, 0
		}
		removed += gone
		cls := c.prune.classes(g.mask)
		for _, e := range victims {
			c.prune.removeEntry(e.Key, &cls)
		}
		if gone == int(g.n) {
			c.byMask.del(g)
			c.masks--
			c.prune.remove(g, &cls)
			return nil, gone
		}
		g = c.thawLocked(g)
		for _, e := range victims {
			g.remove(e.Key)
		}
		g.settle()
		return g, gone
	}
	if !c.mirrored() {
		// The walk reads the tree as the sweep began: a removal or a clone
		// copies the nodes on its path (the last publish left the writer
		// none of its own), so it visits every group once.
		var w walk
		for g := w.every(&c.prune.view, allEpochs); g != nil; g = w.next() {
			sweep(g)
		}
	}
	out := 0
	for _, ch := range c.dir {
		var keep records // the chunk's survivors, once it has changed
		changed := false
		for k := range ch.hot {
			p, s := ch.hot[k], ch.side[k]
			if g, gone := sweep(s.g); gone > 0 {
				if !changed {
					changed = true
					if keep = ch.head(k); !ch.own {
						keep = keep.clone(0)
					}
				}
				if g == nil {
					continue
				}
				p, s = buildProbe(g)
			}
			if changed {
				keep.hot = append(keep.hot, p)
				keep.side = append(keep.side, s)
			}
		}
		if changed {
			if ch.own {
				clear(ch.side[len(keep.side):]) // compacted in place: unpin the tail
			}
			ch = chunk{records: keep, own: true}
		}
		if len(ch.hot) > 0 {
			c.dir[out] = ch
			out++
		}
	}
	clear(c.dir[out:])
	c.dir = c.dir[:out]
	clear(victims[:cap(victims)])
	c.victims = victims[:0]
	c.repackLocked()
	c.nEntry -= removed
	c.deleted += uint64(removed)
	c.publishLocked()
	return removed
}

// MaskCount returns |M|, the number of distinct masks — the quantity the
// TSE attack maximises. Lock-free snapshot read.
func (c *Classifier) MaskCount() int {
	return c.snap.Load().masks
}

// MissProbes returns the probes a lookup of h that misses spends on the
// current snapshot: |M| for a linear scan, the candidate groups the
// pruning index leaves for a pruned one. The slow path stamps it on
// verdicts whose lookup it did not see. Lock-free; records no statistics.
func (c *Classifier) MissProbes(h bitvec.Vec) int {
	sn := c.snap.Load()
	if !sn.pruned {
		return sn.masks
	}
	return sn.missProbes(h)
}

// EntryCount returns |C|, the number of installed megaflows. Lock-free
// snapshot read.
func (c *Classifier) EntryCount() int {
	return c.snap.Load().nEntry
}

// Stats returns a snapshot of the activity counters: the sum of every
// handle's shard plus the writer-side lifecycle counters.
func (c *Classifier) Stats() Stats {
	var s Stats
	c.shardsMu.Lock()
	for _, sh := range c.shards {
		s.Lookups += atomic.LoadUint64(&sh.lookups)
		s.Hits += atomic.LoadUint64(&sh.hits)
		s.Misses += atomic.LoadUint64(&sh.misses)
		s.Probes += atomic.LoadUint64(&sh.probes)
		s.StageSkips += atomic.LoadUint64(&sh.stageSkips)
	}
	c.shardsMu.Unlock()
	c.mu.Lock()
	s.Inserted, s.Deleted, s.Publishes = c.inserted, c.deleted, c.published
	s.ProbesCopied, s.SlotsCopied = c.probesCopied, c.slotsCopied
	s.OverlapCompared, s.IndexCopied = c.overlapCompared, c.prune.copied
	c.mu.Unlock()
	return s
}

// Entries returns a snapshot of all entries, mask-group by mask-group in
// OrderHash order, each group's entries sorted by key. This is the
// equivalent of `ovs-dpctl dump-flows` that MFCGuard's monitor consumes.
// The returned entries are copies: mutating them does not affect the cache.
// The dump is lock-free — it walks the published snapshot, so it can run at
// any cadence without stalling packet processing.
func (c *Classifier) Entries() []*Entry { return c.snap.Load().entries() }

// entries lists the snapshot's entries as Entries does: those stamped by
// its epoch, so a dump of an older snapshot leaves out installs written in
// place since.
// The copies and their key and mask words are carved from two slabs, so a
// dump of n entries makes a handful of allocations, not 3n.
func (sn *snapshot) entries() []*Entry {
	out := make([]*Entry, 0, sn.nEntry)
	copies := make([]Entry, 0, sn.nEntry)
	var words []uint64
	for _, g := range sn.groups() {
		start := len(out)
		g.each(sn.epoch, func(e *Entry) bool {
			if words == nil {
				words = make([]uint64, 0, 2*len(e.Key)*sn.nEntry)
			}
			i, j := len(words), len(words)+len(e.Key)
			words = append(append(words, e.Key...), e.Mask...)
			copies = append(copies, snapshotEntry(e, words[i:j:j], words[j:len(words):len(words)]))
			out = append(out, &copies[len(copies)-1])
			return true
		})
		slices.SortFunc(out[start:], func(a, b *Entry) int { return compareKeys(a.Key, b.Key) })
	}
	return out
}

// compareKeys orders two keys of one layout as their Key strings compare,
// without building them: Key lays each word out little-endian, so a word's
// bytes compare as its byte-reversed value does.
func compareKeys(a, b bitvec.Vec) int {
	for i, w := range a {
		if w != b[i] {
			return cmp.Compare(bits.ReverseBytes64(w), bits.ReverseBytes64(b[i]))
		}
	}
	return 0
}

// snapshotEntry copies an entry with an atomic read of its LastUsed stamp,
// over key and mask, copies of its Key and Mask, so callers can scribble on
// the snapshot without corrupting the live cache.
func snapshotEntry(e *Entry, key, mask bitvec.Vec) Entry {
	return Entry{
		Key: key, Mask: mask,
		Action: e.Action, OutPort: e.OutPort, RuleName: e.RuleName,
		Port:     e.Port,
		LastUsed: atomic.LoadInt64(&e.LastUsed),
	}
}
