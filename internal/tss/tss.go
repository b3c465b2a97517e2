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
// per-mask subtables, inlined probe data) lives in an immutable snapshot
// published through an atomic pointer, the Go equivalent of OVS's RCU
// cmap/pvector in dpcls: readers load the current snapshot and scan it
// without synchronisation, writers build the next snapshot under a mutex
// and publish it atomically. The snapshot also carries the pruning index,
// which a write changes by copying the tree nodes on its path. A retired snapshot lives until its last
// in-flight reader drops it; the garbage collector plays the role of the
// RCU grace period. Hit counters are sharded per reader handle so parallel
// PMD workers never contend on a shared counter cache line.
//
// # Writes cost what they change
//
// Every write is priced by what it touches, not by |M| or |C|, because
// under the attack the writer runs once per flood packet. The scan order
// lives in a probe mirror of 256-record chunks (mirror.go): a publish
// copies the chunk directory plus the chunks written since the last one.
// A group's slot table is paged in 64-slot pages, and a large table's
// page directory is split into 16-page leaves: a copy-on-write clone
// copies the top of the directory and only the leaves and pages it
// writes. The insert-time overlap check walks the pruning index, which
// leaves only the groups whose per-field values agree with the new entry,
// and confirms those survivors exactly. A sweep (DeleteWhere) compacts the
// mirror in one pass and rebuilds each touched group's stage filters
// once. Stats.ProbesCopied, SlotsCopied, DirCopied, OverlapCompared and
// IndexCopied count that work exactly.
package tss

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

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
	// ScanPruned probes only the groups the tuple-pruning index leaves as
	// candidates (prune.go), in index order; Order does not apply. Probes
	// and StageSkips count the groups actually probed. A cache of at most
	// linearMasks masks is scanned as under ScanLinear, which costs less
	// than the index walk at that size. Default.
	ScanPruned Scan = iota
	// ScanLinear is Algorithm 1: every mask in Order, first hit wins, each
	// probe with the staged early bail. A miss costs |M| probes — the
	// Observation 1 cost the paper's cost model prices.
	ScanLinear
)

// Entry is one megaflow: a disjoint key-mask pair with a cached action.
type Entry struct {
	// Key and Mask define the match (Key must equal Key AND Mask).
	Key, Mask bitvec.Vec
	// Action is the cached slow-path decision.
	Action flowtable.Action
	// OutPort is the destination for Forward actions.
	OutPort int
	// RuleName records which flow-table rule generated the entry
	// (diagnostics and MFCGuard pattern matching).
	RuleName string
	// Port is the ingress vport whose flow miss installed the entry
	// (0 for single-port deployments and direct inserts). The revalidator
	// aggregates its dump statistics by this field to drive per-port
	// adaptive upcall quotas: a port whose megaflow footprint explodes is
	// the one flooding the slow path.
	Port int
	// LastUsed is the virtual time of the last hit or the install time.
	// The simulator advances virtual time in seconds.
	LastUsed int64
	// Hits counts lookups served by this entry.
	Hits uint64
	// LastUsed and Hits are updated atomically by concurrent lookups; the
	// other fields are never mutated once the entry is inserted (refresh
	// installs swap the whole entry), so lookups may read them lock-free.
	// Entry pointers are shared between successive snapshots, so the
	// counters survive copy-on-write group clones.
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

// HitCount atomically reads a live entry's hit counter (see LastUsedAt).
func (e *Entry) HitCount() uint64 { return atomic.LoadUint64(&e.Hits) }

// stageFilter is a 256-bit Bloom filter over the partial stage hashes of a
// group's entries: one bit per possible low byte of the running stage
// hash. A probe whose accumulated hash has no bit set can bail before
// touching the group's later-stage words or its slot table. False
// positives only cost the skipped early-exit; the final slot probe still
// confirms exactly. OVS's classifier keeps the same structure per subtable
// ("staged lookup" in lib/classifier.c).
type stageFilter [4]uint64

func (f *stageFilter) add(h uint64) { f[(h>>6)&3] |= 1 << (h & 63) }

func (f *stageFilter) has(h uint64) bool { return f[(h>>6)&3]>>(h&63)&1 == 1 }

// group is one tuple: a mask plus the hash table of keys sharing it,
// OVS-subtable style. Two precomputations make the lookup probe cheap:
// words caches the mask's nonzero word indices, so hashing and comparing a
// header under the mask touches only the words the mask can constrain
// (miniflow-style sparsity) and never materialises the masked header; and
// entries live in a power-of-two open-addressing slot table (fingerprint +
// entry pointer, linear probing) rather than a Go map, so a probe is an
// array walk with no map-runtime calls and no allocation.
//
// Groups are copy-on-write: once a snapshot referencing the group has been
// published (frozen == true), writers clone the group before mutating it,
// so concurrent readers always scan a consistent slot table. The table is
// paged so a clone costs what it writes, not what the group holds: the
// clone copies the top of the page directory and then each leaf and page
// only when it first writes it (see set). The hits counter is shared
// across clones through a pointer so no hit accounting is lost when a
// group is copied.
type group struct {
	// pages and sparse lead the struct so a lookup probe's loads stay
	// within the group's first cache lines. A two-level table keeps pages
	// nil and its directory in leaves, at the end (see at).
	pages    [][]slot          // flat table: slot i is pages[i>>pageShift][i&pageMask]
	sparse   bitvec.SparseMask // inline nonzero-word view of mask
	sparseOK bool              // mask fits inline; else use mask/words
	frozen   bool              // published in a snapshot; clone to mutate
	slotBits uint8             // the table has 1<<slotBits slots
	n        int32             // entries
	solo     *Entry            // the sole entry while n == 1, else nil

	// own and cow are a multi-page clone's writer-side ownership: bit p of
	// own is set once page p is the clone's own copy and, in a two-level
	// table of P pages, bit P+l once leaf l is; cow is the classifier's
	// copy ledger, charged per page and per directory entry copied. Both
	// are nil for a group that owns its whole table (new, regrown, or a
	// one-page clone).
	own []uint64
	cow *copyLedger

	// stageOff are the staged-lookup slot offsets: stage s covers sparse
	// slots [stageOff[s], stageOff[s+1]). nil (or a single effective
	// stage) means the group probes full width. filters[s] is the Bloom
	// filter of entry hashes accumulated through stage s (checked after
	// every stage but the last, which the slot table itself decides).
	stageOff []uint8
	filters  []stageFilter

	mask    bitvec.Vec
	maskKey string
	hash    uint64
	words   []int      // nonzero word indices of mask, in order
	meta    *groupMeta // shared across copy-on-write clones

	leaves [][][]slot // two-level table: leaves of leafPages pages, else nil
}

// groupMeta is what a group's copy-on-write clones share: the hit counter
// and the group's id in the pruning index.
type groupMeta struct {
	hits uint64
	id   uint32
}

// copyLedger is the classifier's count of what copy-on-write clones copy:
// slots (Stats.SlotsCopied) and slot-table directory entries
// (Stats.DirCopied).
type copyLedger struct{ slots, dir uint64 }

// slot is one open-addressing cell: the key's fingerprint (keyHash) for a
// cheap first-pass reject, plus the entry. e == nil marks the cell empty.
type slot struct {
	fp uint64
	e  *Entry
}

// Slot tables are paged: slot i lives in page i>>pageShift at i&pageMask,
// with the same global linear probing and backward-shift delete as one flat
// array. A table of pageSlots slots or fewer is a single page of its own
// length, so the one-entry groups an attack spawns by the thousand keep
// their minSlotBits-slot tables. A table of up to leafPages pages keeps a
// flat page directory. A larger one splits its directory into leaves of
// leafPages pages under a top level: a 16 k-slot exact-match group is 16
// leaves of 16 pages, and a clone copies the 16-entry top level plus the
// leaf and the page an install writes, instead of a 256-entry directory
// and all 256 kB.
const (
	pageShift   = 6
	pageSlots   = 1 << pageShift
	pageMask    = pageSlots - 1
	leafShift   = 4
	leafPages   = 1 << leafShift
	leafMask    = leafPages - 1
	minSlotBits = 3 // keeps even one-entry groups probe-cheap without resizing on every early insert
)

// alloc gives the group an empty table of 1<<bits slots, which it owns
// whole: one page, a flat directory of up to leafPages pages, or leaves of
// leafPages pages.
func (g *group) alloc(bits uint8) {
	g.slotBits, g.pages, g.leaves, g.own, g.cow = bits, nil, nil, nil, nil
	n := 1 << bits
	if n <= pageSlots {
		g.pages = [][]slot{make([]slot, n)}
		return
	}
	pages := make([][]slot, n>>pageShift)
	for p := range pages {
		pages[p] = make([]slot, pageSlots)
	}
	if len(pages) <= leafPages {
		g.pages = pages
		return
	}
	g.leaves = make([][][]slot, len(pages)>>leafShift)
	for l := range g.leaves {
		g.leaves[l] = pages[l<<leafShift : (l+1)<<leafShift : (l+1)<<leafShift]
	}
}

// newGroup builds an empty group for the (already cloned) mask. stages is
// the classifier's staged-lookup word boundary list (nil on a single-stage
// layout).
func newGroup(mask bitvec.Vec, maskKey string, stages []int) *group {
	g := &group{
		mask:    mask,
		maskKey: maskKey,
		hash:    mask.Hash(),
		words:   mask.NonzeroWords(),
		meta:    new(groupMeta),
	}
	g.alloc(minSlotBits)
	g.sparse, g.sparseOK = bitvec.NewSparseMask(mask)
	if g.sparseOK && len(stages) > 1 {
		g.stageOff = buildStageOff(&g.sparse, stages)
		if n := len(g.stageOff); n > 2 {
			g.filters = make([]stageFilter, n-2)
		}
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
// (mask, words, stage offsets, hit counter) and copying what a writer
// mutates in place: Bloom filters, counts, the top of the page directory
// (the flat directory, or the top level of a two-level one), and the slot
// pages — a one-page table at once, since a write follows every clone, a
// larger one leaf and page at a time as set first writes each. cl is the
// classifier's copy ledger.
func (g *group) clone(cl *copyLedger) *group {
	ng := *g
	ng.frozen = false
	ng.filters = append([]stageFilter(nil), g.filters...)
	ng.own, ng.cow = nil, nil
	switch {
	case g.leaves != nil:
		ng.leaves = append([][][]slot(nil), g.leaves...)
		cl.dir += uint64(len(ng.leaves))
		bits := len(ng.leaves)<<leafShift + len(ng.leaves)
		ng.own, ng.cow = make([]uint64, (bits+63)/64), cl
	case len(g.pages) == 1:
		ng.pages = [][]slot{append([]slot(nil), g.pages[0]...)}
		cl.dir++
		cl.slots += uint64(len(ng.pages[0]))
	default:
		ng.pages = append([][]slot(nil), g.pages...)
		cl.dir += uint64(len(ng.pages))
		ng.own, ng.cow = make([]uint64, (len(ng.pages)+63)/64), cl
	}
	return &ng
}

// slotMask is the table's index mask.
func (g *group) slotMask() uint64 { return 1<<g.slotBits - 1 }

// at returns slot i.
func (g *group) at(i uint64) slot {
	if g.pages != nil {
		return g.pages[i>>pageShift][i&pageMask]
	}
	return g.leaves[i>>(pageShift+leafShift)][i>>pageShift&leafMask][i&pageMask]
}

// set stores s at slot i. In a clone that still shares them with its
// frozen original, it first copies i's leaf (two-level tables) and then
// i's page.
func (g *group) set(i uint64, s slot) {
	p := i >> pageShift
	dir, k := g.pages, p
	if g.leaves != nil {
		l := p >> leafShift
		if g.own != nil && g.claim(uint64(len(g.leaves))<<leafShift+l) {
			g.leaves[l] = append([][]slot(nil), g.leaves[l]...)
			g.cow.dir += leafPages
		}
		dir, k = g.leaves[l], p&leafMask
	}
	if g.own != nil && g.claim(p) {
		dir[k] = append([]slot(nil), dir[k]...)
		g.cow.slots += pageSlots
	}
	dir[k][i&pageMask] = s
}

// claim sets bit b of the ownership bitmap and reports whether it was
// clear: whether the clone must copy that page or leaf first.
func (g *group) claim(b uint64) bool {
	w, bit := b/64, uint64(1)<<(b%64)
	if g.own[w]&bit != 0 {
		return false
	}
	g.own[w] |= bit
	return true
}

// allPages yields the table's pages in slot order.
func (g *group) allPages(yield func([]slot) bool) {
	for _, pg := range g.pages {
		if !yield(pg) {
			return
		}
	}
	for _, leaf := range g.leaves {
		for _, pg := range leaf {
			if !yield(pg) {
				return
			}
		}
	}
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
// (the one whose key equals h AND mask), or nil. This is the full-width
// probe: hash and compare run fused over the mask's nonzero words only, so
// no scratch vector and no allocation.
func (g *group) findMasked(h bitvec.Vec) *Entry {
	fp := g.hashHeader(h)
	return g.probeSlots(fp, h)
}

// findMaskedStaged is findMasked with the staged early bail: the
// fingerprint is accumulated stage by stage (bitvec.SparseMask.HashRange's
// incremental property) and each pre-final stage's running value is
// checked against the group's Bloom filter of entry hashes. A probe whose
// partial hash matches no entry bails without touching the remaining
// stages' header words or the slot table; skipped reports that early exit
// (the quantity Stats.StageSkips counts).
func (g *group) findMaskedStaged(h bitvec.Vec) (e *Entry, skipped bool) {
	if len(g.stageOff) < 3 {
		return g.findMasked(h), false
	}
	return g.stagesFrom(0, 0, h)
}

// stagesFrom runs a staged probe from stage s on, fp being the running
// hash through the stages before s. The scan enters it at stage 1 for a
// kindFilter record whose stage 0 it already decided from the mirror.
func (g *group) stagesFrom(s int, fp uint64, h bitvec.Vec) (e *Entry, skipped bool) {
	last := len(g.stageOff) - 1
	for ; s < last; s++ {
		fp ^= g.sparse.HashRange(h, int(g.stageOff[s]), int(g.stageOff[s+1]))
		if s < last-1 && !g.filters[s].has(fp) {
			return nil, true
		}
	}
	return g.probeSlots(fp, h), false
}

// probeSlots walks the open-addressing slot array for the fingerprint.
func (g *group) probeSlots(fp uint64, h bitvec.Vec) *Entry {
	m := g.slotMask()
	for i := fp & m; ; i = (i + 1) & m {
		s := g.at(i)
		if s.e == nil {
			return nil
		}
		if s.fp == fp && g.equalKey(s.e.Key, h) {
			return s.e
		}
	}
}

// find returns the entry in g whose key equals k, or nil (writer-side
// exact probe; k must already be canonical for the mask).
func (g *group) find(k bitvec.Vec) *Entry {
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

// put inserts e (whose key must not already be present), doubling the slot
// table past 3/4 load and folding the entry into the stage filters.
func (g *group) put(e *Entry) {
	if (g.n+1)*4 > 3<<g.slotBits {
		old := *g
		g.alloc(g.slotBits + 1)
		for pg := range old.allPages {
			for _, s := range pg {
				if s.e != nil {
					g.insertSlot(s.fp, s.e)
				}
			}
		}
	}
	fp := keyHash(e.Key)
	g.insertSlot(fp, e)
	g.n++
	if g.n == 1 {
		g.solo = e
	} else {
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
	for pg := range g.allPages {
		for _, s := range pg {
			if s.e == nil {
				continue
			}
			if g.n == 1 {
				g.solo = s.e
			}
			g.addToFilters(s.e)
		}
	}
}

// each calls f for every entry; f returning false stops the walk.
func (g *group) each(f func(*Entry) bool) {
	for pg := range g.allPages {
		for _, s := range pg {
			if s.e != nil && !f(s.e) {
				return
			}
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
	// Publishes counts snapshot publications. Each copies the probe
	// mirror's chunk directory (O(|M|/256) entries) plus the chunks written
	// since the previous one (ProbesCopied); a K-entry InsertBatch raises
	// it by exactly one — the amortisation the batched slow path exists
	// for.
	Publishes uint64
	// ProbesCopied, SlotsCopied, DirCopied, OverlapCompared and
	// IndexCopied are the writer's work ledger, counted under the writer
	// lock and never on the lookup path: probe records copied into
	// published snapshots, group slots copied by copy-on-write clones,
	// slot-table directory entries copied by those clones and their first
	// writes, entries passed to the full bitvec.Overlap by the insert-time
	// overlap check, and pruning-index nodes copied by writes (a tree node
	// a snapshot shares, or a field's candidate table rebuilt at publish).
	// Unlike timings they repeat exactly, so tests pin them.
	ProbesCopied, SlotsCopied, DirCopied, OverlapCompared, IndexCopied uint64
}

// Options configures a Classifier.
type Options struct {
	// Order selects the mask scan order (default OrderHash).
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
// (Stats aggregates shards while readers run) but uncontended: each
// handle owns its shard.
type statShard struct {
	lookups, hits, misses, probes, stageSkips uint64
	_                                         [3]uint64 // pad to 64 bytes
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
// (Lookup, LookupBatch, Entries, Masks, Dump, MaskCount, EntryCount,
// ProbePosition) are lock-free: they load the current snapshot from an
// atomic pointer and never block, so PMD-style datapath workers scale
// without serialising on a classifier lock. Writers (Insert, Delete,
// DeleteWhere, ExpireIdle) serialise on a mutex, clone only the mask
// groups they touch (copy-on-write), and publish the next snapshot
// atomically.
type Classifier struct {
	mu     sync.Mutex // serialises writers; readers never take it
	layout *bitvec.Layout
	dir    []chunk  // writer-side probe mirror: the authoritative scan order
	masks  int      // records in dir: |M|
	thawed []*group // groups created/cloned since the last publish
	byMask map[string]*group
	keyBuf []byte // scratch for byMask lookups: a mask's Key bytes
	nEntry int
	opts   Options
	stages []int // staged-lookup word boundaries; nil on a single-stage layout
	prune  *pruneIndex

	snap atomic.Pointer[snapshot]

	def      *Handle
	shardsMu sync.Mutex
	shards   []*statShard

	// Writer-side counters, under mu.
	inserted, deleted, published  uint64
	probesCopied, overlapCompared uint64
	copies                        copyLedger
}

// snapshot is one immutable published scan state: the probe mirror's chunk
// directory in scan order (each side record carries its group pointer, so
// the dump-style readers walk the same chunks). Readers obtained it from
// the atomic pointer; nothing it references is mutated after publication
// (entry and hit counters are updated atomically through shared pointers).
type snapshot struct {
	chunks []records
	masks  int
	nEntry int
	prune  *pruneView
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
		byMask: make(map[string]*group),
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

// Lookup is Classifier.Lookup recording statistics in the handle's shard.
func (hd *Handle) Lookup(h bitvec.Vec, now int64) (*Entry, int, bool) {
	e, probes, _, ok := hd.lookupSnap(hd.c.snap.Load(), h, now)
	return e, probes, ok
}

// lookupSnap classifies h over one snapshot: the pruned lookup, or
// Algorithm 1 — for M ∈ M, look up (h AND M) in H_M; first hit wins. Each
// probe runs fused over the mask's nonzero words (no scratch vector, no
// allocation), with the staged early bail skipping most of that work for
// non-matching masks. Hit accounting is atomic so any number of readers
// may run concurrently; scan statistics go to the handle's private shard.
func (hd *Handle) lookupSnap(sn *snapshot, h bitvec.Vec, now int64) (*Entry, int, int, bool) {
	var e *Entry
	var g *group
	var probes, skips int
	if sn.pruned(hd.c.opts.Scan) {
		e, g, probes, skips = sn.scanPruned(h)
	} else {
		e, g, probes, skips = sn.scanStaged(h)
	}
	sh := hd.sh
	atomic.AddUint64(&sh.lookups, 1)
	if e == nil {
		atomic.AddUint64(&sh.misses, 1)
	} else {
		atomic.AddUint64(&e.Hits, 1)
		atomic.StoreInt64(&e.LastUsed, now)
		atomic.AddUint64(&g.meta.hits, 1)
		atomic.AddUint64(&sh.hits, 1)
	}
	atomic.AddUint64(&sh.probes, uint64(probes))
	atomic.AddUint64(&sh.stageSkips, uint64(skips))
	return e, probes, skips, e != nil
}

// scanStaged is the staged scan: it returns the first entry matching h in
// scan order and its group, or nil, with the probes made and the stage
// skips among them. A record's probe number is its chunk's base plus its
// index plus one. Every miss is decided from the mirror: a one-entry
// record on its inline words, a kindFilter record on its stage-0 filter.
// Only a kindSoloN first-word agreement, a filter pass, a kindGroup record
// and a hit dereference the group.
func (sn *snapshot) scanStaged(h bitvec.Vec) (*Entry, *group, int, int) {
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
				if e, skip = s.g.stagesFrom(1, fp, h); skip {
					skips++
				}
			default:
				var skip bool
				if e, skip = s.g.findMaskedStaged(h); skip {
					skips++
				}
			}
			if e != nil {
				return e, s.g, base + k + 1, skips
			}
		}
		base += len(hot)
	}
	return nil, nil, base, skips
}

// probe decides one group for header h from the group itself, as the
// linear scan decides its record: a one-entry inline group is rejected on
// its first nonzero mask word (a skip when the mask has more), and any
// other group takes findMaskedStaged.
func (g *group) probe(h bitvec.Vec) (e *Entry, skipped bool) {
	if !g.sparseOK || g.solo == nil {
		return g.findMaskedStaged(h)
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
// handle's shard.
func (hd *Handle) LookupBatch(hs []bitvec.Vec, now int64, out []BatchResult) int {
	if len(hs) == 0 {
		return 0
	}
	sn := hd.c.snap.Load()
	n := 0
	for _, h := range hs {
		e, probes, _, ok := hd.lookupSnap(sn, h, now)
		out[n] = BatchResult{Entry: e, Probes: probes, OK: ok}
		n++
		if !ok {
			break
		}
	}
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
	// Existing is a conflicting entry already in the cache, from the first
	// conflicting mask group in linear-scan order.
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

// InsertBatch adds a batch of megaflows in one copy-on-write transaction:
// the per-entry semantics are exactly Insert's (idempotent refresh,
// overlap rejection, per-entry error in the returned slice, aligned with
// es), but every group, slot page and probe-mirror chunk the batch touches
// is copied at most once and the snapshot is published exactly once at
// commit — the pvector-republish amortisation OVS applies to megaflow
// install bursts. A publish copies the chunk directory plus the chunks
// written, so a K-miss burst pays for at most K chunks and one directory
// rather than K.
//
// Entries that fail validation or overlap an existing megaflow get their
// error recorded and do not block the rest of the batch; the snapshot is
// published if at least one entry landed. The returned slice is nil when
// es is empty.
func (c *Classifier) InsertBatch(es []*Entry, now int64) []error {
	if len(es) == 0 {
		return nil
	}
	errs := make([]error, len(es))
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
// InsertBatch once per batch. Until that publication the mutated groups
// stay thawed, so a batch touching one group repeatedly clones it once.
func (c *Classifier) insertLocked(e *Entry, now int64) error {
	if len(e.Key) != c.layout.Words() || len(e.Mask) != c.layout.Words() {
		return fmt.Errorf("tss: entry vector length mismatch")
	}
	if !e.Key.SubsetOf(e.Mask) {
		return fmt.Errorf("tss: entry key has bits outside its mask")
	}
	c.keyBuf = e.Mask.AppendKey(c.keyBuf[:0])
	g := c.byMask[string(c.keyBuf)]
	if g != nil {
		if old := g.find(e.Key); old != nil {
			// Same key and mask: refresh by swapping in the new entry.
			// Decision fields of a published entry are never mutated in
			// place — concurrent lookups may still hold the old pointer
			// lock-free — so the entry itself is replaced in a cloned
			// group, carrying the hit count forward.
			e.LastUsed = now
			e.Hits = atomic.LoadUint64(&old.Hits)
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
	e.LastUsed = now
	var cls [maxLevels]uint8
	if c.prune.active {
		cls = c.prune.classes(e.Mask)
	}
	if g == nil {
		mk := string(c.keyBuf)
		g = newGroup(e.Mask.Clone(), mk, c.stages)
		c.byMask[mk] = g
		c.thawed = append(c.thawed, g)
		g.put(e)
		c.placeLocked(g)
		c.prune.add(g, &cls)
	} else {
		g, ci, k := c.mutableLocked(g)
		g.put(e)
		c.setProbeLocked(ci, k, g)
	}
	c.prune.addEntry(e.Key, &cls)
	if !c.prune.active && c.masks > linearMasks {
		c.prune.activate(c.dir)
	}
	c.nEntry++
	c.inserted++
	return nil
}

// findOverlapLocked returns an existing entry overlapping e from the
// earliest such group in scan order, or nil. It walks the pruning tree
// with e's overlap candidates (pruneIndex.overlapCands): a group whose
// classes hold no value agreeing with e on the bits both masks constrain
// cannot hold an overlapping entry. A cache too small to have built the
// index is checked group by group. Every group checked is confirmed
// exactly (groupOverlapLocked), so OverlapCompared counts the index's
// survivors.
func (c *Classifier) findOverlapLocked(e *Entry) *Entry {
	var first *group
	var found *Entry
	check := func(g *group) {
		if ex := c.groupOverlapLocked(g, e); ex != nil && (first == nil || c.scansBeforeLocked(g, first)) {
			first, found = g, ex
		}
	}
	if !c.prune.active {
		for _, ch := range c.dir {
			for _, s := range ch.side {
				check(s.g)
			}
		}
		return found
	}
	v := &c.prune.view
	cand := c.prune.overlapCands(e.Key, e.Mask)
	v.each(v.root, 0, &cand, func(id uint32) bool {
		check(v.groups.at(id))
		return true
	})
	return found
}

// scansBeforeLocked reports whether the linear scan reaches group a before
// group b.
func (c *Classifier) scansBeforeLocked(a, b *group) bool {
	if c.opts.Order == OrderHash {
		return hashBefore(a, b.hash, b.maskKey)
	}
	ai, ak := c.locateLocked(a)
	bi, bk := c.locateLocked(b)
	return ai < bi || ai == bi && ak < bk
}

// groupOverlapLocked returns an entry of g overlapping e, or nil.
func (c *Classifier) groupOverlapLocked(g *group, e *Entry) *Entry {
	// If the group's mask is a subset of e's mask, an overlap within this
	// group must agree with e on the group mask, so a single masked hash
	// probe decides.
	if g.mask.SubsetOf(e.Mask) {
		return g.findMasked(e.Key)
	}
	var found *Entry
	g.each(func(ex *Entry) bool {
		c.overlapCompared++
		if bitvec.Overlap(e.Key, e.Mask, ex.Key, ex.Mask) {
			found = ex
			return false
		}
		return true
	})
	return found
}

// placeLocked inserts a new group's probe record into the mirror at its
// scan position: binary-searched into hash order under OrderHash,
// appended otherwise.
func (c *Classifier) placeLocked(g *group) {
	ci, k := c.endLocked()
	if c.opts.Order == OrderHash {
		ci, k = c.searchLocked(g.hash, g.maskKey)
	}
	c.insertProbeLocked(ci, k, g)
}

// Delete removes the entry with exactly the given key and mask. It reports
// whether an entry was removed.
func (c *Classifier) Delete(key, mask bitvec.Vec) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keyBuf = mask.AppendKey(c.keyBuf[:0])
	g, ok := c.byMask[string(c.keyBuf)]
	if !ok {
		return false
	}
	if g.find(key) == nil {
		return false
	}
	c.nEntry--
	c.deleted++
	cls := c.prune.classes(mask)
	c.prune.removeEntry(key, &cls)
	if g.n == 1 {
		// The group empties: drop it without cloning it first.
		ci, k := c.locateLocked(g)
		delete(c.byMask, g.maskKey)
		c.removeProbeLocked(ci, k)
		c.prune.remove(g, &cls)
	} else {
		g, ci, k := c.mutableLocked(g)
		g.remove(key)
		g.settle()
		c.setProbeLocked(ci, k, g)
	}
	c.publishLocked()
	return true
}

// DeleteWhere removes every entry for which pred returns true and returns
// the number removed. MFCGuard's drop-entry wipe (§8) is built on this,
// and vswitch.SweepMegaflows routes every megaflow-lifecycle sweep here:
// the whole dump-and-delete runs on the writer side and publishes one
// snapshot at the end, so concurrent readers scan the previous snapshot
// undisturbed for the duration (the revalidator's dump never stalls the
// fast path).
//
// The sweep is one pass over the probe mirror, O(|M| + |C|): each chunk
// is compacted as it is walked (copied first only if it changes and a
// snapshot shares it), a group that loses every entry is dropped without
// being cloned, and a group that loses some is cloned once.
func (c *Classifier) DeleteWhere(pred func(*Entry) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	var victims []bitvec.Vec
	out := 0
	for _, ch := range c.dir {
		var keep records // the chunk's survivors, once it has changed
		changed := false
		for k := range ch.hot {
			p, s := ch.hot[k], ch.side[k]
			// victims are the keys of the record's group that pred
			// selects. A one-entry group is its solo entry, so the
			// attack-shaped bulk of a sweep never walks a slot table.
			g := s.g
			victims = victims[:0]
			if g.solo != nil {
				if pred(g.solo) {
					victims = append(victims, g.solo.Key)
				}
			} else {
				g.each(func(e *Entry) bool {
					if pred(e) {
						victims = append(victims, e.Key)
					}
					return true
				})
			}
			if gone := len(victims); gone > 0 {
				if !changed {
					changed = true
					if keep = ch.head(k); !ch.own {
						keep = keep.clone(0)
					}
				}
				removed += gone
				cls := c.prune.classes(g.mask)
				for _, key := range victims {
					c.prune.removeEntry(key, &cls)
				}
				if gone == int(g.n) {
					delete(c.byMask, g.maskKey)
					c.masks--
					c.prune.remove(g, &cls)
					continue
				}
				g = c.thawLocked(g)
				for _, key := range victims {
					g.remove(key)
				}
				g.settle()
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
	c.repackLocked()
	c.nEntry -= removed
	c.deleted += uint64(removed)
	c.publishLocked()
	return removed
}

// ExpireIdle evicts entries not used since now-timeout (OVS's 10-second
// megaflow idle timeout drives the recovery delay visible in Fig. 8a) and
// returns the number evicted.
func (c *Classifier) ExpireIdle(now, timeout int64) int {
	return c.DeleteWhere(func(e *Entry) bool { return now-e.LastUsedAt() >= timeout })
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
	if !sn.pruned(c.opts.Scan) {
		return sn.masks
	}
	v := sn.prune
	var cand [maxLevels]uint64
	v.candidates(h, &cand)
	n := 0
	v.each(v.root, 0, &cand, func(uint32) bool { n++; return true })
	return n
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
	s.ProbesCopied, s.SlotsCopied, s.DirCopied = c.probesCopied, c.copies.slots, c.copies.dir
	s.OverlapCompared, s.IndexCopied = c.overlapCompared, c.prune.copied
	c.mu.Unlock()
	return s
}

// Entries returns a snapshot of all entries, mask-group by mask-group in
// the current scan order. This is the equivalent of `ovs-dpctl dump-flows`
// that MFCGuard's monitor consumes. The returned entries are copies:
// mutating them does not affect the cache. The dump is lock-free — it
// walks the published snapshot, so it can run at any cadence without
// stalling packet processing.
func (c *Classifier) Entries() []*Entry {
	sn := c.snap.Load()
	out := make([]*Entry, 0, sn.nEntry)
	for _, ch := range sn.chunks {
		for _, s := range ch.side {
			start := len(out)
			s.g.each(func(e *Entry) bool { out = append(out, snapshotEntry(e)); return true })
			within := out[start:]
			sort.Slice(within, func(i, j int) bool { return within[i].Key.Key() < within[j].Key.Key() })
		}
	}
	return out
}

// snapshotEntry copies an entry with atomic reads of its hot counters.
// Key and Mask are cloned so callers can scribble on the snapshot without
// corrupting the live cache.
func snapshotEntry(e *Entry) *Entry {
	return &Entry{
		Key: e.Key.Clone(), Mask: e.Mask.Clone(),
		Action: e.Action, OutPort: e.OutPort, RuleName: e.RuleName,
		Port:     e.Port,
		LastUsed: atomic.LoadInt64(&e.LastUsed),
		Hits:     atomic.LoadUint64(&e.Hits),
	}
}

// Masks returns a snapshot of the distinct masks in scan order.
func (c *Classifier) Masks() []bitvec.Vec {
	sn := c.snap.Load()
	out := make([]bitvec.Vec, 0, sn.masks)
	for _, ch := range sn.chunks {
		for _, s := range ch.side {
			out = append(out, s.g.mask.Clone())
		}
	}
	return out
}

// Dump writes a human-readable cache listing in scan order, one mask group
// per stanza — the `ovs-dpctl dump-flows` equivalent for interactive
// debugging and the CLI tools.
func (c *Classifier) Dump(w io.Writer, l *bitvec.Layout) {
	sn := c.snap.Load()
	pos := 0
	for _, ch := range sn.chunks {
		for _, s := range ch.side {
			g := s.g
			pos++
			fmt.Fprintf(w, "mask %d/%d: %s (%d entries, %d hits)\n",
				pos, sn.masks, g.mask.Format(l), g.n, atomic.LoadUint64(&g.meta.hits))
			var es []*Entry
			g.each(func(e *Entry) bool { es = append(es, snapshotEntry(e)); return true })
			sort.Slice(es, func(a, b int) bool { return es[a].Key.Key() < es[b].Key.Key() })
			for _, e := range es {
				fmt.Fprintf(w, "  %s hits=%d last=%d rule=%s\n",
					bitvec.FormatMasked(l, e.Key, e.Mask), e.Hits, e.LastUsed, e.RuleName)
			}
		}
	}
}

// ProbePosition returns the 1-based linear-scan position of the given
// mask, or 0 if the mask is not present. A linear-scan lookup (ScanLinear)
// hitting an entry under this mask costs exactly this many probes; the
// dataplane simulator uses it to price the victim's traffic. A pruned
// lookup's probes do not depend on it.
func (c *Classifier) ProbePosition(mask bitvec.Vec) int {
	sn := c.snap.Load()
	mk := mask.Key()
	base := 0
	for _, ch := range sn.chunks {
		for k, s := range ch.side {
			if s.g.maskKey == mk {
				return base + k + 1
			}
		}
		base += len(ch.side)
	}
	return 0
}
