// Package microflow implements the exact-match, per-transport-connection
// flow cache that sits in front of the megaflow cache in the OVS fast path
// (§2.2). Lookup matches on all header bits, so it is a plain hash table.
//
// The cache is deliberately small ("a couple of hundred entries" — §2.2)
// and serves only as short-term memory: it is often exhausted even in
// normal operation, which is why both TSE variants pad their traces with
// random noise in unimportant header fields to keep it thrashed (§5.2,
// §6.1). Eviction is FIFO, a deterministic stand-in for OVS's
// hash-position-based replacement that has the same churn behaviour under
// high-entropy traffic.
//
// The store is an open-addressing table keyed by a 64-bit fingerprint of
// the header bits, with the full header cloned into a dense entry array
// for exact verification (fingerprint collisions fall back to a word
// compare, never to a wrong answer). Lookup and LookupBatch are
// allocation-free; Insert allocates only the first time a header enters a
// given entry slot — refreshes and evict-and-replace cycles reuse the
// stored key storage, which is what keeps an EMC thrashed by high-entropy
// attack traffic from turning into Go allocator churn.
//
// The cache is an EMC as a PMD worker of internal/datapath owns it, with
// OVS's one insertion policy: Insert admits one offered header in
// insertInvProb (OVS's emc-insert-inv-prob), drawn from the cache's own
// seeded xorshift64 state, so a miss stream the cache cannot hold stops
// paying an insert and an eviction per packet, and a fresh cache fed the
// same offers admits the same ones.
//
// Like the PMD thread that owns an OVS EMC, a cache has one owner that
// offers it inserts: Insert and InsertAt must come from one goroutine at a
// time, which alone advances the draw. Lookup, LookupBatch, Sync, Len and
// Stats take the cache's lock and may come from any goroutine.
//
// The cache also keeps the table-generation rule of its owner: Sync,
// called before a lookup with the switch's vswitch.Switch.CacheGen,
// flushes entries of an older generation, and InsertAt drops a verdict
// decided under a generation the cache has left, or while a table swap
// awaited revalidation. So no entry outlives the table that decided it or
// a megaflow the revalidator deletes.
package microflow

import (
	"sync"
	"sync/atomic"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// DefaultCapacity mirrors the "couple of hundred entries" of §2.2.
const DefaultCapacity = 256

// insertInvProb is the inverse probability with which a cache admits an
// offered header: one in 100, OVS's emc-insert-inv-prob default.
// A flow that keeps sending still lands in the cache after ~100 packets on
// average. It is a fixed policy, not a knob.
const insertInvProb = 100

// drawSeed seeds the insertion draw of every cache.
const drawSeed = 0x9e3779b97f4a7c15

// Result caches the decision for one exact header.
type Result struct {
	// Action is the cached slow-path decision.
	Action flowtable.Action
	// OutPort is the destination for Forward actions.
	OutPort int
}

// Stats aggregates cache activity counters.
type Stats struct {
	// Hits and Misses count Lookup outcomes (LookupBatch counts each
	// header individually).
	Hits, Misses uint64
	// Evictions counts entries displaced by FIFO replacement; a flush
	// (Sync) does not count as eviction.
	Evictions uint64
}

// entry is one cached header: the cloned key plus its result.
type entry struct {
	key bitvec.Vec
	res Result
}

// Cache is a bounded exact-match store. Its inserts come from one owner at
// a time; its lookups, Sync and Stats may come from any goroutine.
type Cache struct {
	mu    sync.Mutex
	cap   int
	slots []int32  // open addressing: index into ents, -1 = empty
	fps   []uint64 // fingerprint per occupied slot, parallel to slots
	ents  []entry  // dense entry storage, indices recycled via the FIFO
	fifo  []int32  // ring of entry indices in insertion order
	head  int      // fifo read position (oldest entry)
	n     int      // live entries
	stats Stats
	// gen is the table generation the entries were decided under
	// (Sync). It is written under mu but read without it, so a Sync that
	// finds it current takes no lock.
	gen atomic.Uint64
	// draw is the xorshift64 state of the insertion draw, never 0. Only
	// the inserting owner touches it, so it needs neither mu nor an atomic:
	// an offer the draw refuses (99 in 100) takes no lock and no locked
	// instruction.
	draw uint64
}

// Gen is the table generation a verdict is decided under, as Sync hands it
// out to InsertAt.
type Gen struct {
	seq  uint64
	open bool
}

// New creates an EMC with the given capacity whose Insert admits one
// offered header in insertInvProb; cap <= 0 selects DefaultCapacity.
func New(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCapacity
	}
	// Slot count: power of two, at most half full so probe chains stay
	// short even at capacity.
	slots := 8
	for slots < 2*cap {
		slots *= 2
	}
	c := &Cache{
		cap:   cap,
		slots: make([]int32, slots),
		fps:   make([]uint64, slots),
		ents:  make([]entry, 0, cap),
		fifo:  make([]int32, cap),
		draw:  drawSeed,
	}
	for i := range c.slots {
		c.slots[i] = -1
	}
	return c
}

// findLocked returns the entry index holding header h, or -1.
func (c *Cache) findLocked(h bitvec.Vec, fp uint64) int32 {
	m := uint64(len(c.slots) - 1)
	for i := fp & m; ; i = (i + 1) & m {
		ei := c.slots[i]
		if ei < 0 {
			return -1
		}
		if c.fps[i] == fp && c.ents[ei].key.Equal(h) {
			return ei
		}
	}
}

// Lookup returns the cached result for header h. It performs no
// allocation.
func (c *Cache) Lookup(h bitvec.Vec) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ei := c.findLocked(h, bitvec.KeyHash(h))
	if ei < 0 {
		c.stats.Misses++
		return Result{}, false
	}
	c.stats.Hits++
	return c.ents[ei].res, true
}

// LookupBatch looks up a batch of headers under a single lock acquisition
// — the per-packet locking a PMD-style worker amortises across its receive
// burst. res and ok must be at least as long as hs; res[i], ok[i] receive
// what Lookup(hs[i]) would return. Hit/miss accounting matches len(hs)
// individual Lookup calls. It performs no allocation.
func (c *Cache) LookupBatch(hs []bitvec.Vec, res []Result, ok []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, h := range hs {
		ei := c.findLocked(h, bitvec.KeyHash(h))
		if ei < 0 {
			c.stats.Misses++
			res[i], ok[i] = Result{}, false
			continue
		}
		c.stats.Hits++
		res[i], ok[i] = c.ents[ei].res, true
	}
}

// Sync keys the cache to table generation seq before a lookup; owners
// pass their switch's CacheGen. Entries decided under an older generation
// are flushed first. A seq older than the cache's comes from a caller that
// raced a newer one and changes nothing: its inserts are dropped. The
// returned Gen is what InsertAt takes for the verdicts decided from now
// on; while open is false (a table swap awaits revalidation, so a megaflow
// hit may be one the revalidator deletes) it admits none.
func (c *Cache) Sync(seq uint64, open bool) Gen {
	if seq > c.gen.Load() {
		c.mu.Lock()
		if seq > c.gen.Load() {
			c.flushLocked()
			c.gen.Store(seq)
		}
		c.mu.Unlock()
	}
	return Gen{seq: seq, open: open}
}

// InsertAt is Insert for a verdict decided under g: it is dropped unless
// g is open and the cache is still keyed to its generation.
func (c *Cache) InsertAt(g Gen, h bitvec.Vec, r Result) {
	if !g.open || !c.admit() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.seq == c.gen.Load() {
		c.insertLocked(h, r)
	}
}

// Insert offers the result for header h to the cache, with no generation
// check. The cache admits it only when its draw succeeds, one offer in
// insertInvProb. An admitted header evicts the oldest entry if the cache
// is full; one already cached has its value refreshed without moving in
// the eviction order. The header is cloned into the cache (the caller
// keeps ownership of h); a first-time insert allocates the clone, while an
// evict-and-replace reuses the evicted entry's key storage.
func (c *Cache) Insert(h bitvec.Vec, r Result) {
	if !c.admit() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(h, r)
}

// admit applies the insertion policy to one offer: it advances the draw
// state and admits one offer in insertInvProb. A draw, not an offer
// counter: a counter can lock in phase with a periodic miss stream (an
// attack/victim interleave) and never admit the victim flow. The owner's
// offers draw a fixed sequence.
func (c *Cache) admit() bool {
	x := c.draw
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.draw = x
	return x>>32 < (1<<32)/insertInvProb
}

// insertLocked caches the result for header h.
func (c *Cache) insertLocked(h bitvec.Vec, r Result) {
	fp := bitvec.KeyHash(h)
	if ei := c.findLocked(h, fp); ei >= 0 {
		c.ents[ei].res = r
		return
	}
	var ei int32
	if c.n >= c.cap {
		// Evict the oldest entry and reuse its dense index (and, when the
		// layouts agree, its key storage) for the newcomer.
		ei = c.fifo[c.head]
		c.head++
		if c.head == c.cap {
			c.head = 0
		}
		c.n--
		c.deleteSlotLocked(c.ents[ei].key)
		c.stats.Evictions++
		if len(c.ents[ei].key) == len(h) {
			copy(c.ents[ei].key, h)
		} else {
			c.ents[ei].key = h.Clone()
		}
		c.ents[ei].res = r
	} else {
		ei = int32(len(c.ents))
		c.ents = append(c.ents, entry{key: h.Clone(), res: r})
	}
	c.insertSlotLocked(fp, ei)
	c.fifo[(c.head+c.n)%c.cap] = ei
	c.n++
}

// insertSlotLocked places entry index ei at the first free cell of fp's
// probe chain.
func (c *Cache) insertSlotLocked(fp uint64, ei int32) {
	m := uint64(len(c.slots) - 1)
	for i := fp & m; ; i = (i + 1) & m {
		if c.slots[i] < 0 {
			c.slots[i], c.fps[i] = ei, fp
			return
		}
	}
}

// deleteSlotLocked removes the slot holding key, compacting the probe
// cluster behind it (backward-shift deletion, no tombstones).
func (c *Cache) deleteSlotLocked(key bitvec.Vec) {
	fp := bitvec.KeyHash(key)
	m := uint64(len(c.slots) - 1)
	i := fp & m
	for {
		ei := c.slots[i]
		if ei < 0 {
			return // not present; nothing to delete
		}
		if c.fps[i] == fp && c.ents[ei].key.Equal(key) {
			break
		}
		i = (i + 1) & m
	}
	j := i
	for {
		j = (j + 1) & m
		if c.slots[j] < 0 {
			break
		}
		// The element at j may fill the hole at i iff its home cell is
		// cyclically at or before i.
		if (j-c.fps[j])&m >= (j-i)&m {
			c.slots[i], c.fps[i] = c.slots[j], c.fps[j]
			i = j
		}
	}
	c.slots[i] = -1
}

// Len returns the number of cached headers.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// flushLocked empties the cache, resetting the hash table, the dense
// entry storage, and the FIFO eviction state together so later inserts
// rebuild the insertion order from scratch. Activity counters (hits,
// misses, evictions) are cumulative and survive a flush.
func (c *Cache) flushLocked() {
	for i := range c.slots {
		c.slots[i] = -1
	}
	c.ents = c.ents[:0]
	c.head, c.n = 0, 0
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
