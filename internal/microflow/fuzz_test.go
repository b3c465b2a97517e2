package microflow

import (
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// fuzzUniverse is how many distinct headers a FuzzCacheOps input names: few
// enough that lookups hit and inserts refresh, more than any capacity it
// picks so the FIFO evicts.
const fuzzUniverse = 24

// cacheModel is the reference FuzzCacheOps holds a Cache to: the cached
// headers (by ipv4 index) in insertion order, their results, the
// generation rule, and a copy of the insertion draw from the same seed.
type cacheModel struct {
	cap   int
	fifo  []int // oldest first
	res   map[int]Result
	gen   uint64
	draw  uint64
	stats Stats
}

func (m *cacheModel) admit() bool {
	x := m.draw
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.draw = x
	return x>>32 < (1<<32)/insertInvProb
}

func (m *cacheModel) store(v int, r Result) {
	if _, ok := m.res[v]; ok {
		m.res[v] = r
		return
	}
	if len(m.fifo) == m.cap {
		delete(m.res, m.fifo[0])
		m.fifo = m.fifo[1:]
		m.stats.Evictions++
	}
	m.fifo = append(m.fifo, v)
	m.res[v] = r
}

func (m *cacheModel) lookup(v int) (Result, bool) {
	r, ok := m.res[v]
	if ok {
		m.stats.Hits++
	} else {
		m.stats.Misses++
	}
	return r, ok
}

// checkCache compares c's store with the model without touching c's
// counters: the same entries with the same results, the FIFO ring in the
// model's order, every live entry reachable from its fingerprint's home
// cell (a backward-shift deletion that dropped one shows here), exactly
// Len occupied slots, and Len within the capacity.
func checkCache(t *testing.T, c *Cache, m *cacheModel) {
	t.Helper()
	if c.Len() != len(m.fifo) || c.Len() > c.cap {
		t.Fatalf("Len %d, model %d, capacity %d", c.Len(), len(m.fifo), c.cap)
	}
	for k, v := range m.fifo {
		h := ipv4(v)
		ei := c.find(h, bitvec.KeyHash(h))
		if ei < 0 {
			t.Fatalf("header %d is cached in the model but not found", v)
		}
		if c.ents[ei].res != m.res[v] {
			t.Fatalf("header %d: result %+v, model %+v", v, c.ents[ei].res, m.res[v])
		}
		if got := c.fifo[(c.head+k)%c.cap]; got != ei {
			t.Fatalf("FIFO position %d holds entry %d, want header %d's entry %d", k, got, v, ei)
		}
	}
	occupied := 0
	for _, ei := range c.slots {
		if ei >= 0 {
			occupied++
		}
	}
	if occupied != c.Len() {
		t.Fatalf("%d occupied slots for %d entries", occupied, c.Len())
	}
	if c.Stats() != m.stats {
		t.Fatalf("Stats %+v, model %+v", c.Stats(), m.stats)
	}
}

// FuzzCacheOps runs input-chosen sequences of Insert, InsertAt, Sync,
// Lookup, LookupBatch and Len against cacheModel, on a capacity of 1 to 8
// (a slot table of 8 or 16 cells, so probe chains cluster and wrap). Each
// op is three bytes: the op, a header index and an argument. Insert and
// InsertAt are offered repeatedly so that the 1-in-100 draw admits some;
// a forced store (the test helper put) admits unconditionally.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{3, 4, 1, 0, 4, 2, 0, 4, 5, 0, 4, 6, 0, 3, 1, 9, 3, 5, 9})
	f.Add([]byte{0, 0, 9, 255, 1, 8, 255, 2, 1, 6, 1, 2, 255, 3, 0, 8, 5, 2, 0})
	f.Add([]byte{7, 2, 0, 1, 4, 3, 0, 4, 11, 0, 2, 1, 4, 4, 3, 1, 3, 3, 8, 4, 13, 0, 3, 11, 8})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 1+3*(8+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])%8
		data = data[1:]
		c := New(capacity)
		m := &cacheModel{cap: capacity, res: map[int]Result{}, draw: drawSeed}
		gens := []Gen{c.Sync(0, true)}
		var hs []bitvec.Vec
		var res []Result
		var ok []bool
		for ; len(data) >= 3; data = data[3:] {
			op, v, arg := data[0]%6, int(data[1])%fuzzUniverse, int(data[2])
			r := Result{Action: flowtable.Action(arg % 3), OutPort: arg}
			switch op {
			case 0: // Insert, offered 1 + arg offers
				for n := 0; n <= arg; n++ {
					c.Insert(ipv4(v), r)
					if m.admit() {
						m.store(v, r)
					}
				}
			case 1: // InsertAt a generation Sync handed out
				g := gens[arg%len(gens)]
				for n := 0; n <= arg; n++ {
					c.InsertAt(g, ipv4(v), r)
					if g.open && m.admit() && g.seq == m.gen {
						m.store(v, r)
					}
				}
			case 2: // Sync to a lagging, the current or a newer generation
				seq := m.gen + uint64(arg%3)
				if seq > 0 {
					seq--
				}
				if seq > m.gen {
					m.fifo, m.res, m.gen = m.fifo[:0], map[int]Result{}, seq
				}
				gens = append(gens, c.Sync(seq, arg&8 == 0))
				if len(gens) > 4 {
					gens = gens[1:]
				}
			case 3: // LookupBatch of up to 8 headers from v on
				hs, res, ok = hs[:0], res[:0], ok[:0]
				for k := 0; k < arg%9; k++ {
					hs = append(hs, ipv4((v+k*(1+arg%5))%fuzzUniverse))
					res, ok = append(res, Result{}), append(ok, false)
				}
				hits, want := c.LookupBatch(hs, res, ok), 0
				for k := range hs {
					mr, mok := m.lookup((v + k*(1+arg%5)) % fuzzUniverse)
					if ok[k] != mok || res[k] != mr {
						t.Fatalf("LookupBatch[%d] = %+v/%v, model %+v/%v", k, res[k], ok[k], mr, mok)
					}
					if ok[k] {
						want++
					}
				}
				if hits != want {
					t.Fatalf("LookupBatch returned %d hits, %d ok", hits, want)
				}
			case 4: // a store past the draw
				put(c, ipv4(v), r)
				m.store(v, r)
			case 5:
				got, gok := c.Lookup(ipv4(v))
				if want, wok := m.lookup(v); gok != wok || got != want {
					t.Fatalf("Lookup(%d) = %+v/%v, model %+v/%v", v, got, gok, want, wok)
				}
			}
			checkCache(t, c, m)
		}
	})
}
