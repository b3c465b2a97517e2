package tss

import (
	"slices"
	"sort"
)

// chunkCap is the capacity of one probe-mirror chunk. The mirror is a
// directory of chunks rather than one flat array so that a publish copies
// only the chunks a write touched plus the directory (about 33 entries at
// the attack's 8 209 masks), not all |M| records: 256 records of 48 bytes
// keep a chunk's copy at 12 kB, while the scan still runs its call-free
// inner loop over hundreds of records between chunk boundaries.
const chunkCap = 256

// chunk is one writer-side piece of the probe mirror, in scan order.
type chunk struct {
	recs []scanProbe
	// own reports that recs was allocated since the last publish, so no
	// snapshot can see it and the writer may mutate it in place; a shared
	// chunk is copied first (writableLocked).
	own bool
}

// publishLocked publishes the writer-side mirror as the next snapshot.
// Called under the writer lock after every mutation. The snapshot shares
// every chunk with the mirror; what the publish pays for is the directory
// plus the chunks written since the last publish (Stats.ProbesCopied),
// which are frozen here along with the groups touched since then, so later
// writers copy before mutating (readers may scan this snapshot
// indefinitely).
func (c *Classifier) publishLocked() {
	sn := &snapshot{chunks: make([][]scanProbe, len(c.dir)), masks: c.masks, nEntry: c.nEntry}
	for i := range c.dir {
		ch := &c.dir[i]
		if ch.own {
			c.probesCopied += uint64(len(ch.recs))
			ch.own = false
		}
		sn.chunks[i] = ch.recs
	}
	for _, g := range c.thawed {
		g.frozen = true
	}
	c.thawed = c.thawed[:0]
	c.published++
	c.snap.Store(sn)
}

// hashBefore reports whether g sorts strictly before (hash, maskKey) in
// OrderHash scan order.
func hashBefore(g *group, hash uint64, maskKey string) bool {
	if g.hash != hash {
		return g.hash < hash
	}
	return g.maskKey < maskKey
}

// searchLocked returns the OrderHash position of (hash, maskKey): chunk
// ci and record k of the first record not ordered before it, or the end
// of the last chunk. Two binary searches: over the chunks' last records,
// then within the chunk.
func (c *Classifier) searchLocked(hash uint64, maskKey string) (ci, k int) {
	ci = sort.Search(len(c.dir), func(i int) bool {
		recs := c.dir[i].recs
		return !hashBefore(recs[len(recs)-1].g, hash, maskKey)
	})
	if ci == len(c.dir) {
		return c.endLocked()
	}
	recs := c.dir[ci].recs
	return ci, sort.Search(len(recs), func(j int) bool { return !hashBefore(recs[j].g, hash, maskKey) })
}

// endLocked returns the position one past the last record.
func (c *Classifier) endLocked() (ci, k int) {
	if len(c.dir) == 0 {
		return 0, 0
	}
	ci = len(c.dir) - 1
	return ci, len(c.dir[ci].recs)
}

// locateLocked returns the mirror position of g, which must be installed:
// a binary search under OrderHash, a walk comparing group pointers under
// the other (ablation) orders.
func (c *Classifier) locateLocked(g *group) (ci, k int) {
	if c.opts.Order == OrderHash {
		return c.searchLocked(g.hash, g.maskKey)
	}
	for ci := range c.dir {
		for k := range c.dir[ci].recs {
			if c.dir[ci].recs[k].g == g {
				return ci, k
			}
		}
	}
	panic("tss: group missing from the probe mirror")
}

// writableLocked returns chunk ci's records for in-place mutation, first
// copying them (with room for one insert) if a snapshot shares them.
func (c *Classifier) writableLocked(ci int) []scanProbe {
	ch := &c.dir[ci]
	if !ch.own {
		ch.recs = append(make([]scanProbe, 0, len(ch.recs)+1), ch.recs...)
		ch.own = true
	}
	return ch.recs
}

// setProbeLocked refreshes the record at (ci, k) from g's current state.
func (c *Classifier) setProbeLocked(ci, k int, g *group) {
	c.writableLocked(ci)[k] = buildProbe(g)
}

// insertProbeLocked inserts p at (ci, k), splitting a chunk that outgrows
// chunkCap into two halves.
func (c *Classifier) insertProbeLocked(ci, k int, p scanProbe) {
	c.masks++
	if len(c.dir) == 0 {
		c.dir = append(c.dir, chunk{recs: []scanProbe{p}, own: true})
		return
	}
	recs := slices.Insert(c.writableLocked(ci), k, p)
	if len(recs) <= chunkCap {
		c.dir[ci].recs = recs
		return
	}
	half := len(recs) / 2
	right := slices.Clone(recs[half:])
	clear(recs[half:]) // the left half's spare capacity must not pin groups
	c.dir[ci].recs = recs[:half]
	c.dir = slices.Insert(c.dir, ci+1, chunk{recs: right, own: true})
}

// removeProbeLocked deletes the record at (ci, k), dropping its chunk if
// it empties, and repacks a mirror left mostly empty.
func (c *Classifier) removeProbeLocked(ci, k int) {
	c.masks--
	if recs := slices.Delete(c.writableLocked(ci), k, k+1); len(recs) > 0 {
		c.dir[ci].recs = recs
	} else {
		c.dir = slices.Delete(c.dir, ci, ci+1)
	}
	c.repackLocked()
}

// repackLocked rebuilds the mirror as full chunks once deletions have left
// the average chunk under a quarter full, so the directory stays
// O(|M|/chunkCap) long and scans keep their long call-free runs. Splits
// keep chunks at least half full, so at least half the records must go
// between two repacks: the copy is amortised over those deletions.
func (c *Classifier) repackLocked() {
	if len(c.dir) > 1 && len(c.dir)*chunkCap > 4*c.masks {
		c.rechunkLocked(c.flattenLocked())
	}
}

// flattenLocked returns a fresh array holding every record in scan order.
func (c *Classifier) flattenLocked() []scanProbe {
	recs := make([]scanProbe, 0, c.masks)
	for _, ch := range c.dir {
		recs = append(recs, ch.recs...)
	}
	return recs
}

// rechunkLocked rebuilds the directory as full chunks over recs, a fresh
// array nothing else references. Each chunk's capacity ends at its last
// record, so an in-place insert can never spill into its neighbour.
func (c *Classifier) rechunkLocked(recs []scanProbe) {
	clear(c.dir)
	c.dir = c.dir[:0]
	for len(recs) > 0 {
		n := min(len(recs), chunkCap)
		c.dir = append(c.dir, chunk{recs: recs[:n:n], own: true})
		recs = recs[n:]
	}
}

// thawLocked returns a group safe to mutate under the writer lock: g
// itself if it has never been published, else a clone wired into the mask
// index in its place (copy-on-write; the published snapshot keeps the
// frozen original). The caller refreshes g's mirror record afterwards.
func (c *Classifier) thawLocked(g *group) *group {
	if !g.frozen {
		return g
	}
	ng := g.clone(&c.slotsCopied)
	c.byMask[ng.maskKey] = ng
	c.thawed = append(c.thawed, ng)
	return ng
}

// mutableLocked is thawLocked plus g's mirror position.
func (c *Classifier) mutableLocked(g *group) (ng *group, ci, k int) {
	ci, k = c.locateLocked(g)
	return c.thawLocked(g), ci, k
}
