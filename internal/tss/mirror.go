package tss

import (
	"slices"
	"sort"
)

// chunkCap is the capacity of one probe-mirror chunk. The mirror is a
// directory of chunks rather than one flat array so that a publish copies
// only the chunks a write touched plus the directory (about 33 entries at
// the attack's 8 209 masks), not all |M| records: 256 records of 24 hot
// and 40 side bytes keep a chunk's copy at 16 kB, while the scan still
// runs its call-free inner loop over hundreds of records between chunk
// boundaries.
const chunkCap = 256

// records is a run of probe records in scan order, held as two parallel
// arrays: record k is hot[k], the pointer-free part the scan streams, and
// side[k], the part it reads only when hot[k] cannot decide the probe.
type records struct {
	hot  []scanProbe
	side []probeSide
}

// head returns the first k records, sharing (and able to grow into) r's
// arrays.
func (r records) head(k int) records { return records{r.hot[:k], r.side[:k]} }

// clone returns a copy of r with room for extra more records.
func (r records) clone(extra int) records {
	n := len(r.hot)
	return records{
		hot:  append(make([]scanProbe, 0, n+extra), r.hot...),
		side: append(make([]probeSide, 0, n+extra), r.side...),
	}
}

// chunk is one writer-side piece of the probe mirror, in scan order.
type chunk struct {
	records
	// own reports that the arrays were allocated since the last publish, so
	// no snapshot can see them and the writer may mutate them in place; a
	// shared chunk is copied first (writableLocked).
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
	sn := &snapshot{chunks: make([]records, len(c.dir)), masks: c.masks, nEntry: c.nEntry}
	sn.prune = c.prune.publish()
	for i := range c.dir {
		ch := &c.dir[i]
		if ch.own {
			c.probesCopied += uint64(len(ch.hot))
			ch.own = false
		}
		sn.chunks[i] = ch.records
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
		side := c.dir[i].side
		return !hashBefore(side[len(side)-1].g, hash, maskKey)
	})
	if ci == len(c.dir) {
		return c.endLocked()
	}
	side := c.dir[ci].side
	return ci, sort.Search(len(side), func(j int) bool { return !hashBefore(side[j].g, hash, maskKey) })
}

// endLocked returns the position one past the last record.
func (c *Classifier) endLocked() (ci, k int) {
	if len(c.dir) == 0 {
		return 0, 0
	}
	ci = len(c.dir) - 1
	return ci, len(c.dir[ci].hot)
}

// locateLocked returns the mirror position of g, which must be installed:
// a binary search under OrderHash, a walk comparing group pointers under
// OrderInsertion.
func (c *Classifier) locateLocked(g *group) (ci, k int) {
	if c.opts.Order == OrderHash {
		return c.searchLocked(g.hash, g.maskKey)
	}
	for ci := range c.dir {
		for k := range c.dir[ci].side {
			if c.dir[ci].side[k].g == g {
				return ci, k
			}
		}
	}
	panic("tss: group missing from the probe mirror")
}

// writableLocked returns chunk ci's records for in-place mutation, first
// copying them (with room for one insert) if a snapshot shares them.
func (c *Classifier) writableLocked(ci int) records {
	ch := &c.dir[ci]
	if !ch.own {
		ch.records = ch.clone(1)
		ch.own = true
	}
	return ch.records
}

// setProbeLocked refreshes the record at (ci, k) from g's current state.
func (c *Classifier) setProbeLocked(ci, k int, g *group) {
	r := c.writableLocked(ci)
	r.hot[k], r.side[k] = buildProbe(g)
}

// insertProbeLocked inserts g's record at (ci, k), splitting a chunk that
// outgrows chunkCap into two halves.
func (c *Classifier) insertProbeLocked(ci, k int, g *group) {
	c.masks++
	p, s := buildProbe(g)
	if len(c.dir) == 0 {
		c.dir = append(c.dir, chunk{records: records{[]scanProbe{p}, []probeSide{s}}, own: true})
		return
	}
	r := c.writableLocked(ci)
	r.hot = slices.Insert(r.hot, k, p)
	r.side = slices.Insert(r.side, k, s)
	if len(r.hot) <= chunkCap {
		c.dir[ci].records = r
		return
	}
	half := len(r.hot) / 2
	right := records{slices.Clone(r.hot[half:]), slices.Clone(r.side[half:])}
	clear(r.side[half:]) // the left half's spare capacity must not pin groups
	c.dir[ci].records = r.head(half)
	c.dir = slices.Insert(c.dir, ci+1, chunk{records: right, own: true})
}

// removeProbeLocked deletes the record at (ci, k), dropping its chunk if
// it empties, and repacks a mirror left mostly empty.
func (c *Classifier) removeProbeLocked(ci, k int) {
	c.masks--
	r := c.writableLocked(ci)
	r.hot = slices.Delete(r.hot, k, k+1)
	r.side = slices.Delete(r.side, k, k+1)
	if len(r.hot) > 0 {
		c.dir[ci].records = r
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

// flattenLocked returns fresh arrays holding every record in scan order.
func (c *Classifier) flattenLocked() records {
	r := records{make([]scanProbe, 0, c.masks), make([]probeSide, 0, c.masks)}
	for _, ch := range c.dir {
		r.hot = append(r.hot, ch.hot...)
		r.side = append(r.side, ch.side...)
	}
	return r
}

// rechunkLocked rebuilds the directory as full chunks over r, fresh arrays
// nothing else references. Each chunk's capacity ends at its last record,
// so an in-place insert can never spill into its neighbour.
func (c *Classifier) rechunkLocked(r records) {
	clear(c.dir)
	c.dir = c.dir[:0]
	for len(r.hot) > 0 {
		n := min(len(r.hot), chunkCap)
		c.dir = append(c.dir, chunk{records: records{r.hot[:n:n], r.side[:n:n]}, own: true})
		r = records{r.hot[n:], r.side[n:]}
	}
}

// thawLocked returns a group safe to mutate under the writer lock: g
// itself if it has never been published, else a clone wired into the mask
// index in its place (copy-on-write; the published snapshot keeps the
// frozen original), and into the pruning index. The caller refreshes g's
// mirror record afterwards.
func (c *Classifier) thawLocked(g *group) *group {
	if !g.frozen {
		return g
	}
	ng := g.clone(&c.copies)
	c.byMask[ng.maskKey] = ng
	c.thawed = append(c.thawed, ng)
	c.prune.replace(ng)
	return ng
}

// mutableLocked is thawLocked plus g's mirror position.
func (c *Classifier) mutableLocked(g *group) (ng *group, ci, k int) {
	ci, k = c.locateLocked(g)
	return c.thawLocked(g), ci, k
}
