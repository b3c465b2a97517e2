package upcall

// Flow-setup latency instrumentation. A cache miss that sits behind a
// flooded upcall backlog pays queueing delay before its megaflow installs,
// so slow-path saturation destroys short-flow completion times even when
// throughput holds. Each admitted upcall is stamped with its enqueue tick
// (item.now — coalesced misses share the first miss's stamp, exactly as
// they share its megaflow install), and the residence — pop tick minus
// enqueue tick — is recorded into a per-source fixed-bucket histogram when
// a handler pops it. The revalidator reads the same histograms as the
// backlog-residence control signal of the adaptive quota loop.

// LatencyBuckets is the number of fixed histogram buckets. The simulator's
// clock is one-virtual-second grained, so bucket k counts upcalls that
// waited exactly k seconds, k in [0, LatencyBuckets-1); the last bucket is
// the overflow (>= LatencyBuckets-1 seconds — a backlog deeper than any
// scenario's idle horizon).
const LatencyBuckets = 16

// LatencyHist is a fixed-bucket histogram of upcall residence times in
// virtual seconds. The zero value is an empty histogram; it is a plain
// value type, so snapshot copies (Stats, PerSource) carry it without
// aliasing.
type LatencyHist struct {
	// Buckets[k] counts observations of k seconds; the last bucket
	// overflows.
	Buckets [LatencyBuckets]uint64
	// Count and Sum aggregate all observations (Sum in virtual seconds,
	// unclamped by the overflow bucket) so the mean stays exact.
	Count, Sum uint64
	// MaxSec is the largest residence observed.
	MaxSec int64
}

// Observe records one residence time; negative values clamp to zero (a
// clock that has not caught up with the item's enqueue stamp).
func (h *LatencyHist) Observe(sec int64) {
	if sec < 0 {
		sec = 0
	}
	b := sec
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += uint64(sec)
	if sec > h.MaxSec {
		h.MaxSec = sec
	}
}

// Quantile returns the smallest bucket lower bound b such that at least
// q*Count observations are <= b — the residence the q-quantile flow setup
// waited, in whole virtual seconds. An empty histogram returns -1.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Ceiling rank: the observation at position ceil(q*Count) (1-based).
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < LatencyBuckets; b++ {
		cum += h.Buckets[b]
		if cum >= rank {
			return int64(b)
		}
	}
	return LatencyBuckets - 1
}

// P50 is the median residence in virtual seconds (-1 when empty).
func (h *LatencyHist) P50() int64 { return h.Quantile(0.50) }

// P99 is the 99th-percentile residence in virtual seconds (-1 when empty).
func (h *LatencyHist) P99() int64 { return h.Quantile(0.99) }

// Mean is the average residence in virtual seconds (0 when empty).
func (h *LatencyHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Delta returns the histogram of observations recorded since prev, where
// prev is an earlier snapshot of the same histogram — the per-interval
// series the dataplane sampler and the revalidator's residence sensor
// both fold from cumulative snapshots.
func (h LatencyHist) Delta(prev LatencyHist) LatencyHist {
	d := LatencyHist{
		Count:  h.Count - prev.Count,
		Sum:    h.Sum - prev.Sum,
		MaxSec: h.MaxSec, // high-water mark; not differentiable
	}
	for b := range h.Buckets {
		d.Buckets[b] = h.Buckets[b] - prev.Buckets[b]
	}
	return d
}
