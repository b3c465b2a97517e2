package analysis

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

// This file implements the paper's §11.3 closed-form machinery literally —
// the C_k convolution over header widths — next to the exact enumeration
// in expectation.go, plus the multi-field generalisation of the k-mask
// construction that attains the Theorem 4.2 trade-off points.

// CkConvolution computes the §11.3 combination counts for an ACL of m+1
// rules where rule i (1-based, priority descending) exact-matches header i
// of width widths[i-1] and the last rule is the DefaultDeny.
//
// It returns counts[k] = C_k, the number of distinct MFC entries whose
// mask wildcards exactly k bits of the targeted headers. Following §11.3:
// the entries covering the i-th rule hold prefix proofs for headers
// 1..i-1, an exact match on header i, and full wildcards on headers
// i+1..m; the deny entries hold prefix proofs on every header. f_i is the
// convolution of the per-header prefix choices:
//
//	f_i(u) = Σ_{j=1..min(u,h_i)} f_{i-1}(u−j),  f_0(u) = 1 if u = 0
//
// where j is the number of *wildcarded* bits contributed by header i's
// prefix (a prefix of length h_i−j), with j ≥ 1 absent only for the
// exact-match case handled by the rule's own header.
func CkConvolution(widths []int) ([]float64, error) {
	m := len(widths)
	if m == 0 {
		return nil, fmt.Errorf("analysis: no headers")
	}
	total := 0
	for _, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("analysis: non-positive width")
		}
		total += w
	}

	// prefixChoices convolves headers lo..hi-1, each contributing a
	// prefix that wildcards j ∈ [0, h-1] bits... For mismatch proofs a
	// prefix has length ≥ 1, i.e. wildcards j ≤ h−1 bits; j = h (fully
	// wildcarded) is not a valid proof. f over a set S of headers:
	// f_S(u) = #ways to pick per-header wildcard counts summing to u.
	conv := func(headers []int) []float64 {
		f := make([]float64, 1) // f[0] = 1: empty product
		f[0] = 1
		for _, h := range headers {
			nf := make([]float64, len(f)+h-1)
			for u, c := range f {
				if c == 0 {
					continue
				}
				for j := 0; j <= h-1; j++ {
					nf[u+j] += c
				}
			}
			f = nf
		}
		return f
	}

	counts := make([]float64, total+1)
	// Entries covering rule i (exact on header i, proofs on 1..i-1,
	// wildcard on i+1..m).
	for i := 1; i <= m; i++ {
		proofs := conv(widths[:i-1])
		wildTail := 0
		for _, w := range widths[i:] {
			wildTail += w
		}
		for u, c := range proofs {
			counts[u+wildTail] += c
		}
	}
	// Deny entries: proofs on every header.
	for u, c := range conv(widths) {
		counts[u] += c
	}
	return counts, nil
}

// ExpectedEntriesCk evaluates Eq. 2 with the §11.3 C_k counts: the
// expected number of MFC *entries* after n uniformly random packets over
// the targeted headers.
//
//	E = Σ_k C_k · (1 − (1 − 2^k/2^h)^n)
//
// Note this is the paper's count-by-wildcards approximation: it prices
// every entry with k wildcarded bits at the same spawn probability and
// does not deduplicate masks shared between allow and deny entries, so it
// upper-bounds the *mask* expectation of ExpectedMasks.
func ExpectedEntriesCk(widths []int, n int) (float64, error) {
	counts, err := CkConvolution(widths)
	if err != nil {
		return 0, err
	}
	h := 0
	for _, w := range widths {
		h += w
	}
	e := 0.0
	for k, c := range counts {
		if c == 0 {
			continue
		}
		e += c * PknMFC(k, h, n)
	}
	return e, nil
}

// KMaskConstructionMulti builds an order-independent TSS entry set for the
// multi-field ACL of Theorem 4.2 (one exact-match allow rule per field in
// priority order, then DefaultDeny), using k_i masks for field i. It
// attains the theorem's trade-off: Π k_i deny mask shapes and
// Π k_i·(2^{w_i/k_i}−1) deny entries (when k_i | w_i).
//
// The construction composes the single-field chunks: a deny entry picks,
// for every field, a chunk index and a non-allowed chunk value (the field
// first deviates inside that chunk); allow-rule entries pick deviations
// only for higher-priority fields and match their own field exactly.
func KMaskConstructionMulti(l *bitvec.Layout, fields []int, allowVals []uint64, ks []int) ([]*tss.Entry, error) {
	if len(fields) != len(allowVals) || len(fields) != len(ks) {
		return nil, fmt.Errorf("analysis: fields/allowVals/ks length mismatch")
	}
	// Per-field chunk machinery reused from the single-field case.
	type chunk struct {
		maskLen  int // prefix length through this chunk
		from, to int // bit range of the chunk
	}
	perField := make([][]chunk, len(fields))
	for i, f := range fields {
		w := l.Field(f).Width
		if w > 63 {
			return nil, fmt.Errorf("analysis: field too wide (%d bits)", w)
		}
		k := ks[i]
		if k < 1 || k > w {
			return nil, fmt.Errorf("analysis: k=%d out of range for %d-bit field", k, w)
		}
		for c := 1; c <= k; c++ {
			perField[i] = append(perField[i], chunk{
				maskLen: c * w / k,
				from:    (c - 1) * w / k,
				to:      c * w / k,
			})
		}
	}
	base := bitvec.NewVec(l)
	for i, f := range fields {
		base.SetField(l, f, allowVals[i])
	}

	var entries []*tss.Entry
	// For rule r (1-based; r = len(fields)+1 means DefaultDeny): fields
	// 1..r-1 deviate (chunk choice + value), field r matches exactly,
	// fields r+1.. are wildcarded.
	for r := 1; r <= len(fields)+1; r++ {
		deviating := fields[:r-1]
		action := flowtable.Allow
		if r == len(fields)+1 {
			action = flowtable.Drop
		}
		// Enumerate chunk choices for the deviating fields.
		var rec func(fi int, mask, key bitvec.Vec)
		rec = func(fi int, mask, key bitvec.Vec) {
			if fi == len(deviating) {
				m, k2 := mask.Clone(), key.Clone()
				if r <= len(fields) {
					// Exact match on the rule's own field.
					f := fields[r-1]
					for b := 0; b < l.Field(f).Width; b++ {
						m.SetFieldBit(l, f, b)
						if base.FieldBit(l, f, b) {
							k2.SetFieldBit(l, f, b)
						}
					}
				}
				entries = append(entries, &tss.Entry{Key: k2, Mask: m, Action: action})
				return
			}
			f := deviating[fi]
			idx := indexOfField(fields, f)
			for _, ch := range perField[idx] {
				// Unwildcard the prefix through this chunk; the allowed
				// value fills earlier chunks; enumerate chunk values
				// that differ from the allowed chunk.
				allowChunk := extractBits(l, base, f, ch.from, ch.to)
				span := ch.to - ch.from
				for v := uint64(0); v < 1<<uint(span); v++ {
					if v == allowChunk {
						continue
					}
					m, k2 := mask.Clone(), key.Clone()
					for b := 0; b < ch.maskLen; b++ {
						m.SetFieldBit(l, f, b)
					}
					for b := 0; b < ch.from; b++ {
						if base.FieldBit(l, f, b) {
							k2.SetFieldBit(l, f, b)
						}
					}
					setBits(l, k2, f, ch.from, ch.to, v)
					rec(fi+1, m, k2)
				}
			}
		}
		rec(0, bitvec.NewVec(l), bitvec.NewVec(l))
	}
	return entries, nil
}

func indexOfField(fields []int, f int) int {
	for i, x := range fields {
		if x == f {
			return i
		}
	}
	return -1
}
