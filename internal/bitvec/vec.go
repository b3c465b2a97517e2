package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a fixed-width bit vector over some Layout: a packet header, a
// lookup key, or a wildcard mask. The global bit index b lives in word
// b/64 at bit position b%64 counted from the least significant bit; callers
// never need to know this, all access goes through Layout-aware methods.
//
// A Vec does not carry its Layout; the caller supplies it. This keeps Vec a
// plain slice (cheap to hash and to use as a map key via Key()).
type Vec []uint64

// NewVec returns an all-zero Vec sized for the layout.
func NewVec(l *Layout) Vec { return make(Vec, l.Words()) }

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Key returns a string usable as a map key. Two Vecs of the same length
// have equal Keys iff they are bit-for-bit equal.
func (v Vec) Key() string {
	return string(v.AppendKey(make([]byte, 0, len(v)*8)))
}

// AppendKey appends v's Key bytes to b and returns the extended buffer. A
// map indexed by Key can be read through a reused buffer without
// allocating: m[string(v.AppendKey(buf[:0]))].
func (v Vec) AppendKey(b []byte) []byte {
	for _, w := range v {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Bit reports whether global bit index b is set.
func (v Vec) Bit(b int) bool { return v[b/64]>>(uint(b)%64)&1 == 1 }

// SetBit sets global bit index b.
func (v Vec) SetBit(b int) { v[b/64] |= 1 << (uint(b) % 64) }

// ClearBit clears global bit index b.
func (v Vec) ClearBit(b int) { v[b/64] &^= 1 << (uint(b) % 64) }

// FieldBit reports whether bit i (0 = MSB) of field f is set.
func (v Vec) FieldBit(l *Layout, f, i int) bool {
	return v.Bit(l.offsets[f] + i)
}

// SetFieldBit sets bit i (0 = MSB) of field f.
func (v Vec) SetFieldBit(l *Layout, f, i int) {
	v.SetBit(l.offsets[f] + i)
}

// ClearFieldBit clears bit i (0 = MSB) of field f.
func (v Vec) ClearFieldBit(l *Layout, f, i int) {
	v.ClearBit(l.offsets[f] + i)
}

// FlipFieldBit inverts bit i (0 = MSB) of field f. This is the elementary
// operation of the paper's bit-inversion adversarial trace (§5.1).
func (v Vec) FlipFieldBit(l *Layout, f, i int) {
	b := l.offsets[f] + i
	v[b/64] ^= 1 << (uint(b) % 64)
}

// SetField stores val into field f. Only the low Width bits of val are
// used; bit Width-1 of the stored value lands on the field's LSB. Panics if
// the field is wider than 64 bits (use SetFieldBytes for those).
func (v Vec) SetField(l *Layout, f int, val uint64) {
	w := l.fields[f].Width
	if w > 64 {
		panic(fmt.Sprintf("bitvec: SetField on %d-bit field %q; use SetFieldBytes", w, l.fields[f].Name))
	}
	for i := 0; i < w; i++ {
		// Bit i (MSB-first) corresponds to value bit w-1-i.
		if val>>(uint(w-1-i))&1 == 1 {
			v.SetFieldBit(l, f, i)
		} else {
			v.ClearFieldBit(l, f, i)
		}
	}
}

// FieldUint64 extracts field f as an unsigned integer. Panics if the field
// is wider than 64 bits.
func (v Vec) FieldUint64(l *Layout, f int) uint64 {
	w := l.fields[f].Width
	if w > 64 {
		panic(fmt.Sprintf("bitvec: FieldUint64 on %d-bit field %q; use FieldBytes", w, l.fields[f].Name))
	}
	var val uint64
	for i := 0; i < w; i++ {
		val <<= 1
		if v.FieldBit(l, f, i) {
			val |= 1
		}
	}
	return val
}

// SetFieldBytes stores a big-endian byte string into field f. The field
// width must equal 8*len(b). Used for 128-bit IPv6 addresses.
func (v Vec) SetFieldBytes(l *Layout, f int, b []byte) {
	w := l.fields[f].Width
	if w != 8*len(b) {
		panic(fmt.Sprintf("bitvec: SetFieldBytes: field %q is %d bits, got %d bytes", l.fields[f].Name, w, len(b)))
	}
	for i := 0; i < w; i++ {
		if b[i/8]>>(7-uint(i)%8)&1 == 1 {
			v.SetFieldBit(l, f, i)
		} else {
			v.ClearFieldBit(l, f, i)
		}
	}
}

// FieldBytes extracts field f as a big-endian byte string. The field width
// must be a multiple of 8.
func (v Vec) FieldBytes(l *Layout, f int) []byte {
	w := l.fields[f].Width
	if w%8 != 0 {
		panic(fmt.Sprintf("bitvec: FieldBytes on %d-bit field %q", w, l.fields[f].Name))
	}
	b := make([]byte, w/8)
	for i := 0; i < w; i++ {
		if v.FieldBit(l, f, i) {
			b[i/8] |= 1 << (7 - uint(i)%8)
		}
	}
	return b
}

// And returns v AND o as a new Vec.
func (v Vec) And(o Vec) Vec {
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] & o[i]
	}
	return r
}

// Or returns v OR o as a new Vec.
func (v Vec) Or(o Vec) Vec {
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] | o[i]
	}
	return r
}

// AndNot returns v AND NOT o as a new Vec.
func (v Vec) AndNot(o Vec) Vec {
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] &^ o[i]
	}
	return r
}

// Equal reports bit-for-bit equality.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v Vec) OnesCount() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether every set bit of v is also set in o
// (v ⊆ o viewed as bit sets).
func (v Vec) SubsetOf(o Vec) bool {
	for i := range v {
		if v[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit hash of the vector's bits, mixed a word at a time
// (one multiply-xorshift round per 64-bit word rather than FNV's eight
// byte rounds). Used to spread masks across buckets and for RSS worker
// steering; equality must still be confirmed with Equal.
func (v Vec) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range v {
		h = (h ^ w) * prime64
		h ^= h >> 29
		h *= 0xff51afd7ed558ccd
	}
	h ^= h >> 32
	return h
}

// mixWord is the per-word mixer behind KeyHash/HashMasked: one
// multiply-xorshift round over the word value tagged with its position, so
// equal words at different indices hash differently while zero words
// contribute nothing (they are skipped by the callers). It is deliberately
// a single round — the mix only spreads bucket indices, and hash-collision
// false positives are impossible because every probe confirms with an
// exact word compare.
func mixWord(w uint64, i int) uint64 {
	x := (w ^ (uint64(i)+1)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return x ^ x>>32
}

// MixWord is the exported per-word term of KeyHash: KeyHash(v) is the XOR
// of MixWord(w, i) over v's nonzero words. Because XOR is associative, a
// caller can accumulate the hash incrementally over any partition of the
// word indices — the primitive behind the classifier's staged lookup,
// where each stage contributes its words' mixes and the running value at
// the final stage IS the full fingerprint.
func MixWord(w uint64, i int) uint64 { return mixWord(w, i) }

// KeyHash returns the bucket hash of v: the XOR of position-tagged mixes of
// its nonzero words. Because zero words contribute nothing, the same hash
// can be computed through a sparse mask without materialising the masked
// vector — HashMasked(h, m, m.NonzeroWords()) == KeyHash(h.And(m)) — which
// is what makes the classifier's zero-allocation probe possible.
func KeyHash(v Vec) uint64 {
	var h uint64
	for i, w := range v {
		if w != 0 {
			h ^= mixWord(w, i)
		}
	}
	return h
}

// NonzeroWords returns the indices of v's nonzero words, in order. For a
// sparse wildcard mask this is the per-probe work list: HashMasked and
// EqualMasked touch only these words.
func (v Vec) NonzeroWords() []int {
	var out []int
	for i, w := range v {
		if w != 0 {
			out = append(out, i)
		}
	}
	return out
}

// HashMasked returns KeyHash(h AND mask) without materialising the masked
// vector, touching only the given word indices. words must be
// mask.NonzeroWords() (or a superset covering every nonzero mask word):
// words the mask zeroes contribute nothing to KeyHash, so skipping them is
// exact, not approximate.
func HashMasked(h, mask Vec, words []int) uint64 {
	var x uint64
	for _, i := range words {
		if w := h[i] & mask[i]; w != 0 {
			x ^= mixWord(w, i)
		}
	}
	return x
}

// EqualMasked reports whether key == (h AND mask), touching only the given
// word indices. words must cover every nonzero word of mask, and key must
// be canonical for the mask (key ⊆ mask, as the classifier enforces on
// insert) so that key is zero wherever the mask is.
func EqualMasked(key, h, mask Vec, words []int) bool {
	for _, i := range words {
		if key[i] != h[i]&mask[i] {
			return false
		}
	}
	return true
}

// SparseMaskInline is the number of nonzero mask words a SparseMask stores
// inline. Every standard layout fits (IPv6Tuple is 5 words total); masks
// with more nonzero words use the slice-based HashMasked/EqualMasked
// primitives instead.
const SparseMaskInline = 6

// SparseMask is a precomputed sparse view of a wildcard mask: the nonzero
// words and their indices, stored inline (no heap indirection) so a
// classifier probe that embeds one touches no cache lines beyond its own
// struct. Hash and EqualKey are the inline-array twins of HashMasked and
// EqualMasked.
type SparseMask struct {
	n   uint8
	idx [SparseMaskInline]uint8
	w   [SparseMaskInline]uint64
}

// NewSparseMask builds the sparse view of mask. ok is false when the mask
// does not fit inline (more than SparseMaskInline nonzero words, or word
// indices beyond 255) and the caller must keep the slice-based fallback.
func NewSparseMask(mask Vec) (s SparseMask, ok bool) {
	for i, w := range mask {
		if w == 0 {
			continue
		}
		if int(s.n) == SparseMaskInline || i > 255 {
			return SparseMask{}, false
		}
		s.idx[s.n] = uint8(i)
		s.w[s.n] = w
		s.n++
	}
	return s, true
}

// N returns the number of nonzero mask words the sparse view holds.
func (s *SparseMask) N() int { return int(s.n) }

// WordIndex returns the Vec word index of sparse slot k.
func (s *SparseMask) WordIndex(k int) int { return int(s.idx[k]) }

// MaskWord returns the mask word stored at sparse slot k.
func (s *SparseMask) MaskWord(k int) uint64 { return s.w[k] }

// Hash returns KeyHash(h AND mask) without materialising the masked
// vector. Identical to HashMasked(h, mask, mask.NonzeroWords()).
func (s *SparseMask) Hash(h Vec) uint64 {
	var x uint64
	for k := uint8(0); k < s.n; k++ {
		i := int(s.idx[k])
		if w := h[i] & s.w[k]; w != 0 {
			x ^= mixWord(w, i)
		}
	}
	return x
}

// HashRange returns the partial hash contribution of sparse slots
// [from, to): the XOR of MixWord over those slots' masked header words.
// Because KeyHash is an XOR of per-word mixes, Hash(h) equals the XOR of
// HashRange(h, ...) over any partition of [0, N()) — the incremental
// property the classifier's staged lookup accumulates stage by stage.
func (s *SparseMask) HashRange(h Vec, from, to int) uint64 {
	var x uint64
	for k := from; k < to; k++ {
		i := int(s.idx[k])
		if w := h[i] & s.w[k]; w != 0 {
			x ^= mixWord(w, i)
		}
	}
	return x
}

// EqualKey reports whether key == (h AND mask), under the same key ⊆ mask
// canonicality precondition as EqualMasked.
func (s *SparseMask) EqualKey(key, h Vec) bool {
	for k := uint8(0); k < s.n; k++ {
		i := int(s.idx[k])
		if key[i] != h[i]&s.w[k] {
			return false
		}
	}
	return true
}

// Format renders the vector field by field in binary, e.g. "001|1111" for
// the HYP2 layout. Wide fields (>32 bits) are rendered in hex.
func (v Vec) Format(l *Layout) string {
	var b strings.Builder
	for f := 0; f < l.NumFields(); f++ {
		if f > 0 {
			b.WriteByte('|')
		}
		w := l.fields[f].Width
		if w <= 32 {
			for i := 0; i < w; i++ {
				if v.FieldBit(l, f, i) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		} else {
			nibbles := (w + 3) / 4
			for n := 0; n < nibbles; n++ {
				var nib uint64
				for i := n * 4; i < (n+1)*4 && i < w; i++ {
					nib <<= 1
					if v.FieldBit(l, f, i) {
						nib |= 1
					}
				}
				fmt.Fprintf(&b, "%x", nib)
			}
		}
	}
	return b.String()
}

// FormatMasked renders key/mask pairs the way the paper's figures do:
// matched bits as 0/1, wildcarded bits as '*'. For example entry #3 of
// Fig. 3 renders as "01*".
func FormatMasked(l *Layout, key, mask Vec) string {
	var b strings.Builder
	for f := 0; f < l.NumFields(); f++ {
		if f > 0 {
			b.WriteByte('|')
		}
		w := l.fields[f].Width
		for i := 0; i < w; i++ {
			switch {
			case !mask.FieldBit(l, f, i):
				b.WriteByte('*')
			case key.FieldBit(l, f, i):
				b.WriteByte('1')
			default:
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// PrefixMask returns a mask with the plen most significant bits of field f
// set and everything else clear.
func PrefixMask(l *Layout, f, plen int) Vec {
	if plen < 0 || plen > l.fields[f].Width {
		panic(fmt.Sprintf("bitvec: prefix length %d out of range for %d-bit field %q", plen, l.fields[f].Width, l.fields[f].Name))
	}
	m := NewVec(l)
	for i := 0; i < plen; i++ {
		m.SetFieldBit(l, f, i)
	}
	return m
}

// FieldMask returns a mask covering all bits of field f.
func FieldMask(l *Layout, f int) Vec {
	return PrefixMask(l, f, l.fields[f].Width)
}

// FullMask returns a mask with every bit of the layout set (exact match).
func FullMask(l *Layout) Vec {
	m := NewVec(l)
	for f := 0; f < l.NumFields(); f++ {
		for i := 0; i < l.fields[f].Width; i++ {
			m.SetFieldBit(l, f, i)
		}
	}
	return m
}

// Covers reports whether the key/mask pair matches header h:
// h AND mask == key.
func Covers(key, mask, h Vec) bool {
	for i := range h {
		if h[i]&mask[i] != key[i] {
			return false
		}
	}
	return true
}

// Overlap reports whether two key/mask pairs overlap, i.e. whether some
// header matches both. Two entries overlap iff their keys agree on the
// intersection of their masks. This is the test behind the paper's
// independence invariant Inv(2) (§3.2).
func Overlap(k1, m1, k2, m2 Vec) bool {
	for i := range k1 {
		common := m1[i] & m2[i]
		if k1[i]&common != k2[i]&common {
			return false
		}
	}
	return true
}

// ParsePattern parses a figure-style pattern such as "001", "1**", or
// "001|1111" into a key/mask pair over the layout. '|' separates fields
// (optional if widths are unambiguous: the pattern may also be given as one
// undelimited string whose total length equals the layout width). '*' is a
// wildcard bit. Used heavily in tests to state expected MFC contents
// exactly as the paper's figures print them.
func ParsePattern(l *Layout, pat string) (key, mask Vec, err error) {
	flat := strings.ReplaceAll(pat, "|", "")
	if len(flat) != l.Bits() {
		return nil, nil, fmt.Errorf("bitvec: pattern %q has %d bits, layout has %d", pat, len(flat), l.Bits())
	}
	key, mask = NewVec(l), NewVec(l)
	for b, c := range flat {
		switch c {
		case '0':
			mask.SetBit(b)
		case '1':
			mask.SetBit(b)
			key.SetBit(b)
		case '*':
		default:
			return nil, nil, fmt.Errorf("bitvec: bad pattern char %q in %q", c, pat)
		}
	}
	return key, mask, nil
}

// MustPattern is ParsePattern that panics on error; for tests and fixtures.
func MustPattern(l *Layout, pat string) (key, mask Vec) {
	key, mask, err := ParsePattern(l, pat)
	if err != nil {
		panic(err)
	}
	return key, mask
}
