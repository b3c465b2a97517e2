package flowtable

import (
	"fmt"
	"strings"

	"tse/internal/bitvec"
)

// This file constructs the paper's example ACLs so that tests, examples,
// benchmarks, and the attack generators all share one definition.

// Fig1 returns the sample flow table of Fig. 1: over the 3-bit HYP
// protocol, allow header 001 and deny everything else
// ("Whitelist+DefaultDeny").
func Fig1() *Table {
	t := New(bitvec.HYP)
	t.MustAdd(&Rule{Name: "#1", Priority: 10, Action: Allow,
		Key: fieldVal(bitvec.HYP, 0, 1), Mask: bitvec.FieldMask(bitvec.HYP, 0)})
	t.MustAdd(&Rule{Name: "#2", Priority: 0, Action: Drop,
		Key: bitvec.NewVec(bitvec.HYP), Mask: bitvec.NewVec(bitvec.HYP)})
	return t
}

// Fig4 returns the two-header ACL of Fig. 4: allow HYP=001 (any HYP2),
// allow HYP2=1111 (any HYP), deny the rest.
func Fig4() *Table {
	l := bitvec.HYP2
	t := New(l)
	t.MustAdd(&Rule{Name: "#1", Priority: 20, Action: Allow,
		Key: fieldVal(l, 0, 1), Mask: bitvec.FieldMask(l, 0)})
	t.MustAdd(&Rule{Name: "#2", Priority: 10, Action: Allow,
		Key: fieldVal(l, 1, 0xf), Mask: bitvec.FieldMask(l, 1)})
	t.MustAdd(&Rule{Name: "#3", Priority: 0, Action: Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	return t
}

// ACLParams parameterises the Fig. 6-style tenant ACL. Zero value gives
// the paper's literal example: allow dst port 80, allow source
// 10.0.0.1, allow src port 12345, default deny. Rule #2's source address
// is always the paper's 10.0.0.1.
type ACLParams struct {
	// SrcPort is the allowed transport source port of rule #3
	// (default 12345).
	SrcPort uint16
	// DstPort is the allowed transport destination port of rule #1
	// (default 80).
	DstPort uint16
}

func (p ACLParams) withDefaults() ACLParams {
	if p.SrcPort == 0 {
		p.SrcPort = 12345
	}
	if p.DstPort == 0 {
		p.DstPort = 80
	}
	return p
}

// UseCase names the evaluation scenarios of §5.2, each a subset of the
// Fig. 6 ACL and a set of header fields the adversarial trace targets.
type UseCase int

const (
	// Baseline: rule #1 + DefaultDeny, benign traffic only. 1 MFC mask.
	Baseline UseCase = iota
	// Dp attacks the 16-bit destination port (rules #1, #4). ~17 masks.
	Dp
	// SpDp attacks source and destination ports (rules #1, #3, #4).
	// ~16*16 = 256 masks.
	SpDp
	// SipDp attacks source IP and destination port (rules #1, #2, #4).
	// ~32*16 = 512 masks.
	SipDp
	// SipSpDp is the full-blown attack on all three fields (Fig. 6).
	// ~32*16*16 = 8192 masks.
	SipSpDp
)

// String returns the scenario name as used in the paper's figures.
func (u UseCase) String() string {
	switch u {
	case Baseline:
		return "Baseline"
	case Dp:
		return "Dp"
	case SpDp:
		return "SpDp"
	case SipDp:
		return "SipDp"
	case SipSpDp:
		return "SipSpDp"
	default:
		return fmt.Sprintf("UseCase(%d)", int(u))
	}
}

// UseCases lists all scenarios in the order the paper presents them.
var UseCases = []UseCase{Baseline, Dp, SpDp, SipDp, SipSpDp}

// ParseUseCase resolves a scenario name case-insensitively ("sipdp" ->
// SipDp). Used by the CLI tools.
func ParseUseCase(s string) (UseCase, error) {
	for _, u := range UseCases {
		if strings.EqualFold(u.String(), s) {
			return u, nil
		}
	}
	return 0, fmt.Errorf("flowtable: unknown use case %q (want Baseline, Dp, SpDp, SipDp, or SipSpDp)", s)
}

// Fig6 returns the full ACL of Fig. 6 over the IPv4 5-tuple.
func Fig6() *Table { return UseCaseACL(SipSpDp, ACLParams{}) }

// UseCaseACL builds the ACL for one §5.2 scenario. The returned table
// always ends in the DefaultDeny rule #4.
func UseCaseACL(u UseCase, p ACLParams) *Table {
	p = p.withDefaults()
	l := bitvec.IPv4Tuple
	t := New(l)
	sip, _ := l.FieldIndex("ip_src")
	sp, _ := l.FieldIndex("tp_src")
	dp, _ := l.FieldIndex("tp_dst")

	// Rule #1: * * 80 -> allow (present in every scenario).
	t.MustAdd(&Rule{Name: "#1", Priority: 40, Action: Allow,
		Key: fieldVal(l, dp, uint64(p.DstPort)), Mask: bitvec.FieldMask(l, dp)})

	if u == SipDp || u == SipSpDp {
		// Rule #2: 10.0.0.1 * * -> allow.
		t.MustAdd(&Rule{Name: "#2", Priority: 30, Action: Allow,
			Key: fieldVal(l, sip, 0x0a000001), Mask: bitvec.FieldMask(l, sip)})
	}
	if u == SpDp || u == SipSpDp {
		// Rule #3: * 12345 * -> allow.
		t.MustAdd(&Rule{Name: "#3", Priority: 20, Action: Allow,
			Key: fieldVal(l, sp, uint64(p.SrcPort)), Mask: bitvec.FieldMask(l, sp)})
	}

	// Rule #4: * * * -> deny.
	t.MustAdd(&Rule{Name: "#4", Priority: 0, Action: Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	return t
}

// TargetFields returns the layout field indices the adversarial trace
// randomises/inverts for the scenario (§5.2): the fields the ACL's allow
// rules match on, excluding rule #1's destination port for Baseline where
// no attack traffic is sent.
func TargetFields(u UseCase) []string {
	switch u {
	case Baseline:
		return nil
	case Dp:
		return []string{"tp_dst"}
	case SpDp:
		return []string{"tp_src", "tp_dst"}
	case SipDp:
		return []string{"ip_src", "tp_dst"}
	case SipSpDp:
		return []string{"ip_src", "tp_src", "tp_dst"}
	default:
		return nil
	}
}

// DenyMaskProduct returns the paper's back-of-envelope attainable deny-mask
// count for a scenario: the product of targeted field widths (Thm. 4.2 with
// k_i = w_i). Dp: 16, SpDp: 256, SipDp: 512, SipSpDp: 8192.
func DenyMaskProduct(u UseCase) int {
	prod := 1
	for _, name := range TargetFields(u) {
		i, ok := bitvec.IPv4Tuple.FieldIndex(name)
		if !ok {
			panic("flowtable: unknown target field " + name)
		}
		prod *= bitvec.IPv4Tuple.Field(i).Width
	}
	if u == Baseline {
		return 1
	}
	return prod
}

// fieldVal builds a key with field f set to val and all else zero.
func fieldVal(l *bitvec.Layout, f int, val uint64) bitvec.Vec {
	v := bitvec.NewVec(l)
	v.SetField(l, f, val)
	return v
}
