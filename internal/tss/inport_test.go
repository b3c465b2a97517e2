package tss

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// portedHeader builds an IPv4TuplePort header: the ingress vport followed
// by the 5-tuple.
func portedHeader(inPort uint64, src, dst uint32, sp, dp uint64) bitvec.Vec {
	l := bitvec.IPv4TuplePort
	h := bitvec.NewVec(l)
	set := func(name string, v uint64) {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	set("in_port", inPort)
	set("ip_src", uint64(src))
	set("ip_dst", uint64(dst))
	set("ip_proto", 6)
	set("tp_src", sp)
	set("tp_dst", dp)
	return h
}

// TestInPortMatch proves ingress-port matching works end to end: two
// entries identical but for in_port are distinct flows with distinct
// verdicts, the per-port ACL shape the OVS flow key supports natively.
func TestInPortMatch(t *testing.T) {
	l := bitvec.IPv4TuplePort
	c := New(l, Options{})
	inp, _ := l.FieldIndex("in_port")
	dp, _ := l.FieldIndex("tp_dst")

	// Match (in_port, tp_dst) exactly: port 1 may reach :80, port 2 not.
	mask := bitvec.FieldMask(l, inp).Or(bitvec.FieldMask(l, dp))
	mk := func(port uint64, a flowtable.Action) *Entry {
		key := bitvec.NewVec(l)
		key.SetField(l, inp, port)
		key.SetField(l, dp, 80)
		return &Entry{Key: key, Mask: mask, Action: a, Port: int32(port)}
	}
	if err := c.Insert(mk(1, flowtable.Allow), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(mk(2, flowtable.Drop), 0); err != nil {
		t.Fatal(err)
	}
	if c.EntryCount() != 2 {
		t.Fatalf("entries = %d, want 2 (same 5-tuple, distinct ports)", c.EntryCount())
	}
	if c.MaskCount() != 1 {
		t.Fatalf("masks = %d, want 1 (both entries share the (in_port, tp_dst) mask)", c.MaskCount())
	}

	for _, tc := range []struct {
		port uint64
		want flowtable.Action
	}{{1, flowtable.Allow}, {2, flowtable.Drop}} {
		h := portedHeader(tc.port, 0x08080808, 0xc0a80002, 40000, 80)
		e, _, ok := c.Lookup(h, 0)
		if !ok {
			t.Fatalf("in_port=%d missed", tc.port)
		}
		if e.Action != tc.want {
			t.Errorf("in_port=%d -> %v, want %v", tc.port, e.Action, tc.want)
		}
	}
	// A port neither entry covers misses instead of borrowing a verdict.
	if _, _, ok := c.Lookup(portedHeader(3, 0x08080808, 0xc0a80002, 40000, 80), 0); ok {
		t.Error("in_port=3 matched; the port must be part of the flow key")
	}
}

// TestInPortStaged checks the ported layout still stages: the port-bearing
// leading word and the L4 tail are separate probe stages, so a mask
// constrained only in the leading word bails before the L4 word.
func TestInPortStaged(t *testing.T) {
	l := bitvec.IPv4TuplePort
	bounds := l.StageBoundaries()
	if len(bounds) < 2 {
		t.Fatalf("stage boundaries = %v; ported layout should stage", bounds)
	}
	if bounds[len(bounds)-1] != l.Words() {
		t.Fatalf("last boundary = %d, want word count %d", bounds[len(bounds)-1], l.Words())
	}
}
