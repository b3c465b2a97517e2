package cloud

import (
	"testing"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
)

// TestCMSMaskLimits checks the §7 attainable-mask arithmetic:
// OpenStack/Kubernetes ingress 32*16 = 512; Calico ingress adds the source
// port (8192, "already enough for a full-blown DoS"); Calico egress adds
// the destination address (~200 thousand).
func TestCMSMaskLimits(t *testing.T) {
	if got := OpenStack.MaxMasks(false); got != 512 {
		t.Errorf("OpenStack = %d, want 512", got)
	}
	if got := Kubernetes.MaxMasks(false); got != 512 {
		t.Errorf("Kubernetes = %d, want 512", got)
	}
	if got := Calico.MaxMasks(false); got != 8192 {
		t.Errorf("Calico ingress = %d, want 8192", got)
	}
	if got := Calico.MaxMasks(true); got != 262144 {
		t.Errorf("Calico egress = %d, want 262144 (~200k, §7)", got)
	}
}

func TestValidateACL(t *testing.T) {
	// SipDp (ip_src + tp_dst) is allowed everywhere.
	sipdp := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})
	if err := OpenStack.ValidateACL(sipdp); err != nil {
		t.Errorf("OpenStack rejected SipDp: %v", err)
	}
	// SipSpDp needs source-port filtering: only Calico permits it ("The
	// CMS API only allows the SipDp scenario", §5.5).
	full := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	if err := OpenStack.ValidateACL(full); err == nil {
		t.Error("OpenStack accepted source-port filtering")
	}
	if err := Kubernetes.ValidateACL(full); err == nil {
		t.Error("Kubernetes accepted source-port filtering")
	}
	if err := Calico.ValidateACL(full); err != nil {
		t.Errorf("Calico rejected SipSpDp: %v", err)
	}
}

func tenantACL(u flowtable.UseCase) *flowtable.Table {
	return flowtable.UseCaseACL(u, flowtable.ACLParams{})
}

func header(sip, dip uint32, proto, sp, dp uint64) bitvec.Vec {
	l := bitvec.IPv4Tuple
	h := bitvec.NewVec(l)
	fs := map[string]uint64{
		"ip_src": uint64(sip), "ip_dst": uint64(dip),
		"ip_proto": proto, "tp_src": sp, "tp_dst": dp,
	}
	for name, v := range fs {
		i, _ := l.FieldIndex(name)
		h.SetField(l, i, v)
	}
	return h
}

func TestHypervisorTenantIsolationSemantics(t *testing.T) {
	h, err := NewHypervisor(OpenStack)
	if err != nil {
		t.Fatal(err)
	}
	victim := &Tenant{Name: "victim", IP: 0xc0a80002, ACL: tenantACL(flowtable.SipDp)}
	attacker := &Tenant{Name: "attacker", IP: 0xc0a80003, ACL: tenantACL(flowtable.SipDp)}
	if err := h.AddTenant(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.AddTenant(attacker); err != nil {
		t.Fatal(err)
	}
	// Traffic to the victim's web port is allowed by the victim's rule #1.
	v := h.Switch().Process(header(0x08080808, 0xc0a80002, 6, 50000, 80), 0)
	if v.Action != flowtable.Allow {
		t.Errorf("victim web traffic: %v, want allow", v.Action)
	}
	// Traffic to an unknown port on the victim is denied.
	v = h.Switch().Process(header(0x08080808, 0xc0a80002, 6, 50000, 9999), 0)
	if v.Action != flowtable.Drop {
		t.Errorf("victim other traffic: %v, want deny", v.Action)
	}
	// Traffic to an address of no tenant hits the global default deny.
	v = h.Switch().Process(header(0x08080808, 0xdeadbeef, 6, 50000, 80), 0)
	if v.Action != flowtable.Drop {
		t.Errorf("unknown destination: %v, want deny", v.Action)
	}
}

// TestColocatedSharedMFC is the co-located attack mechanics (§3.3, §5):
// the attacker's traffic to its *own* ACL inflates the shared MFC, and the
// victim's lookup cost rises with it.
func TestColocatedSharedMFC(t *testing.T) {
	h, err := NewHypervisor(OpenStack)
	if err != nil {
		t.Fatal(err)
	}
	victim := &Tenant{Name: "victim", IP: 0xc0a80002, ACL: tenantACL(flowtable.SipDp)}
	attacker := &Tenant{Name: "attacker", IP: 0xc0a80003, ACL: tenantACL(flowtable.SipDp)}
	if err := h.AddTenant(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.AddTenant(attacker); err != nil {
		t.Fatal(err)
	}
	sw := h.Switch()
	vh := header(0x08080808, 0xc0a80002, 6, 50000, 80)
	sw.Process(vh, 0)
	_, before, ok := sw.MFC().Lookup(vh, 0)
	if !ok {
		t.Fatal("victim entry missing")
	}
	// Attacker sends adversarial traffic destined to its own workload:
	// bit-inverted source IPs and destination ports around its own ACL.
	l := bitvec.IPv4Tuple
	sip, _ := l.FieldIndex("ip_src")
	dp, _ := l.FieldIndex("tp_dst")
	base := header(0x0a000001, 0xc0a80003, 6, 50000, 80)
	for b := 0; b < 32; b++ {
		for p := 0; p < 16; p++ {
			pkt := base.Clone()
			pkt.FlipFieldBit(l, sip, b)
			pkt.FlipFieldBit(l, dp, p)
			sw.Process(pkt, 0)
		}
	}
	masks := sw.MFC().MaskCount()
	if masks < 400 {
		t.Fatalf("attack spawned only %d masks in the shared MFC", masks)
	}
	_, after, ok := sw.MFC().Lookup(vh, 0)
	if !ok {
		t.Fatal("victim entry vanished")
	}
	if after <= before+100 {
		t.Errorf("victim probes %d -> %d; co-location should inflate them", before, after)
	}
}

func TestAddTenantValidation(t *testing.T) {
	h, _ := NewHypervisor(OpenStack)
	// CMS rejects a source-port ACL.
	bad := &Tenant{Name: "bad", IP: 1, ACL: tenantACL(flowtable.SipSpDp)}
	if err := h.AddTenant(bad); err == nil {
		t.Error("CMS-violating ACL accepted")
	}
	ok1 := &Tenant{Name: "a", IP: 1, ACL: tenantACL(flowtable.SipDp)}
	if err := h.AddTenant(ok1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddTenant(&Tenant{Name: "b", IP: 1, ACL: tenantACL(flowtable.SipDp)}); err == nil {
		t.Error("duplicate IP accepted")
	}
	if err := h.AddTenant(&Tenant{Name: "a", IP: 2, ACL: tenantACL(flowtable.SipDp)}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := h.AddTenant(&Tenant{Name: "c", IP: 3}); err == nil {
		t.Error("tenant without ACL accepted")
	}
	if len(h.tenants) != 1 {
		t.Errorf("tenant count = %d, want 1", len(h.tenants))
	}
}

func TestValidateACLUnknownField(t *testing.T) {
	weird := CMS{Name: "weird", IngressFields: []string{"nope"}}
	if err := weird.ValidateACL(tenantACL(flowtable.SipDp)); err == nil {
		t.Error("CMS with unknown field validated an ACL")
	}
}
