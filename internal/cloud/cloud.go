// Package cloud models the multi-tenant environment of the paper's threat
// model (§3.1, Fig. 7): tenants lease workloads on shared hypervisors and
// configure per-tenant ACLs through a cloud management system (CMS) API.
// The per-tenant "virtual switches" are an abstraction — every workload
// scheduled to the same hypervisor shares one software switch and hence
// one megaflow cache, which is exactly what the co-located TSE attack
// exploits (§3.3).
//
// The CMS layer reproduces §7's API restrictions: which header fields a
// tenant security policy may filter on bounds the attainable mask count
// (OpenStack/Kubernetes: source address + destination port, ~512 masks;
// Calico ingress adds the source port, ~8192; Calico egress adds the
// destination address, ~200k).
package cloud

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// CMS describes a cloud management system's security-policy API.
type CMS struct {
	// Name labels the system.
	Name string
	// IngressFields are the IPv4Tuple field names an ingress policy may
	// filter on.
	IngressFields []string
	// EgressFields are the additional fields egress policies may use
	// (nil if the CMS has no egress policies worth modelling).
	EgressFields []string
}

// The §7 CMS profiles.
var (
	// OpenStack security groups: ingress filters on remote (source)
	// address and destination port [15, 70].
	OpenStack = CMS{
		Name:          "OpenStack",
		IngressFields: []string{"ip_src", "tp_dst"},
	}
	// Kubernetes NetworkPolicy: same filtering surface by default.
	Kubernetes = CMS{
		Name:          "Kubernetes",
		IngressFields: []string{"ip_src", "tp_dst"},
	}
	// Calico extends ingress with the source port and egress with the
	// destination address (§7).
	Calico = CMS{
		Name:          "Calico",
		IngressFields: []string{"ip_src", "tp_src", "tp_dst"},
		EgressFields:  []string{"ip_dst"},
	}
)

// MaxMasks returns the §7 back-of-envelope attainable mask bound for the
// CMS: the product of the filterable fields' bit widths (ingress only, or
// ingress+egress).
func (c CMS) MaxMasks(includeEgress bool) int {
	fields := append([]string(nil), c.IngressFields...)
	if includeEgress {
		fields = append(fields, c.EgressFields...)
	}
	prod := 1
	for _, name := range fields {
		i, ok := bitvec.IPv4Tuple.FieldIndex(name)
		if !ok {
			panic("cloud: CMS references unknown field " + name)
		}
		prod *= bitvec.IPv4Tuple.Field(i).Width
	}
	return prod
}

// ValidateACL checks that every non-catch-all rule of the tenant ACL
// filters only on fields the CMS ingress API exposes.
func (c CMS) ValidateACL(tbl *flowtable.Table) error {
	l := tbl.Layout()
	allowed := make(map[int]bool)
	for _, name := range c.IngressFields {
		i, ok := l.FieldIndex(name)
		if !ok {
			return fmt.Errorf("cloud: layout lacks CMS field %q", name)
		}
		allowed[i] = true
	}
	for _, r := range tbl.Rules() {
		for f := 0; f < l.NumFields(); f++ {
			constrained := false
			for i := 0; i < l.Field(f).Width; i++ {
				if r.Mask.FieldBit(l, f, i) {
					constrained = true
					break
				}
			}
			if constrained && !allowed[f] {
				return fmt.Errorf("cloud: %s does not allow filtering on %q (rule %q)",
					c.Name, l.Field(f).Name, r.Name)
			}
		}
	}
	return nil
}

// ValidateEgressACL checks an egress policy against the CMS: the egress
// field set is the ingress set plus EgressFields (§7: Calico egress
// policies add the destination address).
func (c CMS) ValidateEgressACL(tbl *flowtable.Table) error {
	if c.EgressFields == nil {
		return fmt.Errorf("cloud: %s has no egress policy support", c.Name)
	}
	wide := CMS{
		Name:          c.Name + "-egress",
		IngressFields: append(append([]string(nil), c.IngressFields...), c.EgressFields...),
	}
	return wide.ValidateACL(tbl)
}

// Tenant is one cloud customer with a workload IP and an ACL.
type Tenant struct {
	// Name identifies the tenant.
	Name string
	// IP is the tenant workload's address; the hypervisor applies the
	// tenant's ACL to traffic destined to it.
	IP uint32
	// ACL is the tenant's ingress policy over the IPv4 5-tuple, with
	// single-field rules as the CMS APIs produce. Its final catch-all (if
	// any) is rewritten to a tenant-scoped DefaultDeny.
	ACL *flowtable.Table
	// EgressACL optionally filters traffic *from* the tenant's workload
	// (scoped by source address instead of destination). Only CMSes with
	// EgressFields accept it; its extra filterable field is what pushes
	// the §7 attainable masks towards ~200k.
	EgressACL *flowtable.Table
}

// Hypervisor hosts tenants behind one shared software switch — the Fig. 7
// "Server 1" whose MFC the attacker and victim share.
type Hypervisor struct {
	cms     CMS
	layout  *bitvec.Layout
	tenants []*Tenant
	sw      *vswitch.Switch
}

// NewHypervisor builds an empty hypervisor enforcing the CMS API.
func NewHypervisor(cms CMS) (*Hypervisor, error) {
	l := bitvec.IPv4Tuple
	tbl := flowtable.New(l)
	// With no tenants everything is dropped.
	tbl.MustAdd(&flowtable.Rule{Name: "default-deny", Priority: -1,
		Action: flowtable.Drop, Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	sw, err := vswitch.New(vswitch.Config{Table: tbl, DisableMicroflow: true, Scan: tss.ScanLinear})
	if err != nil {
		return nil, err
	}
	return &Hypervisor{cms: cms, layout: l, sw: sw}, nil
}

// Switch exposes the shared software switch (the device under test).
func (h *Hypervisor) Switch() *vswitch.Switch { return h.sw }

// CMS returns the hypervisor's management system profile.
func (h *Hypervisor) CMS() CMS { return h.cms }

// AddTenant installs a tenant and its ACL. The ACL is validated against
// the CMS API, then compiled into the shared flow table with every rule
// scoped to the tenant's destination address — the per-tenant virtual
// switch abstraction over one physical table (§3.3).
func (h *Hypervisor) AddTenant(t *Tenant) error {
	if t.ACL == nil {
		return fmt.Errorf("cloud: tenant %q has no ACL", t.Name)
	}
	if t.ACL.Layout() != h.layout {
		return fmt.Errorf("cloud: tenant %q ACL uses a different layout", t.Name)
	}
	if err := h.cms.ValidateACL(t.ACL); err != nil {
		return err
	}
	if t.EgressACL != nil {
		if t.EgressACL.Layout() != h.layout {
			return fmt.Errorf("cloud: tenant %q egress ACL uses a different layout", t.Name)
		}
		if err := h.cms.ValidateEgressACL(t.EgressACL); err != nil {
			return err
		}
	}
	for _, other := range h.tenants {
		if other.IP == t.IP {
			return fmt.Errorf("cloud: tenant IP %#x already in use by %q", t.IP, other.Name)
		}
		if other.Name == t.Name {
			return fmt.Errorf("cloud: tenant %q already exists", t.Name)
		}
	}
	h.tenants = append(h.tenants, t)
	return h.recompile()
}

// recompile rebuilds the shared flow table: each tenant rule is AND-ed
// with an exact match on the tenant's destination IP, and a global
// DefaultDeny backstops everything.
func (h *Hypervisor) recompile() error {
	l := h.layout
	dip, _ := l.FieldIndex("ip_dst")
	sip, _ := l.FieldIndex("ip_src")
	tbl := flowtable.New(l)
	for ti, t := range h.tenants {
		scope := func(field int, acl *flowtable.Table, kind string, prioBase int) {
			scopeKey := bitvec.NewVec(l)
			scopeKey.SetField(l, field, uint64(t.IP))
			scopeMask := bitvec.FieldMask(l, field)
			for ri, r := range acl.Rules() {
				tbl.MustAdd(&flowtable.Rule{
					Name:     fmt.Sprintf("%s/%s%s", t.Name, kind, r.Name),
					Priority: prioBase + (acl.Len() - ri),
					Action:   r.Action,
					OutPort:  r.OutPort,
					Key:      r.Key.Or(scopeKey),
					Mask:     r.Mask.Or(scopeMask),
				})
			}
		}
		// Ingress: scoped by destination; egress: scoped by source.
		scope(dip, t.ACL, "", 2000*(len(h.tenants)-ti)+1000)
		if t.EgressACL != nil {
			scope(sip, t.EgressACL, "egress-", 2000*(len(h.tenants)-ti))
		}
	}
	tbl.MustAdd(&flowtable.Rule{Name: "default-deny", Priority: -1,
		Action: flowtable.Drop, Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	_, err := h.sw.ReplaceTable(tbl)
	return err
}
