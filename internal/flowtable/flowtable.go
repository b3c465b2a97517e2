// Package flowtable implements the slow-path flow table of a software
// switch (§2.1 of the paper): an ordered set of wildcard rules with
// priorities and actions. The flow table is the authoritative packet
// classification; the fast-path caches (microflow and megaflow, packages
// microflow and tss) only memoise its decisions.
//
// Rules may overlap; the highest-priority matching rule wins, with earlier
// insertion breaking priority ties (matching OpenFlow semantics). A table
// whose rules are pairwise disjoint is order-independent (§2.1).
package flowtable

import (
	"fmt"
	"sort"
	"strings"

	"tse/internal/bitvec"
)

// Action is what the switch does with a matching packet. The paper's ACLs
// use allow and deny; Forward carries an output port for the switching
// examples.
type Action int

const (
	// Drop discards the packet (the paper's "deny").
	Drop Action = iota
	// Allow admits the packet (delivery decided elsewhere).
	Allow
	// Forward sends the packet to the port in Rule.OutPort.
	Forward
)

// String returns the action name as the paper's figures print it.
func (a Action) String() string {
	switch a {
	case Drop:
		return "deny"
	case Allow:
		return "allow"
	case Forward:
		return "forward"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Rule is one flow: a wildcard match (key under mask) plus an action.
type Rule struct {
	// Name optionally labels the rule for diagnostics ("#1", "web-allow").
	Name string
	// Priority orders rules; higher matches first. Rules inserted earlier
	// win ties.
	Priority int
	// Key and Mask define the match: a packet h matches iff
	// h AND Mask == Key. Key must be canonical (Key ⊆ Mask).
	Key, Mask bitvec.Vec
	// Action taken on match.
	Action Action
	// OutPort is the destination port for Forward actions.
	OutPort int

	seq int // insertion sequence for tie-breaking
}

// Matches reports whether header h matches the rule.
func (r *Rule) Matches(h bitvec.Vec) bool {
	return bitvec.Covers(r.Key, r.Mask, h)
}

// Format renders the rule in the style of the paper's figures:
// "001 -> allow" with '*' for wildcarded bits.
func (r *Rule) Format(l *bitvec.Layout) string {
	return fmt.Sprintf("%s -> %s", bitvec.FormatMasked(l, r.Key, r.Mask), r.Action)
}

// Table is a priority-ordered flow table over one header layout.
type Table struct {
	layout *bitvec.Layout
	rules  []*Rule // kept sorted: priority desc, then seq asc
	nextSq int
}

// New creates an empty flow table for the layout.
func New(l *bitvec.Layout) *Table {
	return &Table{layout: l}
}

// Layout returns the table's header layout.
func (t *Table) Layout() *bitvec.Layout { return t.layout }

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// Rules returns the rules in match order (highest priority first). The
// returned slice must not be modified.
func (t *Table) Rules() []*Rule { return t.rules }

// Add installs a rule. It returns an error if the key is not canonical
// (has bits outside the mask) or the vectors have the wrong length.
func (t *Table) Add(r *Rule) error {
	if len(r.Key) != t.layout.Words() || len(r.Mask) != t.layout.Words() {
		return fmt.Errorf("flowtable: rule %q has wrong vector length", r.Name)
	}
	if !r.Key.SubsetOf(r.Mask) {
		return fmt.Errorf("flowtable: rule %q key has bits outside its mask", r.Name)
	}
	r.seq = t.nextSq
	t.nextSq++
	t.rules = append(t.rules, r)
	sort.SliceStable(t.rules, func(i, j int) bool {
		if t.rules[i].Priority != t.rules[j].Priority {
			return t.rules[i].Priority > t.rules[j].Priority
		}
		return t.rules[i].seq < t.rules[j].seq
	})
	return nil
}

// MustAdd is Add that panics on error, for fixture construction.
func (t *Table) MustAdd(r *Rule) {
	if err := t.Add(r); err != nil {
		panic(err)
	}
}

// Lookup returns the highest-priority rule matching h, or nil if none
// matches. A table with a DefaultDeny catch-all never returns nil.
func (t *Table) Lookup(h bitvec.Vec) *Rule {
	for _, r := range t.rules {
		if r.Matches(h) {
			return r
		}
	}
	return nil
}

// String renders the whole table figure-style, one rule per line.
func (t *Table) String() string {
	var b strings.Builder
	for i, r := range t.rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-8s %s", r.Name, r.Format(t.layout))
	}
	return b.String()
}
