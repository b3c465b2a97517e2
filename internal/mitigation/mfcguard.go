// Package mitigation implements MFCGuard (§8, Alg. 2): a monitor that
// watches the megaflow cache and, when the mask count exceeds a threshold,
// deletes the entries a TSE attack spawned so that packet classification
// stays fast for traffic the ACL eventually allows.
//
// Design constraints from the paper:
//
//   - Requirement (i): entries covering useful (allowed) traffic are never
//     deleted — so only drop-action entries are candidates.
//   - Deleted entries are never re-sparked by the slow path (the
//     undocumented OVS behaviour the authors observed), so denied traffic
//     is processed in the slow path forever afterwards; the guard bounds
//     the resulting CPU cost with a utilisation threshold (c_th), stopping
//     its sweep when the slow path gets too hot.
package mitigation

import (
	"fmt"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// IntervalSec is Alg. 2's sweep cadence ("runs every 10 seconds according
// to the MFC eviction policy").
const IntervalSec = 10

// Sweeper is the megaflow-deletion backend the guard sweeps through. Both
// *vswitch.Switch (direct monitor deletions) and *upcall.Revalidator
// (deletions routed through the revalidator's dump machinery, so guard and
// revalidator share the one megaflow-lifecycle path) satisfy it.
type Sweeper interface {
	DeleteMegaflows(pred func(*tss.Entry) bool) int
}

// Config parameterises a Guard.
type Config struct {
	// Switch is the protected device.
	Switch *vswitch.Switch
	// Sweeper performs the deletions; nil selects Switch itself. Async
	// deployments pass their upcall.Revalidator here.
	Sweeper Sweeper
	// MaskThreshold is m_th: sweeps trigger only above it.
	MaskThreshold int
	// CPUThreshold is c_th in percent: once the projected slow-path load
	// reaches it, the sweep stops deleting (Alg. 2 lines 9–12).
	CPUThreshold float64
	// DeleteAllDrops selects the paper's evaluated variant, which wipes
	// every drop entry rather than only those matching a TSE pattern
	// ("we evaluated the efficiency of MFCGuard in all use cases (by
	// deleting all drop rules)", §8).
	DeleteAllDrops bool
}

// Stats aggregates guard activity.
type Stats struct {
	// Sweeps counts monitor wake-ups; Triggered those above m_th.
	Sweeps, Triggered int
	// Deleted is the total megaflows removed.
	Deleted int
	// CPUAborts counts sweeps cut short by the CPU threshold.
	CPUAborts int
}

// Guard is an MFCGuard instance.
type Guard struct {
	cfg     Config
	lastRun int64
	ran     bool
	stats   Stats
}

// New validates the configuration and returns a Guard.
func New(cfg Config) (*Guard, error) {
	if cfg.Switch == nil {
		return nil, fmt.Errorf("mitigation: guard needs a switch")
	}
	if cfg.MaskThreshold <= 0 {
		return nil, fmt.Errorf("mitigation: mask threshold must be positive")
	}
	if cfg.CPUThreshold <= 0 {
		cfg.CPUThreshold = 100
	}
	if cfg.Sweeper == nil {
		cfg.Sweeper = cfg.Switch
	}
	return &Guard{cfg: cfg}, nil
}

// Stats returns a snapshot of guard activity counters.
func (g *Guard) Stats() Stats { return g.stats }

// Tick runs the monitor at virtual time now. cpuPct is the current
// slow-path CPU utilisation (the `top` reading of Alg. 2 line 9); callers
// in the simulator derive it from SlowPathCPUPct. It returns the number of
// megaflows deleted in this sweep (0 when the cadence or threshold did not
// trigger).
func (g *Guard) Tick(now int64, cpuPct float64) int {
	if g.ran && now-g.lastRun < IntervalSec {
		return 0
	}
	g.lastRun = now
	g.ran = true
	g.stats.Sweeps++

	sw := g.cfg.Switch
	m := sw.MFC().MaskCount() // Alg. 2 line 2: checkNumberOfMasks
	if m <= g.cfg.MaskThreshold {
		return 0
	}
	g.stats.Triggered++

	deleted := 0
	if g.cfg.DeleteAllDrops {
		deleted = g.cfg.Sweeper.DeleteMegaflows(func(e *tss.Entry) bool {
			return e.Action == flowtable.Drop
		})
		g.stats.Deleted += deleted
		return deleted
	}

	// Alg. 2 lines 4–13: per flow-table rule, look for the TSE pattern
	// and delete the matching entries, re-checking the CPU budget after
	// each rule's wipe.
	layout := sw.Layout()
	for _, r := range sw.FlowTable().Rules() {
		if r.Action != flowtable.Allow {
			continue
		}
		rule := r
		n := g.cfg.Sweeper.DeleteMegaflows(func(e *tss.Entry) bool {
			return matchesTSEPattern(layout, rule, e)
		})
		deleted += n
		g.stats.Deleted += n
		// Line 9–12: each deletion batch shifts denied traffic to the
		// slow path; stop when the projected load crosses c_th.
		if cpuPct >= g.cfg.CPUThreshold {
			g.stats.CPUAborts++
			break
		}
	}
	return deleted
}

// matchesTSEPattern reports whether a megaflow looks like a TSE-spawned
// deny entry for the given allow rule (§3–§4): its action is drop and its
// mask constrains the rule's matched field with a non-empty MSB prefix —
// the unwildcarding signature of a mismatch proof against that rule.
// Requirement (i) is structural: allow entries never match.
func matchesTSEPattern(l *bitvec.Layout, rule *flowtable.Rule, e *tss.Entry) bool {
	if e.Action != flowtable.Drop {
		return false
	}
	for f := 0; f < l.NumFields(); f++ {
		w := l.Field(f).Width
		ruleBits := 0
		for i := 0; i < w; i++ {
			if rule.Mask.FieldBit(l, f, i) {
				ruleBits++
			}
		}
		if ruleBits == 0 {
			continue // rule does not constrain this field
		}
		// The entry must carry an MSB-first prefix (possibly full) of
		// the rule's field: contiguous from bit 0, no gaps.
		plen := 0
		for i := 0; i < w; i++ {
			if !e.Mask.FieldBit(l, f, i) {
				break
			}
			plen++
		}
		if plen == 0 {
			return false // deny proof against this rule would need bits here
		}
		// Bits after the prefix must be wildcarded (pure prefix shape).
		for i := plen; i < w; i++ {
			if e.Mask.FieldBit(l, f, i) {
				return false
			}
		}
	}
	return true
}

// MaxCPUPct caps the modelled slow-path utilisation: the paper's testbed
// shows ovs-vswitchd saturating around 250 % (multiple revalidator
// threads, Fig. 9c's y-axis).
const MaxCPUPct = 250

// SlowPathCPUPct models Fig. 9c: the CPU utilisation of the slow-path
// daemon (ovs-vswitchd) as a function of the packet rate hitting the slow
// path once MFCGuard keeps the adversarial entries out of the fast path.
// Anchors from the paper: ~15 % at 1 000 pps, ~80 % at 10 000 pps,
// saturation around 250 % towards 50 000 pps.
func SlowPathCPUPct(pps float64) float64 {
	pct := 7.8 + 0.0072*pps
	if pct > MaxCPUPct {
		pct = MaxCPUPct
	}
	return pct
}
