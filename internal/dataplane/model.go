// Package dataplane models the packet-processing performance of the
// simulated switch, regenerating the paper's throughput evaluations
// (Fig. 8a–c time series and the Fig. 9a mask sweep).
//
// Nothing here measures the host machine: the model prices every packet in
// abstract CPU cost units so results are deterministic and reproducible.
// Per Observation 1 the dominant term is linear in the number of mask
// probes; the constants below are fitted to the paper's published anchor
// points (`tsebench -fig all` prints the paper-vs-model tables;
// internal/experiments/testdata/*.golden pins the engine-driven ones), while
// the probe counts themselves come from the *real* TSS classifier in
// package tss.
package dataplane

import "fmt"

// PacketBytes is the modelled MTU-sized packet (the paper's iperf runs
// use standard 1500-byte MTU unless jumbo frames are enabled).
const PacketBytes = 1500

// NICProfile captures a NIC/driver configuration of Fig. 9a. Costs are in
// abstract CPU units; one unit ≈ one mask probe in the software classifier.
type NICProfile struct {
	// Name labels the curve as in Fig. 9a.
	Name string
	// BaseCost is the fixed per-classification cost (parsing, actions).
	BaseCost float64
	// ProbeCost is the cost of one TSS mask probe.
	ProbeCost float64
	// SkippedProbeCost is the cost of a probe the classifier's staged
	// lookup rejected at its first stage (one-or-two-word touch instead
	// of the full masked hash+compare). <= 0 means staging off: skipped
	// probes cost ProbeCost, preserving the paper-calibrated defaults.
	// The `stagedscan` experiment fits this constant from the measured
	// per-probe ratio of the classifier's staged scan to its staging-off
	// baseline.
	SkippedProbeCost float64
	// MicroflowCost prices an exact-match cache hit.
	MicroflowCost float64
	// SlowPathCost prices a full slow-path classification + install,
	// excluding the mask probes of the preceding MFC miss.
	SlowPathCost float64
	// Coalesce is the number of wire packets per classifier invocation:
	// 1 normally, ~16 with GRO/TSO jumbo coalescing (§5.4: offloads
	// assemble many small TCP packets into a single large buffer).
	Coalesce float64
	// LineRateGbps is the physical link capacity for this configuration.
	LineRateGbps float64
	// BudgetMultiplier scales the CPU budget: full hardware offload gave
	// the paper's testbed roughly a 3x boost (~30 Gbps, §5.4).
	BudgetMultiplier float64
}

// The four Fig. 9a configurations. Constants are fitted to the paper's
// anchors (GRO OFF: 17 masks -> ~53 %, 260 -> ~10 %, 516 -> ~4.7 %,
// 8200 -> ~0.2 % of baseline; `tsebench -fig fig9a` prints both).
var (
	// TCPGroOff is plain TCP with offloads disabled — the configuration
	// the paper reports in most figures.
	TCPGroOff = NICProfile{
		Name: "TCP GRO OFF", BaseCost: 10, ProbeCost: 1, MicroflowCost: 2,
		SlowPathCost: 50, Coalesce: 1, LineRateGbps: 10, BudgetMultiplier: 1,
	}
	// TCPGroOn enables generic receive offload + jumbo buffers: OVS sees
	// one large buffer per ~16 MTU packets.
	TCPGroOn = NICProfile{
		Name: "TCP GRO ON", BaseCost: 10, ProbeCost: 1, MicroflowCost: 2,
		SlowPathCost: 50, Coalesce: 16, LineRateGbps: 10, BudgetMultiplier: 1,
	}
	// FHO is full hardware offload (Mellanox CX-4): ~3x capacity and
	// much cheaper per-probe cost, but still linear in the mask count —
	// the TSS classifier in hardware "still remains vulnerable" (§5.4).
	FHO = NICProfile{
		Name: "FHO ON", BaseCost: 10, ProbeCost: 1.0 / 6, MicroflowCost: 2,
		SlowPathCost: 50, Coalesce: 1, LineRateGbps: 30, BudgetMultiplier: 3,
	}
	// UDPProfile is UDP traffic: offloads do not apply ("For UDP, these
	// settings take no effect", §5.4) and per-packet overhead is higher.
	UDPProfile = NICProfile{
		Name: "UDP", BaseCost: 12, ProbeCost: 1, MicroflowCost: 2,
		SlowPathCost: 50, Coalesce: 1, LineRateGbps: 9.5, BudgetMultiplier: 1,
	}
)

// Profiles lists the Fig. 9a configurations in presentation order.
var Profiles = []NICProfile{FHO, TCPGroOn, TCPGroOff, UDPProfile}

// LinePps converts the profile's line rate into MTU packets per second.
func (p NICProfile) LinePps() float64 {
	return p.LineRateGbps * 1e9 / 8 / PacketBytes
}

// referenceBudget is the CPU budget (cost units per second) of the
// baseline software configuration: exactly line rate with a single mask.
func referenceBudget() float64 {
	return TCPGroOff.LinePps() * (TCPGroOff.BaseCost + TCPGroOff.ProbeCost)
}

// Model prices packets under one NIC profile.
type Model struct {
	prof   NICProfile
	budget float64
}

// NewModel builds a model for the profile; the CPU budget is calibrated so
// the software baseline (1 mask, GRO OFF) exactly saturates 10 Gbps.
func NewModel(prof NICProfile) *Model {
	return &Model{prof: prof, budget: referenceBudget() * prof.BudgetMultiplier}
}

// Profile returns the model's NIC profile.
func (m *Model) Profile() NICProfile { return m.prof }

// Budget returns the per-second CPU budget in cost units.
func (m *Model) Budget() float64 { return m.budget }

// PacketCost prices one wire packet classified after the given number of
// mask probes.
func (m *Model) PacketCost(probes float64) float64 {
	return (m.prof.BaseCost + m.prof.ProbeCost*probes) / m.prof.Coalesce
}

// ThroughputGbps returns the steady-state throughput of a single flow
// whose packets each cost `probes` mask probes, with the whole budget
// available.
func (m *Model) ThroughputGbps(probes float64) float64 {
	pps := m.budget / m.PacketCost(probes)
	if line := m.prof.LinePps(); pps > line {
		pps = line
	}
	return pps * PacketBytes * 8 / 1e9
}

// ThroughputForMasks prices the victim flow at the expected probe count
// for a uniformly placed mask, (masks+1)/2 — the paper's own observation
// that "the flow completion time only increases half as high as the number
// of MFC masks" (§5.4).
func (m *Model) ThroughputForMasks(masks int) float64 {
	if masks < 1 {
		masks = 1
	}
	return m.ThroughputGbps((float64(masks) + 1) / 2)
}

// StagedPacketCost prices one wire packet whose classification spent
// `probes` mask probes, of which `skipped` bailed at their first stage
// (priced at SkippedProbeCost instead of ProbeCost).
func (m *Model) StagedPacketCost(probes, skipped float64) float64 {
	sc := m.prof.SkippedProbeCost
	if sc <= 0 {
		sc = m.prof.ProbeCost
	}
	return (m.prof.BaseCost + m.prof.ProbeCost*(probes-skipped) + sc*skipped) / m.prof.Coalesce
}

// ThroughputForMasksStaged is ThroughputForMasks under staged lookup: the
// victim's mask still sits at expected position (masks+1)/2, but every
// probe before it is a non-matching mask the staged scan rejects at its
// first stage, so only the final (matching) probe pays full ProbeCost.
// With SkippedProbeCost unset this equals ThroughputForMasks exactly.
func (m *Model) ThroughputForMasksStaged(masks int) float64 {
	if masks < 1 {
		masks = 1
	}
	probes := (float64(masks) + 1) / 2
	pps := m.budget / m.StagedPacketCost(probes, probes-1)
	if line := m.prof.LinePps(); pps > line {
		pps = line
	}
	return pps * PacketBytes * 8 / 1e9
}

// FlowCompletionSec returns the transfer time of a bulk TCP flow of the
// given size at the modelled throughput (Fig. 9a's secondary axis: 1 GB
// with GRO OFF).
func (m *Model) FlowCompletionSec(bytes float64, masks int) float64 {
	gbps := m.ThroughputForMasks(masks)
	return bytes * 8 / (gbps * 1e9)
}

// BaselinePct expresses a throughput as a percentage of the profile's own
// baseline (1 mask) throughput, as the paper reports its degradations.
func (m *Model) BaselinePct(gbps float64) float64 {
	base := m.ThroughputForMasks(1)
	if base == 0 {
		return 0
	}
	return 100 * gbps / base
}

// String renders the profile name.
func (p NICProfile) String() string { return p.Name }

// Validate sanity-checks a profile.
func (p NICProfile) Validate() error {
	if p.BaseCost <= 0 || p.ProbeCost <= 0 || p.Coalesce <= 0 ||
		p.LineRateGbps <= 0 || p.BudgetMultiplier <= 0 {
		return fmt.Errorf("dataplane: profile %q has non-positive parameters", p.Name)
	}
	return nil
}
