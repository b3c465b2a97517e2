// Package vswitch implements a software switch in the style of Open
// vSwitch (§2 of the paper): a slow path holding the authoritative flow
// table, fronted by a TSS megaflow cache (MFC), cf. Fig. 10. The
// exact-match cache in front of the MFC belongs to each PMD worker of
// internal/datapath, as in OVS's userspace datapath; the OVS kernel
// datapath of the paper's testbed has none.
//
// Only the first packet of a flow takes the slow path; the decision is
// then memoised as a megaflow generated by the unwildcarding heuristics in
// megaflow.go — the machinery whose space/time trade-off the Tuple Space
// Explosion attack weaponises.
package vswitch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tse/internal/bitvec"
	"tse/internal/flowtable"
	"tse/internal/tss"
)

// Path identifies which layer of the cache hierarchy decided a packet.
type Path int

const (
	// PathMicroflow is a hit in a PMD worker's exact-match cache
	// (internal/datapath); the switch itself never decides on it.
	PathMicroflow Path = iota
	// PathMegaflow is a TSS megaflow cache hit.
	PathMegaflow
	// PathSlow is a full flow-table classification plus megaflow install.
	PathSlow
	// PathUpcallPending marks a packet whose full-scan miss was queued as
	// an upcall that has not been handled yet: the decision is deferred
	// (fire-and-forget dispatch in the asynchronous slow path).
	PathUpcallPending
	// PathUpcallDrop marks a packet refused at upcall admission (queue
	// full or per-source quota exhausted): it is dropped without ever
	// reaching the slow path, the loss mode of slow-path saturation.
	PathUpcallDrop
)

// String names the path for diagnostics.
func (p Path) String() string {
	switch p {
	case PathMicroflow:
		return "microflow"
	case PathMegaflow:
		return "megaflow"
	case PathSlow:
		return "slowpath"
	case PathUpcallPending:
		return "upcall-pending"
	case PathUpcallDrop:
		return "upcall-drop"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// Verdict is the outcome of processing one packet.
type Verdict struct {
	// Action is the classification decision.
	Action flowtable.Action
	// OutPort is the destination for Forward actions.
	OutPort int
	// Path records which cache layer decided.
	Path Path
	// Probes is the number of MFC mask probes spent: 0 on an EMC hit, and
	// on a slow-path fallthrough the probes its missing lookup spent (|M|
	// under tss.ScanLinear; see Miss.Probes). This is the cost driver of
	// the paper's Observation 1.
	Probes int
	// Rule names the flow-table rule responsible for the decision.
	Rule string
}

// Config assembles a switch.
type Config struct {
	// Table is the slow-path flow table. It should end in a catch-all
	// rule; headers matching no rule are dropped without caching.
	Table *flowtable.Table
	// Strategy selects the per-field megaflow generation strategy; fields
	// not present default to StrategyWildcard. §5.4: OVS uses exact
	// matching for IPv6 addresses, which StrategyExact reproduces.
	Strategy map[string]Strategy
	// DisableMicroflow is ignored: the switch has no exact-match cache.
	// Only bench/workloads.go still sets it; the field goes together with
	// microflow.New's capacity parameter.
	DisableMicroflow bool
	// IdleTimeout is the megaflow idle eviction horizon in virtual
	// seconds; <= 0 selects the OVS default of 10 s (§5.4, Fig. 8a).
	IdleTimeout int64
	// Order selects the MFC mask scan order (see tss.MaskOrder).
	Order tss.MaskOrder
	// Scan selects the MFC lookup (see tss.Scan): the default prunes;
	// tss.ScanLinear is the paper's O(|M|) scan the cost model prices.
	Scan tss.Scan
	// MaxMegaflows bounds the MFC size; 0 means unbounded. OVS's default
	// flow limit (200k) is far above anything the paper's scenarios
	// reach, but the IPv6 exact-match blow-up (§5.4) hits it.
	MaxMegaflows int
}

// DefaultIdleTimeout is OVS's megaflow idle timeout in seconds.
const DefaultIdleTimeout = 10

// tableGen is one slow-path generation: the flow table, its megaflow
// generator, and the swap sequence number, published together through an
// atomic pointer so the classification fast path and the slow-path miss
// handler read them without taking the switch lock. SwapTable is literally
// a pointer swap of this struct.
type tableGen struct {
	table *flowtable.Table
	gen   *Generator
	seq   uint64
}

// Switch is the software switch. It is safe for concurrent use.
type Switch struct {
	mu        sync.Mutex
	cfg       Config
	layout    *bitvec.Layout
	tg        atomic.Pointer[tableGen] // current slow-path generation
	revalPend atomic.Bool              // cache not yet reconciled with gen
	// swapMu is held shared by a slow path from loading the generation
	// to installing its megaflows, and exclusively by a swap publishing
	// the next generation: an install classified under a swapped-away
	// table lands before the swap, where its revalidation sweep finds it.
	swapMu    sync.RWMutex
	mfc       *tss.Classifier
	deleted   map[string]bool // quirk: suppressed (key,mask) pairs
	counters  Counters
	batchPool sync.Pool // *[]tss.BatchResult scratch for ProcessBatchOn

	// installFault, when non-nil, is consulted per attempted megaflow
	// install; true fails the install (Counters.InstallErrors) while the
	// flow still gets its slow-path verdict — the fault-injection hook for
	// a datapath whose flow_put fails. Set before concurrent use
	// (SetInstallFault); nil costs one comparison per install.
	installFault func(now int64) bool
}

// Counters aggregates per-path packet counts and slow-path activity.
// Packets refused at upcall admission never reach the switch and are
// accounted by the upcall subsystem instead (enqueued/deduped/dropped live
// in upcall.Stats; the install side of the miss-to-install path is counted
// here).
type Counters struct {
	// Megaflow and Slow count packets per deciding layer.
	Megaflow, Slow uint64
	// Dropped and Allowed partition all processed packets by verdict.
	Dropped, Allowed uint64
	// Installs counts megaflow installations; Suppressed counts installs
	// skipped due to the revalidator quirk; Rejected counts installs
	// skipped due to the megaflow limit.
	Installs, Suppressed, Rejected uint64
	// Conflicts counts installs abandoned because the megaflow, generated
	// under a table that was swapped mid-classification, overlaps the
	// cache — a benign race between an asynchronous handler and SwapTable
	// that the revalidator reconciles.
	Conflicts uint64
	// InstallErrors counts installs failed by the injected install fault
	// (SetInstallFault): the verdict was still delivered, the cache just
	// never learned the megaflow, so the flow keeps missing.
	InstallErrors uint64
}

// SetInstallFault installs the megaflow-install fault hook (nil clears
// it): f is consulted with the install's virtual time per attempt, and
// true fails that install. Intended to be wired to faults.Plan.
// InstallErrorAt before a run starts; it is not synchronised against
// in-flight handlers.
func (s *Switch) SetInstallFault(f func(now int64) bool) {
	s.installFault = f
}

// New builds a switch; the table must not be nil.
func New(cfg Config) (*Switch, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("vswitch: config needs a flow table")
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	l := cfg.Table.Layout()
	gen, err := NewGenerator(cfg.Table, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		cfg:     cfg,
		layout:  l,
		mfc:     tss.New(l, tss.Options{Order: cfg.Order, Scan: cfg.Scan}),
		deleted: make(map[string]bool),
	}
	s.tg.Store(&tableGen{table: cfg.Table, gen: gen})
	return s, nil
}

// Layout returns the switch's header layout.
func (s *Switch) Layout() *bitvec.Layout { return s.layout }

// MFC exposes the megaflow cache for monitoring (the `ovs-dpctl`
// equivalent used by MFCGuard and the experiment harness).
func (s *Switch) MFC() *tss.Classifier { return s.mfc }

// FlowTable returns the slow-path table (lock-free generation read).
func (s *Switch) FlowTable() *flowtable.Table {
	return s.tg.Load().table
}

// Generator returns the megaflow generator (for white-box tests and the
// revalidator's regenerate check; lock-free generation read).
func (s *Switch) Generator() *Generator {
	return s.tg.Load().gen
}

// Process classifies one packet header at virtual time now: a megaflow
// lookup, and on a miss the slow path (HandleMissBatch with a burst of
// one, attributed to ingress port 0).
func (s *Switch) Process(h bitvec.Vec, now int64) Verdict {
	e, probes, ok := s.mfc.Lookup(h, now)
	if !ok {
		return s.HandleMissBatch([]Miss{{Header: h, Probes: probes}}, now, make([]Verdict, 1))[0]
	}
	s.addCounter(func(c *Counters) {
		c.Megaflow++
		if e.Action == flowtable.Drop {
			c.Dropped++
		} else {
			c.Allowed++
		}
	})
	return Verdict{Action: e.Action, OutPort: int(e.OutPort), Path: PathMegaflow, Probes: probes, Rule: e.RuleName}
}

// ProcessBatchOn classifies a batch of headers at virtual time now and
// returns one verdict per header, writing into out when it has sufficient
// capacity (pass nil to allocate). With miss == nil (the inline slow path:
// HandleMissBatch with a burst of one, attributed to ingress port 0) it is
// exactly equivalent, verdict for verdict and counter for counter, to
// calling Process on each header in order — the equivalence tests in
// batch_test.go enforce this, because the paper-figure reproductions
// depend on batch and serial runs agreeing.
//
// The megaflow scan is batched: runs of consecutive MFC hits are
// classified under a single reader lock via tss.LookupBatch, and the
// per-packet counter updates are flushed once per batch.
//
// When miss is non-nil, an MFC miss on hs[i] calls miss(i, probes)
// (probes = what the missing lookup already paid) instead of classifying
// inline, and records the returned verdict. This is the seam the upcall
// subsystem plugs into — the asynchronous datapath turns each miss into a
// queued upcall here. hd routes the megaflow probes through a per-worker
// classifier handle (tss.Classifier.NewHandle): the PMD datapath passes
// each worker's handle so scan statistics (probes, stage skips) accumulate
// in per-worker shards instead of contending on shared counter cache
// lines; hd == nil uses the classifier's default handle.
//
// Verdicts returned by a non-nil miss are recorded verbatim and NOT added
// to the switch counters: a miss resolved through HandleMissBatch counts
// itself, and a deferred handler's packet is counted when the upcall is
// eventually handled — or accounted as an admission drop by the upcall
// subsystem.
func (s *Switch) ProcessBatchOn(hd *tss.Handle, hs []bitvec.Vec, now int64, out []Verdict, miss func(i, probes int) Verdict) []Verdict {
	if cap(out) < len(hs) {
		out = make([]Verdict, len(hs))
	}
	out = out[:len(hs)]
	if miss == nil {
		miss = func(i, probes int) Verdict {
			return s.HandleMissBatch([]Miss{{Header: hs[i], Probes: probes}}, now, make([]Verdict, 1))[0]
		}
	}
	rp := s.getBatchResults(len(hs))
	defer s.batchPool.Put(rp)
	res := *rp
	var delta Counters
	i := 0
	for i < len(hs) {
		n := s.lookupBatch(hd, hs[i:], now, res)
		hits := n
		missed := n > 0 && !res[n-1].OK
		if missed {
			hits = n - 1
		}
		for k := 0; k < hits; k++ {
			e := res[k].Entry
			v := Verdict{Action: e.Action, OutPort: int(e.OutPort), Path: PathMegaflow,
				Probes: res[k].Probes, Rule: e.RuleName}
			out[i+k] = v
			delta.Megaflow++
			if v.Action == flowtable.Drop {
				delta.Dropped++
			} else {
				delta.Allowed++
			}
		}
		if missed {
			// The miss already paid its lookup inside LookupBatch; the
			// inline slow path classifies and installs exactly as the
			// serial path does after a Lookup miss, and both it and an
			// upcall handler receive the spent probes.
			out[i+hits] = miss(i+hits, res[n-1].Probes)
		}
		i += n
	}
	s.addCounter(func(c *Counters) {
		c.Megaflow += delta.Megaflow
		c.Dropped += delta.Dropped
		c.Allowed += delta.Allowed
	})
	return out
}

// HandleMissFrom runs the slow path for one header that arrived on ingress
// vport port at virtual time now: HandleMissBatch with a burst of one, for
// a caller that did not see the missing lookup, so the verdict's Probes is
// what a missing lookup of h spends on the current cache
// (tss.Classifier.MissProbes: |M| under tss.ScanLinear).
func (s *Switch) HandleMissFrom(port int, h bitvec.Vec, now int64) Verdict {
	return s.HandleMissBatch([]Miss{{Port: port, Header: h, Probes: s.mfc.MissProbes(h)}}, now, make([]Verdict, 1))[0]
}

// Miss is one flow miss handed to the slow path.
type Miss struct {
	// Port is the ingress vport the packet arrived on; the megaflow records
	// it (tss.Entry.Port; 0 for single-port deployments), so revalidator
	// dumps can aggregate mask footprint and churn per port — the statistic
	// the adaptive per-port upcall quotas feed on.
	Port int
	// Header is the missed packet's classifier key.
	Header bitvec.Vec
	// Probes is what the missing lookup spent, reported as the verdict's
	// Probes: the inline pipeline passes its lookup's count, and a caller
	// that did not see the lookup passes tss.Classifier.MissProbes.
	Probes int
}

// HandleMissBatch is the slow path, the one miss-to-install step every
// flow miss resolves through: the inline pipeline hands it each miss as a
// burst of one (Process, ProcessBatchOn, HandleMissFrom), and the upcall
// subsystem's handlers hand it the bursts they drain. It classifies every
// miss against the flow table, commits the resulting megaflows through one
// tss.InsertBatch transaction and counts each miss as a slow-path packet. The install goes through the classifier's
// writer mutex and publishes the next lock-free snapshot once per burst,
// and a group or probe-mirror chunk several installs touch is copied once;
// concurrent readers keep scanning the previous snapshot.
//
// Per miss, the install is skipped — and counted — when the revalidator
// quirk suppresses the megaflow, the megaflow limit is reached, or the
// injected install fault fires; the verdict is delivered regardless. All
// installs share the burst timestamp now (OVS likewise stamps at install,
// not at miss arrival). The verdicts are written into out when it has
// sufficient capacity (pass nil to allocate).
func (s *Switch) HandleMissBatch(ms []Miss, now int64, out []Verdict) []Verdict {
	if cap(out) < len(ms) {
		out = make([]Verdict, len(ms))
	}
	out = out[:len(ms)]
	s.swapMu.RLock()
	tg := s.tg.Load()
	gen, genSeq := tg.gen, tg.seq
	// A handler-sized burst keeps its install scratch on the stack, so a
	// burst of one allocates no more than its megaflow does.
	var entryBuf [32]*tss.Entry
	var errBuf [32]error
	entries := entryBuf[:0]
	for i, m := range ms {
		e := gen.Generate(m.Header)
		e.Port = int32(m.Port)
		entries = append(entries, e)
		out[i] = Verdict{Action: e.Action, OutPort: int(e.OutPort), Path: PathSlow,
			Probes: m.Probes, Rule: e.RuleName}
	}

	var delta Counters
	install := entries[:0] // filtered in place; entries is otherwise dead
	s.mu.Lock()
	count := s.mfc.EntryCount()
	for _, e := range entries {
		switch {
		case s.suppressedLocked(e):
			delta.Suppressed++
		case s.cfg.MaxMegaflows > 0 && count >= s.cfg.MaxMegaflows:
			// Conservative within the burst: a refresh of an existing
			// (key, mask) would not actually grow the cache, but the
			// limit check prices every accepted install as new.
			delta.Rejected++
		case s.installFault != nil && s.installFault(now):
			delta.InstallErrors++
		default:
			install = append(install, e)
			count++
		}
	}
	s.mu.Unlock()
	errs := s.mfc.InsertBatch(install, now, errBuf[:0])
	s.swapMu.RUnlock()
	for _, err := range errs {
		if err == nil {
			delta.Installs++
			continue
		}
		// Megaflows generated from one table are disjoint by construction,
		// so against a reconciled cache an overlap is a generator bug that
		// must surface loudly. It is instead a benign race — counted, and
		// reconciled by the next revalidation sweep — in exactly two
		// situations: this classification ran under a generation that has
		// since been swapped away, or the cache still holds old-generation
		// entries because a SwapTable's revalidation is pending.
		stale := s.tg.Load().seq != genSeq || s.revalPend.Load()
		if !stale {
			panic(fmt.Sprintf("vswitch: generated megaflow overlaps cache: %v", err))
		}
		delta.Conflicts++
	}
	for _, v := range out {
		delta.Slow++
		if v.Action == flowtable.Drop {
			delta.Dropped++
		} else {
			delta.Allowed++
		}
	}
	s.addCounter(func(c *Counters) {
		c.Slow += delta.Slow
		c.Dropped += delta.Dropped
		c.Allowed += delta.Allowed
		c.Installs += delta.Installs
		c.Suppressed += delta.Suppressed
		c.Rejected += delta.Rejected
		c.Conflicts += delta.Conflicts
		c.InstallErrors += delta.InstallErrors
	})
	return out
}

// SweepDecision is the fate SweepMegaflows assigns one dumped megaflow.
type SweepDecision int

const (
	// SweepKeep leaves the entry in place.
	SweepKeep SweepDecision = iota
	// SweepExpire deletes the entry as idle (the Tick eviction horizon).
	SweepExpire
	// SweepInvalidate deletes the entry because the current flow table no
	// longer regenerates it (revalidation after a table change).
	SweepInvalidate
	// SweepSuppress deletes the entry AND records it in the quirk ledger,
	// so the slow path never re-installs it — the monitor deletions of
	// MFCGuard (§8).
	SweepSuppress
)

// SweepResult tallies one SweepMegaflows pass.
type SweepResult struct {
	// Dumped is the number of entries examined.
	Dumped int
	// Expired, Invalidated and Suppressed count deletions by decision.
	Expired, Invalidated, Suppressed int
}

// Deleted sums the deletions of a sweep.
func (r SweepResult) Deleted() int { return r.Expired + r.Invalidated + r.Suppressed }

// SweepMegaflows dumps every megaflow and applies decide to each: the one
// megaflow-lifecycle path, shared by idle expiry (Tick), revalidation
// (ReplaceTable and the upcall revalidator's dump-and-check), and monitor
// deletions (DeleteMegaflows, MFCGuard). decide runs with the classifier's
// writer lock held and must not call back into the switch.
//
// The switch lock is taken only briefly at the end to record suppressed
// entries in the quirk ledger, so a long sweep (a revalidator re-checking
// a TSE-inflated cache regenerates every entry) never stalls packet
// processing on s.mu — concurrent lookups block only on the classifier's
// own reader/writer lock. A miss classified between an entry's deletion
// and its ledger write can slip in one reinstall; that window exists for
// any monitor deletion racing the slow path, and the next sweep
// reconverges.
func (s *Switch) SweepMegaflows(decide func(*tss.Entry) SweepDecision) SweepResult {
	var res SweepResult
	var suppressed []string
	s.mfc.DeleteWhere(func(e *tss.Entry) bool {
		res.Dumped++
		switch decide(e) {
		case SweepExpire:
			res.Expired++
			return true
		case SweepInvalidate:
			res.Invalidated++
			return true
		case SweepSuppress:
			res.Suppressed++
			suppressed = append(suppressed, entryID(e))
			return true
		}
		return false
	})
	if len(suppressed) > 0 {
		s.mu.Lock()
		for _, id := range suppressed {
			s.deleted[id] = true
		}
		s.mu.Unlock()
	}
	return res
}

// SwapTable swaps in a new slow-path flow table over the same layout
// WITHOUT revalidating the megaflow cache: the asynchronous deployment
// applies the update and leaves the dump-and-check to the revalidator
// loop, exactly as OVS applies an OpenFlow change and lets the revalidator
// threads reconcile the datapath cache afterwards. The swap itself is one
// atomic pointer store of the (table, generator, sequence) triple —
// classification never pauses for it. ReplaceTable is SwapTable plus an
// inline revalidation sweep.
func (s *Switch) SwapTable(tbl *flowtable.Table) error {
	if tbl == nil {
		return fmt.Errorf("vswitch: nil table")
	}
	if tbl.Layout() != s.layout {
		return fmt.Errorf("vswitch: replacement table has a different layout")
	}
	gen, err := NewGenerator(tbl, s.cfg.Strategy)
	if err != nil {
		return err
	}
	// swapMu waits out the slow paths still installing under the old
	// generation (see HandleMissBatch). The mutex serialises concurrent
	// swappers (monotonic seq) and MarkRevalidated; the publication
	// itself is the atomic store. revalPend is raised BEFORE the new
	// generation is published: a slow path that already observes the new
	// seq must also observe the pending flag, or its stale check would
	// treat a legitimate old-generation overlap as a generator bug (the
	// old code kept the pair consistent under one mutex section).
	s.swapMu.Lock()
	s.mu.Lock()
	s.revalPend.Store(true)
	s.tg.Store(&tableGen{table: tbl, gen: gen, seq: s.tg.Load().seq + 1})
	s.mu.Unlock()
	s.swapMu.Unlock()
	return nil
}

// GenSeq returns the table-swap sequence number: 0 until the first
// SwapTable/ReplaceTable, bumped on each. The revalidator uses it to tell
// whether a sweep needs the (expensive) regenerate check at all.
func (s *Switch) GenSeq() uint64 {
	return s.tg.Load().seq
}

// NeedsRevalidation reports whether a table swap has not yet been followed
// by a full revalidation sweep: the megaflow cache may hold entries the
// current table would not regenerate.
func (s *Switch) NeedsRevalidation() bool {
	return s.revalPend.Load()
}

// CacheGen is what an exact-match cache in front of the switch keys its
// entries to, through microflow.Cache.Sync: the table generation seq
// (GenSeq), and whether a verdict decided from now on may be inserted. A
// cache that sees seq move since its last lookup flushes first, so no
// verdict of a swapped-away table is served; and nothing may be inserted
// while a swap awaits revalidation, when a megaflow hit may be one the
// revalidator is about to delete. The sequence is read before the pending
// flag (SwapTable raises the flag first), so a new generation is never
// seen without its flag.
func (s *Switch) CacheGen() (seq uint64, insert bool) {
	seq = s.GenSeq()
	return seq, !s.NeedsRevalidation()
}

// MarkRevalidated records that a full revalidation sweep ran against
// generation seq; it is a no-op if the table has moved on since, so a
// sweep that raced another swap cannot mark the newer generation settled.
// Once settled, the megaflow cache is disjoint-by-construction again and
// an install overlap is treated as a generator bug (see HandleMissBatch).
func (s *Switch) MarkRevalidated(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tg.Load().seq == seq {
		s.revalPend.Store(false)
	}
}

// Revalidate reports whether gen regenerates megaflow e identically (same
// mask, action, and output) — the dump-and-check predicate a revalidator
// applies. The entry's key doubles as a representative header of the
// region it covers (wildcarded bits read as zero): if the walk under the
// table examines only bits the mask constrains and reaches the same
// decision, the cached entry is provably still sound; anything else is
// conservatively deleted.
func Revalidate(gen *Generator, e *tss.Entry) bool {
	e2 := gen.Generate(e.Key)
	return e2.Mask.Equal(e.Mask) && e2.Action == e.Action && e2.OutPort == e.OutPort
}

// ReplaceTable swaps in a new slow-path flow table over the same layout
// (the OpenFlow table update an attacker performs when injecting a
// malicious ACL mid-experiment, Fig. 8c) and immediately revalidates the
// megaflow cache the way OVS's revalidator threads do: entries the new
// table reproduces identically survive, keeping their scan position;
// everything else is deleted. Returns the number of revalidated-away
// entries.
func (s *Switch) ReplaceTable(tbl *flowtable.Table) (int, error) {
	if err := s.SwapTable(tbl); err != nil {
		return 0, err
	}
	seq := s.GenSeq()
	gen := s.Generator()
	res := s.SweepMegaflows(func(e *tss.Entry) SweepDecision {
		if !Revalidate(gen, e) {
			return SweepInvalidate
		}
		return SweepKeep
	})
	s.MarkRevalidated(seq)
	return res.Invalidated, nil
}

// DeleteMegaflows removes megaflows matching pred, recording them so the
// revalidator quirk suppresses their re-installation. It returns the
// number removed. MFCGuard calls this (directly or through the upcall
// revalidator's sweep).
func (s *Switch) DeleteMegaflows(pred func(*tss.Entry) bool) int {
	res := s.SweepMegaflows(func(e *tss.Entry) SweepDecision {
		if pred(e) {
			return SweepSuppress
		}
		return SweepKeep
	})
	return res.Suppressed
}

// IdleTimeout returns the configured megaflow idle eviction horizon.
func (s *Switch) IdleTimeout() int64 { return s.cfg.IdleTimeout }

// Tick performs periodic maintenance at virtual time now: megaflow idle
// expiry, routed through the shared lifecycle sweep. Returns the number of
// evicted megaflows. Deployments running an upcall.Revalidator use its
// Sweep instead, which folds expiry and table revalidation into one dump.
func (s *Switch) Tick(now int64) int {
	timeout := s.cfg.IdleTimeout
	res := s.SweepMegaflows(func(e *tss.Entry) SweepDecision {
		if now-e.LastUsedAt() >= timeout {
			return SweepExpire
		}
		return SweepKeep
	})
	return res.Expired
}

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

func (s *Switch) addCounter(f func(*Counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.counters)
}

// lookupBatch runs tss.LookupBatch through the caller's handle when one
// is supplied, else through the classifier's default handle.
func (s *Switch) lookupBatch(hd *tss.Handle, hs []bitvec.Vec, now int64, out []tss.BatchResult) int {
	if hd != nil {
		return hd.LookupBatch(hs, now, out)
	}
	return s.mfc.LookupBatch(hs, now, out)
}

// getBatchResults fetches a scratch slice of at least n results for
// ProcessBatchOn, which hands the same pointer back to the pool: the slice
// header lives in the pooled cell, so a burst allocates nothing once the
// pool holds one large enough.
func (s *Switch) getBatchResults(n int) *[]tss.BatchResult {
	rp, _ := s.batchPool.Get().(*[]tss.BatchResult)
	if rp == nil {
		rp = new([]tss.BatchResult)
	}
	if cap(*rp) < n {
		*rp = make([]tss.BatchResult, n)
	}
	*rp = (*rp)[:n]
	return rp
}

// entryID keys a (key, mask) pair for the quirk ledger.
func entryID(e *tss.Entry) string { return e.Key.Key() + "|" + e.Mask.Key() }

// suppressedLocked reports whether the quirk ledger forbids installing e.
// The ledger reproduces the undocumented OVS behaviour the paper found
// while building MFCGuard (§8): once the monitor deletes a megaflow, the
// slow path never re-installs it, so matching packets are processed in
// the slow path forever. An empty ledger — every run without monitor
// deletions — answers without building the entry's ledger key. Caller
// holds s.mu.
func (s *Switch) suppressedLocked(e *tss.Entry) bool {
	return len(s.deleted) > 0 && s.deleted[entryID(e)]
}
