// Equivalence tests for the batched datapath: ProcessBatch must produce,
// verdict for verdict and counter for counter, exactly what serial Process
// produces on the same packet sequence. The paper-figure reproductions in
// internal/experiments replay traces through whichever path the scenario
// uses, so batch/serial divergence would silently change figures.
package vswitch_test

import (
	"fmt"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// mixedTrace builds an adversarial SipDp trace interleaved with repeated
// benign victim packets, so every cache layer (EMC hit, megaflow hit, slow
// path, and re-visits of installed flows) is exercised.
func mixedTrace(t *testing.T, tbl *flowtable.Table) []bitvec.Vec {
	t.Helper()
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{Noise: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	l := bitvec.IPv4Tuple
	victims := make([]bitvec.Vec, 3)
	for i := range victims {
		h := bitvec.NewVec(l)
		set := func(name string, v uint64) {
			f, _ := l.FieldIndex(name)
			h.SetField(l, f, v)
		}
		set("ip_src", 0x0a000050+uint64(i))
		set("ip_dst", 0xc0a80002)
		set("ip_proto", 6)
		set("tp_src", 44000+uint64(i))
		set("tp_dst", 80)
		victims[i] = h
	}
	var out []bitvec.Vec
	for i, h := range tr.Headers {
		out = append(out, h)
		// Interleave victims densely, repeating each so later copies hit
		// the caches the earlier copies populated.
		out = append(out, victims[i%len(victims)])
	}
	// A tail of pure re-visits: everything is cached by now.
	out = append(out, tr.Headers[:min(64, len(tr.Headers))]...)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func newPair(t *testing.T, cfg func() vswitch.Config) (*vswitch.Switch, *vswitch.Switch) {
	t.Helper()
	a, err := vswitch.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := vswitch.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestProcessBatchEquivalentToSerial(t *testing.T) {
	configs := map[string]func() vswitch.Config{
		"pmd-no-emc": func() vswitch.Config {
			return vswitch.Config{
				Table:            flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
				DisableMicroflow: true,
			}
		},
		"with-emc": func() vswitch.Config {
			return vswitch.Config{
				Table: flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
			}
		},
		"megaflow-limit": func() vswitch.Config {
			return vswitch.Config{
				Table:            flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
				DisableMicroflow: true,
				MaxMegaflows:     20,
			}
		},
		"no-megaflow": func() vswitch.Config {
			return vswitch.Config{
				Table:            flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{}),
				DisableMicroflow: true,
				DisableMegaflow:  true,
			}
		},
	}
	for name, cfg := range configs {
		for _, batch := range []int{1, 7, 32, 1 << 20} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				serial, batched := newPair(t, cfg)
				trace := mixedTrace(t, serial.FlowTable())

				want := make([]vswitch.Verdict, len(trace))
				for i, h := range trace {
					want[i] = serial.Process(h, int64(i/100))
				}
				got := make([]vswitch.Verdict, 0, len(trace))
				for start := 0; start < len(trace); start += batch {
					end := min(start+batch, len(trace))
					// now must advance identically to the serial run, so
					// align batch boundaries with the virtual clock.
					for sub := start; sub < end; {
						now := int64(sub / 100)
						subEnd := min(end, (sub/100+1)*100)
						got = append(got,
							batched.ProcessBatchOn(nil, trace[sub:subEnd], now, nil, nil)...)
						sub = subEnd
					}
				}

				for i := range trace {
					if got[i] != want[i] {
						t.Fatalf("packet %d: batch verdict %+v != serial %+v",
							i, got[i], want[i])
					}
				}
				if sc, bc := serial.Counters(), batched.Counters(); sc != bc {
					t.Errorf("counters diverge: serial %+v, batch %+v", sc, bc)
				}
				if ss, bs := serial.MFC().Stats(), batched.MFC().Stats(); ss != bs {
					t.Errorf("MFC stats diverge: serial %+v, batch %+v", ss, bs)
				}
				se, be := serial.MFC().Entries(), batched.MFC().Entries()
				if len(se) != len(be) {
					t.Fatalf("MFC entries diverge: serial %d, batch %d", len(se), len(be))
				}
				for i := range se {
					if !se[i].Key.Equal(be[i].Key) || !se[i].Mask.Equal(be[i].Mask) ||
						se[i].Action != be[i].Action || se[i].RuleName != be[i].RuleName ||
						se[i].LastUsed != be[i].LastUsed {
						t.Fatalf("MFC entry %d diverges: serial %+v, batch %+v",
							i, se[i], be[i])
					}
				}
			})
		}
	}
}

// TestProcessBatchQuirkSuppression checks the batched path honours the
// revalidator quirk exactly like the serial path: after MFCGuard-style
// deletion, neither path ever re-installs, and suppression counters agree.
func TestProcessBatchQuirkSuppression(t *testing.T) {
	cfg := func() vswitch.Config {
		return vswitch.Config{Table: flowtable.Fig6(), DisableMicroflow: true}
	}
	serial, batched := newPair(t, cfg)
	trace := mixedTrace(t, serial.FlowTable())
	warm, rest := trace[:len(trace)/2], trace[len(trace)/2:]
	if len(rest) > 200 {
		rest = rest[:200] // post-quirk packets are all slow-path: keep -race fast
	}

	for _, h := range warm {
		serial.Process(h, 0)
	}
	batched.ProcessBatchOn(nil, warm, 0, nil, nil)
	serial.DeleteMegaflows(func(*tss.Entry) bool { return true })
	batched.DeleteMegaflows(func(*tss.Entry) bool { return true })

	for i, h := range rest {
		want := serial.Process(h, 1)
		got := batched.ProcessBatchOn(nil, rest[i:i+1], 1, nil, nil)[0]
		if got != want {
			t.Fatalf("post-quirk packet %d: batch %+v != serial %+v", i, got, want)
		}
	}
	sc, bc := serial.Counters(), batched.Counters()
	if sc != bc {
		t.Errorf("counters diverge after quirk: serial %+v, batch %+v", sc, bc)
	}
	if sc.Suppressed == 0 {
		t.Error("quirk never suppressed an install; test exercises nothing")
	}
}
