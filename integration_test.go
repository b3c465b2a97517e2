package tse

import (
	"bytes"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
	"tse/internal/mitigation"
	"tse/internal/packet"
	"tse/internal/pcap"
	"tse/internal/tss"
	"tse/internal/vswitch"
)

// TestEndToEndAttackAndMitigation walks the complete pipeline exactly as
// the CLI tools do: generate the co-located adversarial trace for the
// SipDp ACL, craft wire frames, write and re-read a pcap, parse the frames
// back into classifier keys, replay them against the simulated switch,
// observe the tuple-space explosion and victim damage, run MFCGuard, and
// verify recovery plus the never-respawn quirk.
func TestEndToEndAttackAndMitigation(t *testing.T) {
	l := bitvec.IPv4Tuple
	acl := flowtable.UseCaseACL(flowtable.SipDp, flowtable.ACLParams{})

	// 1. Attack trace (tsegen).
	tr, err := core.CoLocated(acl, core.CoLocatedOptions{Noise: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	proto, _ := l.FieldIndex("ip_proto")
	dip, _ := l.FieldIndex("ip_dst")
	for _, h := range tr.Headers {
		h.SetField(l, proto, packet.ProtoUDP)
		h.SetField(l, dip, 0xc0a80003)
	}

	// 2. Wire + pcap round trip.
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	for i, h := range tr.Headers {
		frame, err := packet.Craft(l, h, packet.CraftOptions{Payload: []byte("TSE"), TTL: byte(32 + i%32)})
		if err != nil {
			t.Fatalf("craft %d: %v", i, err)
		}
		if err := w.WriteRecord(pcap.Record{TsSec: uint32(i / 100), Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != tr.Len() {
		t.Fatalf("pcap holds %d records, want %d", len(recs), tr.Len())
	}

	// 3. Replay against the switch (tseattack, which prices the linear
	// scan), with a primed victim.
	sw, err := vswitch.New(vswitch.Config{Table: acl, DisableMicroflow: true, Scan: tss.ScanLinear})
	if err != nil {
		t.Fatal(err)
	}
	victim := bitvec.NewVec(l)
	dp, _ := l.FieldIndex("tp_dst")
	victim.SetField(l, dp, 80)
	victim.SetField(l, 0, 0x08080808)
	sw.Process(victim, 0)
	_, probesBaseline, _ := sw.MFC().Lookup(victim, 0)

	for _, rec := range recs {
		p, err := packet.Parse(rec.Data, packet.ParseOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		key, err := p.FlowKey4()
		if err != nil {
			t.Fatal(err)
		}
		sw.Process(key, int64(rec.TsSec))
	}
	masksAttacked := sw.MFC().MaskCount()
	_, probesAttacked, _ := sw.MFC().Lookup(victim, 6)
	if masksAttacked < 500 {
		t.Fatalf("attack spawned only %d masks end-to-end", masksAttacked)
	}
	if probesAttacked < probesBaseline+100 {
		t.Fatalf("victim probes %d -> %d; explosion not visible end-to-end",
			probesBaseline, probesAttacked)
	}

	// 4. Mitigation (mfcguard).
	g, err := mitigation.New(mitigation.Config{Switch: sw, MaskThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if deleted := g.Tick(20, 15); deleted < 500 {
		t.Fatalf("guard deleted only %d entries", deleted)
	}
	_, probesClean, ok := sw.MFC().Lookup(victim, 21)
	if !ok {
		t.Fatal("victim entry deleted by guard (requirement (i) violated)")
	}
	if probesClean > 20 {
		t.Fatalf("victim probes after guard = %d, want near-baseline", probesClean)
	}

	// 5. Re-attack: the quirk keeps the masks from coming back.
	for _, h := range tr.Headers {
		sw.Process(h, 30)
	}
	if got := sw.MFC().MaskCount(); got > 40 {
		t.Fatalf("re-attack respawned %d masks; quirk suppression failed", got)
	}
	if c := sw.Counters(); c.Suppressed == 0 {
		t.Fatal("no suppressed installs after re-attack")
	}
}

// TestEndToEndSemanticSoundness replays mixed benign+attack traffic and
// verifies that every single verdict matches the authoritative flow table
// — the cache hierarchy never changes classification semantics, no matter
// what the attack does to it.
func TestEndToEndSemanticSoundness(t *testing.T) {
	acl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	ref := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	sw, err := vswitch.New(vswitch.Config{Table: acl}) // microflow ON
	if err != nil {
		t.Fatal(err)
	}
	atk, err := core.CoLocated(acl, core.CoLocatedOptions{Noise: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	benign, err := core.General(bitvec.IPv4Tuple, nil, 3000, core.GeneralOptions{Seed: 4, Noise: true})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave attack and benign traffic.
	n := atk.Len()
	if benign.Len() < n {
		n = benign.Len()
	}
	for i := 0; i < n; i++ {
		for _, h := range []bitvec.Vec{atk.Headers[i], benign.Headers[i]} {
			got := sw.Process(h, int64(i/100))
			want := ref.Lookup(h)
			if got.Action != want.Action {
				t.Fatalf("packet %d: verdict %v, flow table says %v (path %v)",
					i, got.Action, want.Action, got.Path)
			}
		}
	}
	// And the cached state is internally disjoint (Inv(2)) — sample-check
	// via the classifier's own insert paths having never panicked, plus
	// an explicit pairwise check over a sample of entries.
	entries := sw.MFC().Entries()
	step := len(entries)/50 + 1
	for i := 0; i < len(entries); i += step {
		for j := i + step; j < len(entries); j += step {
			a, b := entries[i], entries[j]
			if bitvec.Overlap(a.Key, a.Mask, b.Key, b.Mask) {
				t.Fatalf("cached entries overlap: %s vs %s",
					a.Format(bitvec.IPv4Tuple), b.Format(bitvec.IPv4Tuple))
			}
		}
	}
	if sw.MFC().MaskCount() < 1000 {
		t.Errorf("attack did not develop: %d masks", sw.MFC().MaskCount())
	}
	st := sw.MFC().Stats()
	if st.Lookups == 0 || st.Inserted == 0 {
		t.Error("classifier stats not recorded")
	}
}
