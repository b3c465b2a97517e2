package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"tse/internal/bitvec"
	"tse/internal/core"
	"tse/internal/flowtable"
)

// checkAgreesWithTable asserts that every §7 classifier built over tbl
// returns tbl.Lookup's rule for each header.
func checkAgreesWithTable(t *testing.T, tbl *flowtable.Table, headers []bitvec.Vec) {
	t.Helper()
	cs, err := altClassifiers(tbl)
	if err != nil {
		t.Fatal(err)
	}
	l := tbl.Layout()
	for _, h := range headers {
		want := tbl.Lookup(h)
		for _, c := range cs {
			if got, _ := c.lookup(h); got != want {
				t.Fatalf("%s: header %s -> %v, want %v", c.name, h.Format(l), got, want)
			}
		}
	}
}

func randomHeader(l *bitvec.Layout, rng *rand.Rand) bitvec.Vec {
	h := bitvec.NewVec(l)
	for f := 0; f < l.NumFields(); f++ {
		h.SetField(l, f, rng.Uint64())
	}
	return h
}

// allHeaders enumerates every header of a toy layout.
func allHeaders(l *bitvec.Layout) []bitvec.Vec {
	hs := make([]bitvec.Vec, 1<<uint(l.Bits()))
	for v := range hs {
		hs[v] = bitvec.NewVec(l)
		for b := 0; b < l.Bits(); b++ {
			if v>>uint(b)&1 == 1 {
				hs[v].SetBit(b)
			}
		}
	}
	return hs
}

// randomPrefixTable draws up to eight prefix-form rules over l.
func randomPrefixTable(l *bitvec.Layout, rng *rand.Rand) *flowtable.Table {
	tbl := flowtable.New(l)
	for i := 0; i < 1+rng.Intn(8); i++ {
		key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
		for f := 0; f < l.NumFields(); f++ {
			plen := rng.Intn(l.Field(f).Width + 1)
			for b := 0; b < plen; b++ {
				mask.SetFieldBit(l, f, b)
				if rng.Intn(2) == 1 {
					key.SetFieldBit(l, f, b)
				}
			}
		}
		tbl.MustAdd(&flowtable.Rule{Name: fmt.Sprintf("r%d", i), Priority: rng.Intn(5),
			Action: flowtable.Action(rng.Intn(2)), Key: key, Mask: mask})
	}
	return tbl
}

// agreementRow is one table the §7 classifiers are checked against.
type agreementRow struct {
	name    string
	tbl     *flowtable.Table
	headers []bitvec.Vec
}

func checkAgreementRows(t *testing.T, rows []agreementRow) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkAgreesWithTable(t, r.tbl, r.headers) })
	}
}

// TestAgreementOnPaperACLs: every §7 classifier agrees with the flow table
// on the paper's toy ACLs (exhaustive) and the IPv4 use cases (random
// headers).
func TestAgreementOnPaperACLs(t *testing.T) {
	rows := []agreementRow{
		{"Fig1", flowtable.Fig1(), allHeaders(bitvec.HYP)},
		{"Fig4", flowtable.Fig4(), allHeaders(bitvec.HYP2)},
	}
	rng := rand.New(rand.NewSource(11))
	for _, u := range flowtable.UseCases {
		hs := make([]bitvec.Vec, 2000)
		for i := range hs {
			hs[i] = randomHeader(bitvec.IPv4Tuple, rng)
		}
		rows = append(rows, agreementRow{u.String(), flowtable.UseCaseACL(u, flowtable.ACLParams{}), hs})
	}
	checkAgreementRows(t, rows)
}

// TestAgreementOnRandomPrefixTables: every §7 classifier agrees with the
// flow table on random prefix-form tables, exhaustively.
func TestAgreementOnRandomPrefixTables(t *testing.T) {
	var rows []agreementRow
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		rows = append(rows, agreementRow{fmt.Sprintf("prefix-%02d", trial),
			randomPrefixTable(bitvec.HYP2, rng), allHeaders(bitvec.HYP2)})
	}
	checkAgreementRows(t, rows)
}

// TestAltAgreesWithTable: every §7 classifier agrees with the flow table
// on a table no header matches and on a priority tie the table breaks by
// insertion order.
func TestAltAgreesWithTable(t *testing.T) {
	l := bitvec.HYP
	noMatch := flowtable.New(l)
	k, m := bitvec.MustPattern(l, "111")
	noMatch.MustAdd(&flowtable.Rule{Name: "only", Priority: 1, Action: flowtable.Allow, Key: k, Mask: m})
	tie := flowtable.New(l)
	tie.MustAdd(&flowtable.Rule{Name: "first", Priority: 5, Action: flowtable.Allow,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	tie.MustAdd(&flowtable.Rule{Name: "second", Priority: 5, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	checkAgreementRows(t, []agreementRow{
		{"no-match", noMatch, []bitvec.Vec{bitvec.NewVec(l)}}, // 000 matches nothing
		{"tie-break", tie, []bitvec.Vec{bitvec.NewVec(l)}},
	})
}

// TestCostIndependentOfAttackTraffic is the §1/§7 claim: the alternative
// classifiers' lookup cost does not change no matter how much adversarial
// traffic has been classified, because they hold no per-flow state.
func TestCostIndependentOfAttackTraffic(t *testing.T) {
	tbl := flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{})
	cs, err := altClassifiers(tbl)
	if err != nil {
		t.Fatal(err)
	}
	probe := randomHeader(bitvec.IPv4Tuple, rand.New(rand.NewSource(3)))
	stepsBefore := make([]int, len(cs))
	for i, c := range cs {
		_, stepsBefore[i] = c.lookup(probe)
	}
	// "Classify" the full co-located adversarial trace.
	tr, err := core.CoLocated(tbl, core.CoLocatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Headers {
		for _, c := range cs {
			c.lookup(h)
		}
	}
	for i, c := range cs {
		if _, steps := c.lookup(probe); steps != stepsBefore[i] {
			t.Errorf("%s: probe cost changed %d -> %d after attack traffic",
				c.name, stepsBefore[i], steps)
		}
	}
}

func TestPrefixFormRejection(t *testing.T) {
	l := bitvec.HYP
	tbl := flowtable.New(l)
	// Mask 101: a gappy, non-prefix mask.
	key, mask := bitvec.NewVec(l), bitvec.NewVec(l)
	mask.SetFieldBit(l, 0, 0)
	mask.SetFieldBit(l, 0, 2)
	tbl.MustAdd(&flowtable.Rule{Name: "gappy", Priority: 1, Action: flowtable.Drop,
		Key: key, Mask: mask})
	if _, err := newHTrie(tbl); err == nil {
		t.Error("HTrie accepted non-prefix rule")
	}
	if _, err := newHyperCuts(tbl); err == nil {
		t.Error("HyperCuts accepted non-prefix rule")
	}
}

func TestHyperCutsWideFieldRejection(t *testing.T) {
	l := bitvec.IPv6Tuple
	tbl := flowtable.New(l)
	tbl.MustAdd(&flowtable.Rule{Name: "dd", Priority: 0, Action: flowtable.Drop,
		Key: bitvec.NewVec(l), Mask: bitvec.NewVec(l)})
	if _, err := newHyperCuts(tbl); err == nil {
		t.Error("HyperCuts accepted 128-bit fields")
	}
	// HTrie handles wide fields fine.
	if _, err := newHTrie(tbl); err != nil {
		t.Errorf("HTrie rejected IPv6 table: %v", err)
	}
}

func BenchmarkClassifiers(b *testing.B) {
	cs, err := altClassifiers(flowtable.UseCaseACL(flowtable.SipSpDp, flowtable.ACLParams{}))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	headers := make([]bitvec.Vec, 256)
	for i := range headers {
		headers[i] = randomHeader(bitvec.IPv4Tuple, rng)
	}
	for _, c := range cs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.lookup(headers[i%len(headers)])
			}
		})
	}
}
