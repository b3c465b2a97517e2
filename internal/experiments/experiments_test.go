package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tse/internal/analysis"
)

func TestRegistryComplete(t *testing.T) {
	// Every table/figure of the evaluation must be registered.
	want := []string{
		"constructions", "masks", "ipv6", "cms", "alt", "guard", "theorems",
		"fig9a", "fig8a", "fig8b", "fig8c", "fig9b", "fig9c", "general",
		"remedies", "bandwidth", "multicore", "saturation", "stagedscan",
		"portfairness", "chaos", "fleetchaos", "replay",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
}

// TestLightExperimentsProduceOutput runs the fast experiments end to end
// and sanity-checks their output.
func TestLightExperimentsProduceOutput(t *testing.T) {
	cases := map[string][]string{
		"constructions": {"masks=3 entries=4", "masks=13", "masks=1 entries=8"},
		"cms":           {"OpenStack", "8192", "262144"},
		"fig9a":         {"masks", "8200", "FCT"},
		"fig9c":         {"CPU", "250.0"},
		"theorems":      {"Theorem 4.1", "8192", "Theorem 4.2, fields of 6 and 4 bits", "(3,2)"},
		"guard":         {"victim lookup probes", "->"},
		"ipv6":          {"entries", "handful"},
		"bandwidth":     {"SipSpDp", "kbps"},
		"remedies":      {"MFC off", "GRO ON"},
		"stagedscan":    {"speedup", "4096", "skipped-probe cost"},
	}
	for id, needles := range cases {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, needle := range needles {
				if !strings.Contains(out, needle) {
					t.Errorf("output missing %q:\n%s", needle, out)
				}
			}
			if id == "theorems" {
				checkTheorem42Rows(t, out)
			}
		})
	}
}

// checkTheorem42Rows asserts that every multi-field construction row of
// the theorems experiment builds exactly Theorem42Time(ks) deny masks and
// prints that bound beside them.
func checkTheorem42Rows(t *testing.T, out string) {
	t.Helper()
	rows := regexp.MustCompile(`(?m)^\s*\((\d+),(\d+)\)\s+(\d+)\s+(\d+)\s`).FindAllStringSubmatch(out, -1)
	if len(rows) == 0 {
		t.Fatalf("no multi-field construction rows in:\n%s", out)
	}
	for _, r := range rows {
		var v [4]int
		for i := range v {
			v[i], _ = strconv.Atoi(r[i+1])
		}
		want := analysis.Theorem42Time([]int{v[0], v[1]})
		if v[2] != want || v[3] != want {
			t.Errorf("ks=(%d,%d): constructed %d masks, printed time %d, want Theorem42Time = %d",
				v[0], v[1], v[2], v[3], want)
		}
	}
}

func TestHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped with -short")
	}
	for _, id := range []string{"masks", "fig8a", "fig8b", "fig9b", "general", "alt"} {
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
		})
	}
}

// TestEngineExperimentGoldens pins the printed output of every experiment
// the per-second engine drives, byte for byte, against
// testdata/<id>.golden (captured with `tsebench -fig <id>`). The runs are
// virtual-time and deterministic, so any diff is a behaviour change.
func TestEngineExperimentGoldens(t *testing.T) {
	cases := []struct {
		id    string
		heavy bool // tens of seconds: skipped with -short
	}{
		{"fig8a", false}, {"fig8b", false}, {"multicore", false},
		{"portfairness", false}, {"chaos", false}, {"fleetchaos", false},
		{"fig8c", true}, {"saturation", true},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("heavy experiment skipped with -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			e, ok := ByID(c.id)
			if !ok {
				t.Fatalf("experiment %q missing", c.id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", c.id, buf.String())
			}
		})
	}
}
