package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smoke is the benchmark at a hundredth of its rates: every code path of
// a real run (set-up repeats, timed run, exact-repeat check, shadow loop,
// both verifications) in well under a second per workload.
var smoke = runOpts{seed: 1, seconds: 0.05, scale: 0.01, e2e: true, layers: true}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestSmokeMatchesBenchmarkJSON runs all four workloads and checks that
// verification passes and that what the command prints is exactly what
// BENCHMARK.json declares.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(bj.EndToEnd), len(bj.PerLayer))
	}

	// want: every "workload metric unit" the JSON promises.
	want := map[string]bool{}
	for _, w := range bj.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for _, m := range bj.EndToEnd {
			want[w.Name+" "+m.Name+" "+m.Unit] = true
		}
		for _, m := range bj.PerLayer {
			want[w.Name+" "+m.Name+" "+m.Unit] = true
		}
	}
	for _, m := range bj.EndToEnd {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for _, m := range bj.PerLayer {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}

	got := map[string]bool{}
	var out bytes.Buffer
	for _, w := range workloads {
		r, err := run(w, smoke)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Attempted == 0 || len(r.problems) != 0 {
			t.Errorf("%s: attempted %d failed %d problems %q", w.name, r.Attempted, r.Failed, r.problems)
		}
		if r.Layers["datapath.shadow_counter_match"] != 1 {
			t.Errorf("%s: shadow loop counters differ from the pool's", w.name)
		}
		out.Reset()
		report(&out, r)
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("metric line %q is not 'workload metric value unit'", line)
			}
			got[f[0]+" "+f[1]+" "+f[3]] = true
		}
		// The driver's result line carries the end-to-end metrics when
		// both kinds were measured.
		var line struct {
			Correct           bool
			Attempted, Failed uint64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(r)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted == 0 || len(line.Metrics) != len(bj.EndToEnd) {
			t.Errorf("%s: result line %+v", w.name, line)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("BENCHMARK.json promises %q, the command did not print it", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("the command printed %q, BENCHMARK.json does not list it", k)
		}
	}

	// The bounds -sets checks against are the JSON's.
	for i, m := range bj.EndToEnd {
		if d := e2eMetrics[i]; d.name != m.Name || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, the command has %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := layerMetrics[i]; d.name != m.Name || d.better != m.Better {
			t.Errorf("per_layer[%d] = %+v, the command has %+v", i, m, d)
		}
	}
}

// TestSeedPinsInputs checks that the seed is the only source of
// randomness: same seed, same trace and counters; another seed, another
// trace.
func TestSeedPinsInputs(t *testing.T) {
	w, err := findWorkload("emc_overflow")
	if err != nil {
		t.Fatal(err)
	}
	o := smoke
	o.e2e, o.layers = false, false
	runSeed := func(seed int64) *result {
		o.seed = seed
		r, err := run(w, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, c := runSeed(1), runSeed(1), runSeed(2)
	if a.SHA256 != b.SHA256 || a.Counts != b.Counts {
		t.Errorf("seed 1 twice: %s %+v vs %s %+v", a.SHA256, a.Counts, b.SHA256, b.Counts)
	}
	if a.SHA256 == c.SHA256 {
		t.Errorf("seeds 1 and 2 produced the same trace %s", a.SHA256)
	}
}

func TestAgreementFlagsDriftBeyondBound(t *testing.T) {
	bound := e2eMetrics[0].bound // throughput_mpps, higher is better
	mk := func(mpps float64) []*result {
		e2e := map[string]float64{}
		for _, d := range e2eMetrics {
			e2e[d.name] = 1
		}
		e2e["throughput_mpps"] = mpps
		return []*result{{Workload: "w", E2E: e2e}}
	}
	var out bytes.Buffer
	if !agreement(&out, mk(1), mk(1-bound/2)) {
		t.Errorf("a drift of half the bound was flagged:\n%s", out.String())
	}
	if agreement(&out, mk(1), mk(1-2*bound)) {
		t.Errorf("a drift of twice the bound passed:\n%s", out.String())
	}
}
