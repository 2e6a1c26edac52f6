package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"trips/internal/tcc"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs the benchmark in-process with -smoke and returns one result
// per workload, in the order of workloadList.
func smokeRun(t *testing.T, trace string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", trace, "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var out []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%v in %s", err, line)
		}
		out = append(out, r)
	}
	if len(out) != len(workloadList()) {
		t.Fatalf("%d results for %d workloads", len(out), len(workloadList()))
	}
	return out
}

// checkNames asserts that a result carries exactly the listed metrics, each
// with the listed unit.
func checkNames(t *testing.T, workload string, r result, want []jsonMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	for name := range r.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside the contract", workload, name)
		}
		if !slices.ContainsFunc(want, func(m jsonMetric) bool { return m.Name == name }) {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not list", workload, name)
		}
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, which is not emitted", workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for i, r := range smokeRun(t, "0") {
		w := workloadList()[i].name
		checkNames(t, w, r, doc.EndToEnd)
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, name, m.Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for i, r := range smokeRun(t, "1") {
		w := workloadList()[i].name
		checkNames(t, w, r, doc.PerLayer)
		if c := r.Metrics["trace.phase_cover_ratio"].Value; c < 0.9 || c > 1 {
			t.Errorf("%s: phase self times cover %.3f of the traced pass", w, c)
		}
		if w == "nuca-footprint" {
			// The stepped loop's cycle count is one of the attempted units,
			// so Failed == 0 above says it reproduced the default stepper's.
			if c := r.Metrics["bench.stepped_cover_ratio"].Value; c < 0.9 || c > 1 {
				t.Errorf("step + tick time covers %.3f of the stepped loop", c)
			}
			if r.Metrics["nuca.tick_ns_per_cycle"].Value <= 0 {
				t.Error("the stepped decomposition did not run")
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go and to
// the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	var want []string
	for _, w := range workloadList() {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, want)
	}
	same := func(kind string, got []jsonMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound of %s", kind, d.name)
			}
			if seen[d.name] || !nameRE.MatchString(d.name) || len(d.unit) > 16 {
				t.Errorf("%s: %s is repeated or outside the contract", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound < 0.25 {
		t.Error("setup_s comes first and has the largest bound")
	}
}

// TestGenerator: one seed gives one kernel; another seed changes the chase
// order and nothing about the kernel's shape.
func TestGenerator(t *testing.T) {
	k := genKernels(true)[0]
	var cycles [2]int64
	for i := range cycles {
		spec := k.build(7)
		gold, _, err := golden(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runTRIPS(nil, spec, tcc.Hand, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if !regsMatch(spec, gold, tripsRegs(res)) {
			t.Fatal("outputs differ from golden")
		}
		cycles[i] = res.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Errorf("one seed, two cycle counts: %d and %d", cycles[0], cycles[1])
	}
	if slices.Equal(chaseOrder(k.lines, kernelRand(k, 7)), chaseOrder(k.lines, kernelRand(k, 8))) {
		t.Error("seeds 7 and 8 give the same chase order")
	}
	for _, k := range genKernels(false) {
		_, a, err := golden(k.build(7))
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := golden(k.build(8))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: %d dynamic instructions on seed 7, %d on seed 8", k.name, a, b)
		}
	}
	order := chaseOrder(1024, kernelRand(k, 7))
	for at, hops := 0, 0; ; hops++ {
		if at = order[at]; at == 0 {
			if hops != len(order)-1 {
				t.Errorf("the chase returns to its start after %d hops, not %d", hops+1, len(order))
			}
			break
		}
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 || s.tailPct != 0 {
		t.Errorf("quartiles %v %v %v", s.q1, s.median, s.q3)
	}
	if s := summarize([]float64{3}); s.median != 3 || s.spread() != 0 {
		t.Errorf("one sample: %+v", s)
	}
}

func TestCompare(t *testing.T) {
	set := func(wall float64, cycles float64, failed int) map[runKey][]record {
		out := map[runKey][]record{}
		for seed := uint64(1); seed <= 4; seed++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.name] = metricValue{1, d.unit}
			}
			m["wall_s"] = metricValue{wall + float64(seed)/1000, "s"}
			m["sim_cycles"] = metricValue{cycles, "count"}
			k := runKey{"table3", false}
			out[k] = append(out[k], record{"table3", seed, false, result{failed == 0, 3, failed, m}})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    map[runKey][]record
		want int
	}{
		{"same", set(4, 100, 0), 0},
		{"slower within the bound", set(4.1, 100, 0), 0},
		{"slower beyond the bound", set(4.5, 100, 0), 1},
		{"one cycle more", set(4, 101, 0), 1},
		{"a failed unit", set(4, 100, 1), 1},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, set(4, 100, 0), tc.b); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

// TestDefaultConfigurationOnly: the benchmark never names a stepping knob, so
// it measures whatever the default configuration is on a commit.
func TestDefaultConfigurationOnly(t *testing.T) {
	knobs := []string{"No" + "FastPath", "No" + "Warp", "No" + "EventDriven", "Seq" + "Step", "No" + "Parallel", "Step" + "ping"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range knobs {
			if bytes.Contains(data, []byte(k)) {
				t.Errorf("%s mentions %s", f, k)
			}
		}
	}
}
