package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// runKey groups the runs of one file that measure the same thing.
type runKey struct {
	workload string
	trace    bool
}

func readRecords(path string) (map[runKey][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		k := runKey{rec.Workload, rec.Trace}
		out[k] = append(out[k], rec)
	}
	return out, sc.Err()
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both sets' medians
// and quartiles, the change from a to b and the bound, and checks every exact
// metric seed by seed. It returns 1 when b is worse than a by more than a
// bound, when an exact metric differs at all, or when any unit failed.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareSets(stdout, a, b)
}

func compareSets(stdout io.Writer, a, b map[runKey][]record) int {
	bad := 0
	fmt.Fprintf(stdout, "%-15s %-18s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "change", "bound", "verdict")
	for _, w := range workloadList() {
		ra, rb := a[runKey{w.name, false}], b[runKey{w.name, false}]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := summarize(values(ra, d.name)), summarize(values(rb, d.name))
			// change is the share of a's median by which b is worse.
			change := (sb.median - sa.median) / sa.median
			if d.better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case exactMetric(d):
				verdict = "exact: see below"
			case max(sa.spread(), sb.spread()) > d.bound && !allBetter(values(ra, d.name), values(rb, d.name), d.better):
				verdict = "unresolved: spread exceeds the bound"
				if change > d.bound {
					verdict = "WORSE, and the spread exceeds the bound"
					bad++
				}
			case change > d.bound:
				verdict = "WORSE"
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-18s %12.6g [%9.4g %9.4g] %12.6g [%9.4g %9.4g] %+7.2f%% %5.0f%%  %s\n",
				w.name, d.name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, 100*change, 100*d.bound, verdict)
		}
	}
	// Exact metrics and failures, run by run: the same workload, mode and
	// seed must give the same counts in both sets.
	defs := append(slices.Clone(endToEnd), perLayer...)
	for _, w := range workloadList() {
		for _, trace := range []bool{false, true} {
			k := runKey{w.name, trace}
			for side, recs := range [][]record{a[k], b[k]} {
				for _, x := range recs {
					if x.Result.Failed > 0 || !x.Result.Correct {
						fmt.Fprintf(stdout, "%s seed %d: %d of %d units failed in %c\n", w.name, x.Seed, x.Result.Failed, x.Result.Attempted, 'a'+side)
						bad++
					}
				}
			}
			for _, x := range a[k] {
				for _, y := range b[k] {
					if y.Seed != x.Seed {
						continue
					}
					for _, d := range defs {
						va, ina := x.Result.Metrics[d.name]
						vb, inb := y.Result.Metrics[d.name]
						if exactMetric(d) && ina && inb && va.Value != vb.Value {
							fmt.Fprintf(stdout, "%s seed %d: exact metric %s differs: %v in a, %v in b\n", w.name, x.Seed, d.name, va.Value, vb.Value)
							bad++
						}
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d findings\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "b is within every bound of a, and every exact metric is equal")
	return 0
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
