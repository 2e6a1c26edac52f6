// bench-compare diffs two benchmark baselines (see scripts/bench.sh).
//
//	bench-compare baseline.json fresh.json        Table 3 baselines
//	bench-compare -chip baseline.json fresh.json  chip baselines
//
// Simulated cycle counts (CyclesHand, CyclesTCC, CyclesAlpha per workload in
// Table 3 mode; the per-variant cycle column in chip mode) are
// deterministic: any drift between the two files — including a row appearing
// or disappearing — is a regression and exits nonzero, as is a chip-mode
// default row without a reference row at the same cycles. Host throughput
// varies by machine and load: Table 3 mode reports its deltas but never fails
// on them, chip mode leaves host time to bench/.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"trips/internal/eval"
)

type row struct {
	Name        string
	CyclesHand  int64
	CyclesTCC   int64
	CyclesAlpha int64
}

type host struct {
	Workload         string  `json:"workload"`
	SimCycles        int64   `json:"sim_cycles"`
	WallNS           int64   `json:"wall_ns"`
	HostNSPerSimCyc  float64 `json:"host_ns_per_sim_cycle"`
	SimCyclesPerSec_ float64 `json:"sim_cycles_per_sec"`
}

type baseline struct {
	Rows            []row   `json:"rows"`
	Host            []host  `json:"host"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-compare:", err)
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	chipMode := false
	if len(args) > 0 && args[0] == "-chip" {
		chipMode = true
		args = args[1:]
	}
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s [-chip] baseline.json fresh.json\n", os.Args[0])
		os.Exit(2)
	}
	if chipMode {
		compareChip(args[0], args[1])
		return
	}
	compareTable3(args[0], args[1])
}

// compareChip diffs two ChipBenchReport files on simulated cycles alone:
// drift per (bench, variant) cell fails, as does a default row with no
// reference row at the same cycles. Host time is compared with bench/.
func compareChip(basePath, freshPath string) {
	var base, fresh eval.ChipBenchReport
	if err := load(basePath, &base); err != nil {
		fatal(err)
	}
	if err := load(freshPath, &fresh); err != nil {
		fatal(err)
	}
	key := func(r eval.ChipBenchRow) string { return r.Bench + "/" + r.Variant }
	baseRows := make(map[string]eval.ChipBenchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[key(r)] = r
	}
	freshRows := make(map[string]eval.ChipBenchRow, len(fresh.Rows))
	for _, r := range fresh.Rows {
		freshRows[key(r)] = r
	}
	var names []string
	for n := range baseRows {
		names = append(names, n)
	}
	for n := range freshRows {
		if _, ok := baseRows[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	drift := 0
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		switch {
		case !inBase:
			fmt.Printf("DRIFT %-32s only in fresh run\n", n)
			drift++
		case !inFresh:
			fmt.Printf("DRIFT %-32s missing from fresh run\n", n)
			drift++
		case b.Cycles != f.Cycles:
			fmt.Printf("DRIFT %-32s cycles %d -> %d\n", n, b.Cycles, f.Cycles)
			drift++
		}
	}
	if drift == 0 {
		fmt.Printf("simulated cycles: %d chip-bench cells identical\n", len(names))
	}

	// Every default row carries its proof: the same configuration on the
	// reference, at the same simulated cycles. A row without one is a partial
	// bench run (interrupted filter, crashed variant) and neither a valid
	// fresh result nor a valid baseline.
	for _, f := range []struct {
		path string
		rows []eval.ChipBenchRow
	}{{basePath, base.Rows}, {freshPath, fresh.Rows}} {
		for _, r := range f.rows {
			if strings.HasSuffix(r.Variant, eval.ReferenceSuffix) {
				continue
			}
			ref, ok := eval.ReferenceRow(f.rows, r)
			switch {
			case !ok:
				fmt.Printf("DRIFT %s: %s has no %s row (partial bench run?)\n", f.path, key(r), r.Variant+eval.ReferenceSuffix)
				drift++
			case ref.Cycles != r.Cycles:
				fmt.Printf("DRIFT %s: %s cycles %d, reference %d\n", f.path, key(r), r.Cycles, ref.Cycles)
				drift++
			}
		}
	}

	if drift > 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: %d chip-bench cell(s) drifted in simulated cycles or lack a reference row\n", drift)
		os.Exit(1)
	}
}

func compareTable3(basePath, freshPath string) {
	var base, fresh baseline
	if err := load(basePath, &base); err != nil {
		fatal(err)
	}
	if err := load(freshPath, &fresh); err != nil {
		fatal(err)
	}

	baseRows := make(map[string]row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Name] = r
	}
	freshRows := make(map[string]row, len(fresh.Rows))
	for _, r := range fresh.Rows {
		freshRows[r.Name] = r
	}

	var names []string
	for n := range baseRows {
		names = append(names, n)
	}
	for n := range freshRows {
		if _, ok := baseRows[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	drift := 0
	for _, n := range names {
		b, inBase := baseRows[n]
		f, inFresh := freshRows[n]
		switch {
		case !inBase:
			fmt.Printf("DRIFT %-12s only in fresh run\n", n)
			drift++
		case !inFresh:
			fmt.Printf("DRIFT %-12s missing from fresh run\n", n)
			drift++
		case b != f:
			fmt.Printf("DRIFT %-12s cycles hand %d->%d tcc %d->%d alpha %d->%d\n",
				n, b.CyclesHand, f.CyclesHand, b.CyclesTCC, f.CyclesTCC, b.CyclesAlpha, f.CyclesAlpha)
			drift++
		}
	}
	if drift == 0 {
		fmt.Printf("simulated cycles: %d workloads identical\n", len(names))
	}

	// Host throughput: informational only.
	baseHost := make(map[string]host, len(base.Host))
	for _, h := range base.Host {
		baseHost[h.Workload] = h
	}
	for _, f := range fresh.Host {
		b, ok := baseHost[f.Workload]
		if !ok || b.HostNSPerSimCyc == 0 {
			continue
		}
		delta := (f.HostNSPerSimCyc - b.HostNSPerSimCyc) / b.HostNSPerSimCyc * 100
		fmt.Printf("host  %-12s %8.0f -> %8.0f ns/sim-cycle (%+.1f%%)\n",
			f.Workload, b.HostNSPerSimCyc, f.HostNSPerSimCyc, delta)
	}
	if base.SimCyclesPerSec > 0 && fresh.SimCyclesPerSec > 0 {
		delta := (fresh.SimCyclesPerSec - base.SimCyclesPerSec) / base.SimCyclesPerSec * 100
		fmt.Printf("host  %-12s %8.0f -> %8.0f sim-cycles/sec (%+.1f%%)\n",
			"TOTAL", base.SimCyclesPerSec, fresh.SimCyclesPerSec, delta)
	}

	if drift > 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: %d workload(s) drifted in simulated cycles\n", drift)
		os.Exit(1)
	}
}
