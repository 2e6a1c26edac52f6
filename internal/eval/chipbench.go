package eval

import (
	"encoding/json"
	"os"
	"sort"
)

// ChipBenchRow is one (benchmark, variant) cell of the chip host-time
// baseline: the measured host time per op and the simulated cycle
// count the run produced. Cycle counts are deterministic and any drift
// against the checked-in baseline is a correctness failure; host time is
// machine-dependent and compared informationally.
type ChipBenchRow struct {
	Bench   string  `json:"bench"`
	Variant string  `json:"variant"`
	NsPerOp float64 `json:"ns_per_op"`
	Cycles  int64   `json:"cycles"`
	// SkipCoverage is the fraction of per-tile ticks the active gate and
	// doze overlay elided (TileSkips / (TileTicks+TileSkips)); zero on the
	// reference. Deterministic for a given variant, so drift is meaningful;
	// compared informationally like host time.
	SkipCoverage float64 `json:"skip_coverage,omitempty"`
}

// ChipBenchReport is the machine-readable form written to BENCH_chip.json:
// each chip benchmark configuration under the production stepper and under
// the reference, plus the derived host-time speedups (reference time /
// production time at identical simulated cycles).
type ChipBenchReport struct {
	Rows     []ChipBenchRow     `json:"rows"`
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// ReferenceSuffix marks the variant that re-runs a configuration on the
// reference: variant "x" pairs with "x-reference".
const ReferenceSuffix = "-reference"

// ReferenceRow returns the row measuring the same configuration as r on the
// reference, if rows holds one.
func ReferenceRow(rows []ChipBenchRow, r ChipBenchRow) (ChipBenchRow, bool) {
	for _, s := range rows {
		if s.Bench == r.Bench && s.Variant == r.Variant+ReferenceSuffix {
			return s, true
		}
	}
	return ChipBenchRow{}, false
}

// MergeChipBenchJSON folds rows into the report at path, replacing cells
// with the same (bench, variant) key and recomputing the speedup table.
// Merging (rather than overwriting) lets each benchmark family contribute
// its rows independently of -bench filters and run order.
func MergeChipBenchJSON(path string, rows []ChipBenchRow) error {
	var rep ChipBenchReport
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &rep)
	}
	for _, r := range rows {
		replaced := false
		for i := range rep.Rows {
			if rep.Rows[i].Bench == r.Bench && rep.Rows[i].Variant == r.Variant {
				rep.Rows[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			rep.Rows = append(rep.Rows, r)
		}
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Bench != rep.Rows[j].Bench {
			return rep.Rows[i].Bench < rep.Rows[j].Bench
		}
		return rep.Rows[i].Variant < rep.Rows[j].Variant
	})
	rep.Speedups = map[string]float64{}
	for _, r := range rep.Rows {
		if s, ok := ReferenceRow(rep.Rows, r); ok && r.NsPerOp > 0 {
			rep.Speedups[r.Bench+"/"+r.Variant] = s.NsPerOp / r.NsPerOp
		}
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
