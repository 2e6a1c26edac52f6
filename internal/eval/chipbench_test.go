package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMergeChipBenchJSON checks the BENCH_chip.json merge: rows replace by
// (bench, variant) rather than append, and each default row's speedup is its
// reference row's host time over its own.
func TestMergeChipBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chip.json")
	if err := MergeChipBenchJSON(path, []ChipBenchRow{
		{Bench: "ChipDMAStream", Variant: "dma64k", NsPerOp: 400, Cycles: 42},
		{Bench: "ChipDMAStream", Variant: "dma64k-reference", NsPerOp: 200, Cycles: 42},
	}); err != nil {
		t.Fatal(err)
	}
	if err := MergeChipBenchJSON(path, []ChipBenchRow{
		{Bench: "ChipDMAStream", Variant: "dma64k", NsPerOp: 100, Cycles: 42},
		{Bench: "NUCAvsPerfectL2", Variant: "nuca", NsPerOp: 50, Cycles: 7},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep ChipBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("merge left %d rows, want 3 (replace, not append): %+v", len(rep.Rows), rep.Rows)
	}
	if len(rep.Speedups) != 1 || rep.Speedups["ChipDMAStream/dma64k"] != 2.0 {
		t.Fatalf("speedups = %v, want only ChipDMAStream/dma64k at 2.0 (reference 200 / default 100)", rep.Speedups)
	}
}
