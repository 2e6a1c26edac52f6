package eval

import (
	"fmt"
	"reflect"
	"testing"

	"trips/internal/chip"
	"trips/internal/critpath"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// microNames are the paper's four microbenchmarks — small enough to run
// repeatedly in a unit test.
var microNames = []string{"dct8x8", "matrix", "sha", "vadd"}

// summarize flattens the result fields that must be bit-identical across
// replays and across the fast-path ablation.
type runSummary struct {
	Cycles  int64
	Blocks  uint64
	Insts   uint64
	Flushes uint64
	IPC     float64
	Crit    critpath.Report
	Stats   proc.TileStats
}

func summarize(r *TRIPSResult) runSummary {
	return runSummary{
		Cycles:  r.Cycles,
		Blocks:  r.Blocks,
		Insts:   r.Insts,
		Flushes: r.Flushes,
		IPC:     r.IPC,
		Crit:    r.Crit,
		Stats:   r.Stats,
	}
}

// TestDeterministicReplay runs each microbenchmark twice with identical
// options and requires every simulated statistic — cycles, committed
// blocks/instructions, flushes, the critical-path breakdown, and all tile
// stats — to match exactly. The simulator holds no hidden host-dependent
// state (maps iterated for side effects, pointers compared for order, ...),
// so a replay must be a bit-identical re-execution.
func TestDeterministicReplay(t *testing.T) {
	for _, name := range microNames {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true}
		first, err := RunTRIPS(w.Build(true), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := RunTRIPS(w.Build(true), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := summarize(first), summarize(second); a != b {
			t.Errorf("%s: replay diverged:\n  first:  %+v\n  second: %+v", name, a, b)
		}
	}
}

// parity runs one workload under the reference and under the production
// stepping with otherwise equal options and requires every simulated
// observable to match: cycles, committed work, flushes, the critical-path
// report, all tile stats, the NUCA counters and the architectural registers.
// The steppers may differ in host time only — and in the telemetry that says
// how they stepped, which is checked for what it must show: the tile
// accounting identity on both, nothing skipped, warped or strode on the
// reference, something skipped in production.
func parity(t *testing.T, label string, w workloads.Workload, hand bool, opt TRIPSOptions) {
	t.Helper()
	run := func(reference bool) *TRIPSResult {
		o := opt
		o.Reference = reference
		res, err := RunTRIPS(w.Build(hand), o)
		if err != nil {
			t.Fatalf("%s (reference=%v): %v", label, reference, err)
		}
		if got, want := res.TileTicks+res.TileSkips, uint64(proc.NumTiles)*uint64(res.SteppedCycles); got != want {
			t.Errorf("%s (reference=%v): ticks+skips = %d, want %d (%d tiles x %d stepped cycles)",
				label, reference, got, want, proc.NumTiles, res.SteppedCycles)
		}
		return res
	}
	ref, prod := run(true), run(false)
	if a, b := summarize(ref), summarize(prod); a != b {
		t.Errorf("%s: production diverged from the reference:\n  reference:  %+v\n  production: %+v", label, a, b)
	}
	if !reflect.DeepEqual(prod.Regs, ref.Regs) {
		t.Errorf("%s: final registers diverge:\n  reference:  %v\n  production: %v", label, ref.Regs, prod.Regs)
	}
	if !reflect.DeepEqual(prod.NUCA, ref.NUCA) {
		t.Errorf("%s: NUCA counters diverge:\n  reference:  %+v\n  production: %+v", label, ref.NUCA, prod.NUCA)
	}
	if ref.TileSkips != 0 || ref.Warps != 0 || ref.Lag != nil {
		t.Errorf("%s: reference skipped %d tile ticks, warped %d times, lag stats %v; it must visit everything",
			label, ref.TileSkips, ref.Warps, ref.Lag)
	}
	if prod.TileSkips == 0 {
		t.Errorf("%s: production skipped no tile ticks — the active gate and doze overlay never engaged", label)
	}
}

// TestFastPathBitIdentical is the core's parity suite on the perfect L2:
// the production stepping (active gate, doze, clock warp) against the
// reference on every microbenchmark in both compilation modes, with the
// critical-path analyzer on.
func TestFastPathBitIdentical(t *testing.T) {
	for _, name := range microNames {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []tcc.Mode{tcc.Hand, tcc.Compiled} {
			parity(t, fmt.Sprintf("%s (mode %v)", name, mode), w, mode == tcc.Hand,
				TRIPSOptions{Mode: mode, TrackCritPath: true})
		}
	}
}

// TestNUCAFastPathBitIdentical repeats the check behind the full NUCA
// secondary memory system, where the core's warp and doze decisions must
// also respect OCN deadlines delivered from outside Core.Step, and the
// bounded-lag coordinator replaces the core-drives-memory lockstep.
func TestNUCAFastPathBitIdentical(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	parity(t, "vadd on the NUCA", w, true, TRIPSOptions{Mode: tcc.Hand, UseNUCA: true, TrackCritPath: true})
}

// chipRun executes one workload under the full chip loop (core behind the
// NUCA secondary memory system, chip ticking the OCN and memory) and
// returns the chip cycle count plus the core's result snapshot.
func chipRun(t *testing.T, w workloads.Workload) (int64, proc.Result) {
	t.Helper()
	spec := w.Build(true)
	prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	backing := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(backing)
	}
	c, err := chip.New(chip.Config{
		Programs:  [2]*proc.Program{prog, nil},
		Backing:   backing,
		MaxCycles: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range spec.Init {
		if gr, ok := meta.RegOf[v]; ok {
			c.Cores[0].SetRegister(0, gr, val)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Cycle(), c.Cores[0].Result()
}

// TestChipLoopDeterministic replays one microbenchmark under the chip loop
// (the externally-ticked memory configuration, which exercises the fast
// paths with deliveries arriving from outside Core.Step) and requires the
// chip cycle count and all core statistics to match across runs.
func TestChipLoopDeterministic(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	cyc1, res1 := chipRun(t, w)
	cyc2, res2 := chipRun(t, w)
	if cyc1 != cyc2 {
		t.Errorf("chip cycles diverged: %d vs %d", cyc1, cyc2)
	}
	if res1 != res2 {
		t.Errorf("chip core result diverged:\n  first:  %+v\n  second: %+v", res1, res2)
	}
	if res1.CommittedBlocks == 0 {
		t.Error("chip run committed no blocks")
	}
}
