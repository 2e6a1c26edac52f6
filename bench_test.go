// Package trips holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for measured-vs-paper results):
//
//	go test -bench=Table3 -benchmem        the 21-benchmark evaluation
//	go test -bench=Ablation                design-choice ablations
//	go test -bench=Fig                     figure reproductions
//
// Custom metrics: cycles (simulated machine cycles), IPC, speedup vs the
// Alpha-class baseline, and the Table 3 critical-path percentages.
package trips

import (
	"os"
	"runtime"
	"testing"
	"time"

	"trips/internal/area"
	"trips/internal/chip"
	"trips/internal/eval"
	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// BenchmarkTable3 regenerates the paper's full Table 3 — for each of the 21
// benchmarks it runs TRIPS compiled, TRIPS hand-optimized (with
// critical-path accounting), and the Alpha baseline — through the parallel
// evaluation harness, and reports host throughput. Run with -benchtime=1x
// for the CI smoke; set BENCH_TABLE3_JSON to a path to emit the
// machine-readable per-row report (the checked-in BENCH_table3.json).
func BenchmarkTable3(b *testing.B) {
	var rep *eval.Table3Report
	for i := 0; i < b.N; i++ {
		r, err := eval.Table3All(0)
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(rep.SimCyclesPerSec, "sim-cycles/sec")
	if rep.TotalSimCycles > 0 {
		b.ReportMetric(float64(rep.TotalWallNS)/float64(rep.TotalSimCycles), "host-ns/sim-cycle")
	}
	b.ReportMetric(float64(rep.TotalSimCycles), "sim-cycles")
	if path := os.Getenv("BENCH_TABLE3_JSON"); path != "" {
		if err := eval.WriteBenchJSON(path, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// runCycles is the ablation helper: simulated cycles for one configuration.
func runCycles(b *testing.B, name string, opt eval.TRIPSOptions, hand bool) float64 {
	c, _ := runCyclesCov(b, name, opt, hand)
	return c
}

// runCyclesCov additionally returns the tile-skip coverage — the fraction of
// per-tile ticks the active gate and doze overlay elided (0 on the
// reference).
func runCyclesCov(b *testing.B, name string, opt eval.TRIPSOptions, hand bool) (float64, float64) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	var cov float64
	for i := 0; i < b.N; i++ {
		r, err := eval.RunTRIPS(w.Build(hand), opt)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
		if total := r.TileTicks + r.TileSkips; total > 0 {
			cov = float64(r.TileSkips) / float64(total)
		}
	}
	return float64(cycles), cov
}

// BenchmarkAblationPlacement: naive vs greedy instruction placement
// (paper Section 7: "better scheduling to reduce hop-counts").
func BenchmarkAblationPlacement(b *testing.B) {
	for _, name := range []string{"matrix", "vadd", "conv"} {
		b.Run(name+"/naive", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceNaive}, true), "cycles")
		})
		b.Run(name+"/greedy", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceGreedy}, true), "cycles")
		})
	}
}

// BenchmarkAblationOPNBandwidth: one vs two operand-network channels
// (paper Section 7: "architectural extensions to TRIPS may include more
// operand network bandwidth").
func BenchmarkAblationOPNBandwidth(b *testing.B) {
	for _, name := range []string{"vadd", "conv", "dct8x8"} {
		b.Run(name+"/1ch", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, OPNChannels: 1}, true), "cycles")
		})
		b.Run(name+"/2ch", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, OPNChannels: 2}, true), "cycles")
		})
	}
}

// BenchmarkAblationOPNLatency: an extra cycle of OPN router latency
// (paper Section 5.3: the remote bypass paths were the hardest timing
// paths; "increasing the latency in cycles would have a significant effect
// on instruction throughput").
func BenchmarkAblationOPNLatency(b *testing.B) {
	for _, name := range []string{"matrix", "vadd"} {
		b.Run(name+"/1cycle", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand}, true), "cycles")
		})
		b.Run(name+"/2cycle", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, SlowOPNRouter: true}, true), "cycles")
		})
	}
}

// BenchmarkAblationDependencePredictor: aggressive load issue vs stalling
// every load until prior stores complete (paper Section 3.5).
func BenchmarkAblationDependencePredictor(b *testing.B) {
	for _, name := range []string{"vadd", "256.bzip2"} {
		b.Run(name+"/aggressive", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand}, true), "cycles")
		})
		b.Run(name+"/conservative", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand, ConservativeLoads: true}, true), "cycles")
		})
	}
}

// BenchmarkAblationBlockSize: compiled (one TIR block per TRIPS block,
// naive placement) vs hand (if-converted hyperblocks, greedy placement) —
// the TCC-vs-hand gap of Table 3.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, name := range []string{"cfar", "a2time01", "300.twolf"} {
		b.Run(name+"/compiled", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Compiled}, false), "cycles")
		})
		b.Run(name+"/hand", func(b *testing.B) {
			b.ReportMetric(runCycles(b, name, eval.TRIPSOptions{Mode: tcc.Hand}, true), "cycles")
		})
	}
}

// BenchmarkFig1Encoding measures instruction encode/decode (Figure 1).
func BenchmarkFig1Encoding(b *testing.B) {
	in := isa.Inst{Op: isa.ADD, T0: isa.ToLeft(5), T1: isa.ToRight(9)}
	for i := 0; i < b.N; i++ {
		w, err := isa.EncodeInst(&in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := isa.DecodeInst(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5bCommitPipeline runs the eight-block chain behind the
// paper's Figure 5b and reports the steady-state block completion rate.
func BenchmarkFigure5bCommitPipeline(b *testing.B) {
	var blocks []*isa.Block
	const n = 8
	for i := 0; i < n; i++ {
		addr := uint64(0x10000 + i*0x100)
		blk := &isa.Block{Addr: addr, Name: "b"}
		blk.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
		blk.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
		if i < n-1 {
			blk.Insts = []isa.Inst{
				{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
				{Op: isa.BRO, Exit: 0, Offset: 2},
			}
		} else {
			blk.Reads[0].RT1 = isa.ToLeft(1)
			blk.Insts = []isa.Inst{
				{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
				{Op: isa.TLTI, Imm: 200, T0: isa.ToLeft(4)},
				{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: int32(-(int64(addr-0x10000) / isa.ChunkBytes))},
				{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: int32(-(int64(addr) / isa.ChunkBytes))},
				{Op: isa.MOV, T0: isa.ToPred(2), T1: isa.ToPred(3)},
			}
		}
		blocks = append(blocks, blk)
	}
	prog, err := proc.NewProgram(blocks[0].Addr, blocks)
	if err != nil {
		b.Fatal(err)
	}
	var perBlock float64
	var simCycles int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		m := mem.New()
		if err := prog.Image(m); err != nil {
			b.Fatal(err)
		}
		core, err := proc.NewCore(proc.Config{Program: prog, Mem: proc.NewFixedLatencyMem(m, 20)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run()
		if err != nil {
			b.Fatal(err)
		}
		perBlock = float64(res.Cycles) / float64(res.CommittedBlocks)
		simCycles += res.Cycles
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	b.ReportAllocs()
	b.ReportMetric(perBlock, "cycles/block")
	if simCycles > 0 {
		// The alloc regression gate for the event wheel, pooled operand
		// messages and pooled memory requests, normalized per simulated cycle.
		b.ReportMetric(float64(wall.Nanoseconds())/float64(simCycles), "host-ns/sim-cycle")
		b.ReportMetric(float64(simCycles)/wall.Seconds(), "sim-cycles/sec")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(simCycles), "allocs/sim-cycle")
	}
}

// BenchmarkTable1 and BenchmarkTable2 regenerate the static tables
// (formatting only — the content is checked in internal/area's tests).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(area.FormatTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(area.FormatTable2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6Floorplan renders the floorplan.
func BenchmarkFig6Floorplan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(area.Floorplan()) == 0 {
			b.Fatal("empty floorplan")
		}
	}
}

// BenchmarkAlphaBaseline measures the baseline simulator alone.
func BenchmarkAlphaBaseline(b *testing.B) {
	w, err := workloads.ByName("matrix")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunAlpha(w.Build(false)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipDualCore runs a workload on both processor cores
// simultaneously through the partitioned NUCA memory system — the full
// Figure 2 chip — under the production stepper and under the reference.
// Simulated cycle counts must be identical.
func BenchmarkChipDualCore(b *testing.B) {
	for _, reference := range []bool{false, true} {
		b.Run(variant("vadd", reference), func(b *testing.B) {
			b.ReportMetric(float64(runDualCoreChip(b, reference)), "cycles")
		})
	}
}

// variant names a benchmark cell: the configuration, suffixed when it runs
// on the reference (the pairing bench-compare -chip audits).
func variant(config string, reference bool) string {
	if reference {
		return config + eval.ReferenceSuffix
	}
	return config
}

func runDualCoreChip(b *testing.B, reference bool) int64 {
	b.Helper()
	w, err := workloads.ByName("vadd")
	if err != nil {
		b.Fatal(err)
	}
	var cyc int64
	for i := 0; i < b.N; i++ {
		spec0 := w.Build(true)
		spec1 := w.Build(true)
		prog0, meta0, err := tcc.Compile(spec0.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000})
		if err != nil {
			b.Fatal(err)
		}
		prog1, meta1, err := tcc.Compile(spec1.F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x40000})
		if err != nil {
			b.Fatal(err)
		}
		backing := mem.New()
		spec0.SetupMem(backing)
		c, err := chip.New(chip.Config{
			Programs:  [2]*proc.Program{prog0, prog1},
			Backing:   backing,
			Partition: true,
			Reference: reference,
		})
		if err != nil {
			b.Fatal(err)
		}
		for v, val := range spec0.Init {
			if gr, ok := meta0.RegOf[v]; ok {
				c.Cores[0].SetRegister(0, gr, val)
			}
		}
		for v, val := range spec1.Init {
			if gr, ok := meta1.RegOf[v]; ok {
				c.Cores[1].SetRegister(0, gr, val)
			}
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		cyc = c.Cycle()
	}
	return cyc
}

// BenchmarkChipDMAStream measures the production stepper on a DMA/idle-heavy
// phase: a short program retires on core 0, then a DMA controller streams
// 64KB line-by-line through the OCN (port -> MT -> SDC round trips) while
// both cores sit idle. The production stepper jumps the clocks across every
// solo-transit leg and SDRAM access; the reference ticks all of them.
// Simulated cycles must be identical; the host-time gap is the win. The
// warp-coverage metric reports the fraction of simulated cycles skipped.
func BenchmarkChipDMAStream(b *testing.B) {
	const bytes = 64 << 10
	mkBlocks := func(base uint64, iters int) *proc.Program {
		var blocks []*isa.Block
		for i := 0; i < iters; i++ {
			addr := base + uint64(i)*0x100
			blk := &isa.Block{Addr: addr, Name: "count"}
			blk.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
			blk.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
			off := int32(2)
			if i == iters-1 {
				off = int32(-(int64(addr) / isa.ChunkBytes))
			}
			blk.Insts = []isa.Inst{
				{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
				{Op: isa.BRO, Exit: 0, Offset: off},
			}
			blocks = append(blocks, blk)
		}
		p, err := proc.NewProgram(base, blocks)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var rows []eval.ChipBenchRow
	for _, reference := range []bool{false, true} {
		name := variant("dma64k", reference)
		b.Run(name, func(b *testing.B) {
			var cyc, warped int64
			var cov float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				backing := mem.New()
				for j := 0; j < bytes/8; j++ {
					backing.Write(0x700000+uint64(j)*8, 8, uint64(j+1))
				}
				c, err := chip.New(chip.Config{
					Programs:  [2]*proc.Program{mkBlocks(0x100000, 2), nil},
					Backing:   backing,
					MaxCycles: 50_000_000,
					Reference: reference,
				})
				if err != nil {
					b.Fatal(err)
				}
				c.DMA[0].Program(0x700000, 0x760000, bytes)
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				if c.DMA[0].Moved != bytes {
					b.Fatalf("dma moved %d bytes", c.DMA[0].Moved)
				}
				cyc = c.Cycle()
				warped = c.WarpedCycles
				if ticks, skips, _ := c.TileActivity(); ticks+skips > 0 {
					cov = float64(skips) / float64(ticks+skips)
				}
			}
			rows = append(rows, eval.ChipBenchRow{
				Bench: "ChipDMAStream", Variant: name,
				NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(b.N),
				Cycles:  cyc, SkipCoverage: cov,
			})
			b.ReportMetric(float64(cyc), "cycles")
			b.ReportMetric(100*float64(warped)/float64(cyc), "warp-coverage-%")
			b.ReportMetric(100*cov, "tile-skip-%")
		})
	}
	if path := os.Getenv("BENCH_CHIP_JSON"); path != "" {
		if err := eval.MergeChipBenchJSON(path, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNUCAvsPerfectL2 contrasts the paper's perfect-L2 normalization
// with the full secondary memory system behind one core, each under the
// production stepping and under the reference — the simulated cycle counts
// must match, and the host-time gap is what gating, doze, warp and bounded
// lag buy. vadd keeps eight blocks of speculative work in flight, so it
// rarely quiesces; mcf's pointer chase serializes its misses and spends most
// of its cycles in warpable waits.
func BenchmarkNUCAvsPerfectL2(b *testing.B) {
	var rows []eval.ChipBenchRow
	for _, cfg := range []struct {
		name     string
		workload string
		nuca     bool
	}{
		{"perfect-l2", "vadd", false},
		{"nuca", "vadd", true},
		{"mcf-nuca", "181.mcf", true},
	} {
		for _, reference := range []bool{false, true} {
			name := variant(cfg.name, reference)
			b.Run(name, func(b *testing.B) {
				start := time.Now()
				cyc, cov := runCyclesCov(b, cfg.workload, eval.TRIPSOptions{Mode: tcc.Hand, UseNUCA: cfg.nuca, Reference: reference}, true)
				if cfg.nuca {
					rows = append(rows, eval.ChipBenchRow{
						Bench: "NUCAvsPerfectL2", Variant: name,
						NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(b.N),
						Cycles:  int64(cyc), SkipCoverage: cov,
					})
				}
				b.ReportMetric(cyc, "cycles")
				b.ReportMetric(100*cov, "tile-skip-%")
			})
		}
	}
	if path := os.Getenv("BENCH_CHIP_JSON"); path != "" {
		if err := eval.MergeChipBenchJSON(path, rows); err != nil {
			b.Fatal(err)
		}
	}
}
