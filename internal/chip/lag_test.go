package chip

import (
	"fmt"
	"testing"

	"trips/internal/eval"
	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// chaseProgram builds a pointer chase as a single self-looping block: load
// the next pointer from uncached memory into r12, loop while it is nonzero.
// Every hop is a full OCN round trip the core must block on before it can
// issue the next, and the one-block footprint means the I-cache is warm
// after the first iteration — so in steady state the core has exactly one
// transaction outstanding at a time and is quiescent while it waits. That
// blocking-wait shape is what makes a warp-only overshoot past a padded
// deadline reachable.
func chaseProgram(t *testing.T, base uint64) *proc.Program {
	t.Helper()
	b := &isa.Block{Addr: base, Name: "chase"}
	b.Reads[0] = isa.ReadInst{Valid: true, GR: 12, RT0: isa.ToLeft(0)}
	b.Writes[0] = isa.WriteInst{Valid: true, GR: 12}
	b.Insts = []isa.Inst{
		{Op: isa.LD, Imm: 0, LSID: 0, T0: isa.ToLeft(1)},
		{Op: isa.MOV, T0: isa.ToWrite(0), T1: isa.ToLeft(2)},
		{Op: isa.TNEI, Imm: 0, T0: isa.ToLeft(3)},
		{Op: isa.MOV, T0: isa.ToPred(4), T1: isa.ToPred(5)},
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 0, Offset: 0},
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 1, Offset: int32(-(int64(base) / isa.ChunkBytes))},
	}
	p, err := proc.NewProgram(base, []*isa.Block{b})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaseChain seeds backing memory with a linked chain of uncached pointers
// ending in a 0 terminator and returns the head pointer to preload into r12.
func chaseChain(backing *mem.Memory, head uint64, hops int) uint64 {
	ptr := func(i int) uint64 { return proc.Uncached(head + uint64(i)*0x40) }
	for i := 0; i < hops-1; i++ {
		backing.Write(head+uint64(i)*0x40, 8, ptr(i+1))
	}
	backing.Write(head+uint64(hops-1)*0x40, 8, 0)
	return ptr(0)
}

// vaddBase[i] is where core i's own code copy sits in the "vadd" scenario.
var vaddBase = [2]uint64{0x10000, 0x40000}

// vaddSpec is the hand-optimized vadd both cores of that scenario run.
func vaddSpec(t *testing.T) *workloads.Spec {
	t.Helper()
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(true)
}

// chipScenario builds a chip for one of the parity workloads. They cover
// distinct traffic shapes: pure core compute (count), DMA-dominated OCN
// streaming (dma), cores blocking on one uncached round trip at a time
// (chase), and a real benchmark on both cores with L1 misses, dirty
// evictions and writebacks through the partitioned NUCA (vadd) — the
// eviction path is the one where a response's Done callback submits new
// OCN work from inside the serial tick, historically the subtlest drain
// schedule to replay.
func chipScenario(t *testing.T, name string, mut func(*Config)) *Chip {
	t.Helper()
	cfg := Config{Backing: mem.New(), MaxCycles: 10_000_000}
	setup := func(*Chip) {}
	switch name {
	case "count":
		cfg.Programs = [2]*proc.Program{countProgram(t, 0x100000, 40), countProgram(t, 0x200000, 15)}
	case "dma":
		const bytes = 4 << 10
		for i := 0; i < bytes/8; i++ {
			cfg.Backing.Write(0x700000+uint64(i)*8, 8, uint64(i+1))
		}
		cfg.Programs = [2]*proc.Program{countProgram(t, 0x100000, 3), countProgram(t, 0x200000, 2)}
		setup = func(c *Chip) { c.DMA[0].Program(0x700000, 0x740000, bytes) }
	case "chase":
		const hops = 24
		head0 := chaseChain(cfg.Backing, 0x600000, hops)
		head1 := chaseChain(cfg.Backing, 0x680000, hops)
		cfg.Programs = [2]*proc.Program{chaseProgram(t, 0x100000), chaseProgram(t, 0x200000)}
		setup = func(c *Chip) {
			c.Cores[0].SetRegister(0, 12, head0)
			c.Cores[1].SetRegister(0, 12, head1)
		}
	case "vadd":
		spec := vaddSpec(t)
		spec.SetupMem(cfg.Backing) // both cores read the same input arrays
		var metas [2]*tcc.Meta
		for i, base := range vaddBase {
			prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand, BaseAddr: base})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Programs[i], metas[i] = prog, meta
		}
		cfg.Partition = true
		cfg.MaxCycles = 50_000_000
		setup = func(c *Chip) {
			for i, meta := range metas {
				for v, val := range spec.Init {
					if gr, ok := meta.RegOf[v]; ok {
						c.Cores[i].SetRegister(0, gr, val)
					}
				}
			}
		}
	default:
		t.Fatalf("unknown scenario %q", name)
	}
	mut(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup(c)
	return c
}

// chipOutcome is everything the production stepper and the reference must
// agree on at the end of a run, a failed one included: the error text and
// the cycle it fired at are part of the contract.
type chipOutcome struct {
	cycles int64
	r0, r1 proc.Result
	moved  uint64
	err    string
}

func finish(c *Chip) chipOutcome {
	out := chipOutcome{}
	if err := c.Run(); err != nil {
		out.err = err.Error()
	}
	out.cycles = c.Cycle()
	out.r0, out.r1 = c.Cores[0].Result(), c.Cores[1].Result()
	out.moved = c.DMA[0].Moved + c.DMA[1].Moved
	return out
}

func reference(cfg *Config) { cfg.Reference = true }
func production(*Config)    {}

// runReference runs a scenario to completion on the reference: the outcome
// every production run of the same scenario is compared against.
func runReference(t *testing.T, scenario string) chipOutcome {
	t.Helper()
	want := finish(chipScenario(t, scenario, reference))
	if want.err != "" {
		t.Fatalf("reference: %s", want.err)
	}
	return want
}

// checkTileAccounting holds the per-tile telemetry identity on both steppers
// — every tile-cycle of a stepped cycle is either ticked or skipped — and the
// two facts that tell them apart: the reference skips and warps nothing, the
// production stepper must have skipped something or its gating is dead.
func checkTileAccounting(t *testing.T, prod, ref *Chip) {
	t.Helper()
	for _, c := range []*Chip{prod, ref} {
		ticks, skips, stepped := c.TileActivity()
		if got, want := ticks+skips, uint64(proc.NumTiles)*uint64(stepped); got != want {
			t.Errorf("reference=%v: ticks+skips = %d, want %d (%d tiles x %d stepped cycles)",
				c.cfg.Reference, got, want, proc.NumTiles, stepped)
		}
	}
	if _, skips, _ := prod.TileActivity(); skips == 0 {
		t.Error("production run skipped no tile ticks — the active gate and doze overlay never engaged")
	}
	if _, skips, _ := ref.TileActivity(); skips != 0 || ref.Warps != 0 || ref.Lag.TotalStrides() != 0 {
		t.Errorf("reference skipped %d tile ticks, warped %d times, strode %d times; it must visit everything",
			skips, ref.Warps, ref.Lag.TotalStrides())
	}
	for i, core := range ref.Cores {
		if core != nil && core.Warps != 0 {
			t.Errorf("reference core %d warped %d times", i, core.Warps)
		}
	}
}

// TestChipSteppingThreeWayBitIdentical is the chip's parity suite: on every
// traffic shape the production stepper (bounded-lag coordinator over gated,
// dozing, warping cores) must produce the reference's outcome — chip cycles,
// full core snapshots, and DMA byte counts. (The name predates the collapse
// of the stepping matrix to these two.) The DMA phase is nearly all
// solo-transit or SDRAM-deadline time, so there the memory-domain warps must
// cover the bulk of the run.
func TestChipSteppingThreeWayBitIdentical(t *testing.T) {
	for _, scenario := range []string{"count", "dma", "chase", "vadd"} {
		t.Run(scenario, func(t *testing.T) {
			ref := chipScenario(t, scenario, reference)
			prod := chipScenario(t, scenario, production)
			want, got := finish(ref), finish(prod)
			if want.err != "" {
				t.Fatalf("reference: %s", want.err)
			}
			if got != want {
				t.Errorf("production diverged:\n  got:  %+v\n  want: %+v", got, want)
			}
			checkTileAccounting(t, prod, ref)
			if scenario == "dma" && prod.WarpedCycles*2 < prod.Cycle() {
				t.Errorf("warps covered only %d of %d cycles — DMA transit legs are not warping", prod.WarpedCycles, prod.Cycle())
			}
		})
	}
}

// TestChipLagDeadlinePadPanics fault-injects the response deadlines:
// LagDeadlinePad stretches every computed deadline past its provable bound,
// so a chase core blocked on its load warps beyond the response's true
// effect cycle. That warp-only overshoot is the shape a rollback used to
// repair silently; the effect gate now asserts instead, so production must
// die with a horizon violation at the named effect cycle. The reference
// strides nothing, so the same configuration there still equals the
// unpadded reference run.
func TestChipLagDeadlinePadPanics(t *testing.T) {
	padded := func(cfg *Config) { cfg.LagDeadlinePad = 64 }
	const want = "proc: bounded-lag horizon violated: response effective at cycle 91 but core 0 is already at cycle 145"
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("deadline pad 64 did not trip the horizon assertion — fault injection is dead")
			}
			if msg := fmt.Sprint(r); msg != want {
				t.Errorf("panic %q, want %q", msg, want)
			}
		}()
		_ = chipScenario(t, "chase", padded).Run()
	}()
	ref := finish(chipScenario(t, "chase", func(cfg *Config) {
		padded(cfg)
		reference(cfg)
	}))
	if gold := runReference(t, "chase"); ref != gold {
		t.Errorf("padded reference diverged:\n  got:  %+v\n  want: %+v", ref, gold)
	}
}

// TestChipLagDeadlineCountersPopulated runs the memory-bound chase normally
// and requires the deadline-stride telemetry to be live: a core blocking on
// OCN round trips must end strides at computed response deadlines (not
// one-cycle lockstep).
func TestChipLagDeadlineCountersPopulated(t *testing.T) {
	c := chipScenario(t, "chase", production)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var deadline uint64
	for i := range c.Lag.Core {
		deadline += c.Lag.Core[i].DeadlineLimited
	}
	if deadline == 0 {
		t.Errorf("chase run ended no strides at a response deadline — the computed-horizon leg is dead")
	}
	if c.Lag.TotalStrides() == 0 {
		t.Errorf("chase run recorded no strides")
	}
}

// sweepLimitBoundary sweeps MaxCycles from three below the scenario's
// completion step to one above it and requires the production stepper and
// the reference to agree on everything at every limit: success or limit
// error, the error's text, the cycle it fired at, and both cores' results. A
// chip finishing its last step during cycle `limit` (final Cycle() ==
// limit+1) must succeed; one needing more must fail. The production stepper
// clamps every stride, warp and catch-up to the limit, so it lands on exactly
// the boundary cycle the reference steps to. check, when non-nil, sees each
// pair of finished chips.
func sweepLimitBoundary(t *testing.T, scenario string, check func(t *testing.T, prod, ref *Chip)) {
	t.Helper()
	n := runReference(t, scenario).cycles // the final step ran at cycle n-1
	for lim := n - 3; lim <= n+1; lim++ {
		ref := chipScenario(t, scenario, func(cfg *Config) { cfg.Reference, cfg.MaxCycles = true, lim })
		prod := chipScenario(t, scenario, func(cfg *Config) { cfg.MaxCycles = lim })
		want, got := finish(ref), finish(prod)
		if got != want {
			t.Errorf("limit=%d: production diverged:\n  got:  %+v\n  want: %+v", lim, got, want)
			continue
		}
		if wantOK := lim >= n-1; (want.err == "") != wantOK {
			t.Errorf("limit=%d (completion step at %d): err=%q, want success=%v", lim, n-1, want.err, wantOK)
		}
		if check != nil {
			check(t, prod, ref)
		}
	}
}

// TestChipLagLimitBoundaryParity is the boundary sweep on two compute-bound
// cores of different lengths: the coordinator's free-run strides are bounded
// by the limit alone there.
func TestChipLagLimitBoundaryParity(t *testing.T) {
	sweepLimitBoundary(t, "count", nil)
}

// boundaryScenarios are the two shapes the warp and doze sweeps cover: a DMA
// stream outliving both cores (memory-domain warps and an all-idle tile
// array at the limit) and the cores alone.
var boundaryScenarios = []struct{ name, scenario string }{{"dma", "dma"}, {"cores", "count"}}

// TestChipLimitBoundaryWarpParity: a warp landing on the clamped horizon
// must leave the step at that cycle to run, and at every limit each core's
// clock must be fully accounted for — every cycle it advanced was either
// stepped or warped, on the reference all of them stepped.
func TestChipLimitBoundaryWarpParity(t *testing.T) {
	for _, sc := range boundaryScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sweepLimitBoundary(t, sc.scenario, func(t *testing.T, prod, ref *Chip) {
				for _, c := range []*Chip{prod, ref} {
					for i, core := range c.Cores {
						if got := core.SteppedCycles + core.WarpedCycles; got != core.Cycle() {
							t.Errorf("reference=%v core %d: stepped %d + warped %d = %d cycles, clock reads %d",
								c.cfg.Reference, i, core.SteppedCycles, core.WarpedCycles, got, core.Cycle())
						}
					}
				}
				if ref.Warps != 0 || ref.Cores[0].Warps != 0 || ref.Cores[1].Warps != 0 {
					t.Error("reference warped")
				}
			})
		})
	}
}

// TestChipLimitBoundaryDozeParity: a tile skipped at the limit cycle must
// not change where the limit error fires or whether the final step completes
// the program, and the tile accounting must close at every limit.
func TestChipLimitBoundaryDozeParity(t *testing.T) {
	for _, sc := range boundaryScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sweepLimitBoundary(t, sc.scenario, checkTileAccounting)
		})
	}
}

// vaddMatchesGolden runs the dual-core vadd scenario — each core with its
// own code copy, private L1s and a private half of the partitioned NUCA L2,
// sharing only the SDRAM — and holds both cores' outputs to the golden
// interpreter: bit-identity between the steppers proves nothing if both
// drift from correct outputs together.
func vaddMatchesGolden(t *testing.T, stepper func(*Config)) {
	t.Helper()
	spec := vaddSpec(t)
	gold, _, _, err := eval.RunGolden(vaddSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	c := chipScenario(t, "vadd", stepper)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, base := range vaddBase {
		_, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand, BaseAddr: base})
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range spec.Outputs {
			gr, ok := meta.RegOf[out]
			if !ok {
				t.Fatalf("core %d: output r%d untracked", i, out)
			}
			if got := c.Cores[i].Register(0, gr); got != gold[out] {
				t.Errorf("core %d: r%d = %d, golden %d", i, out, got, gold[out])
			}
		}
		if c.Cores[i].Result().CommittedBlocks == 0 {
			t.Errorf("core %d committed no blocks", i)
		}
	}
}

// TestChipLagVaddMatchesGolden anchors the production stepper to the golden
// interpreter; TestDualCoreWorkloads anchors the reference.
func TestChipLagVaddMatchesGolden(t *testing.T) { vaddMatchesGolden(t, production) }
