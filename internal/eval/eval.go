// Package eval runs benchmarks on the three machines of the paper's
// evaluation — the TRIPS core with compiled code (TCC), the TRIPS core with
// hand-optimized code, and the Alpha 21264-class baseline — and assembles
// the rows of paper Table 3: distributed-protocol overheads as a percentage
// of the critical path, plus speedups and IPCs.
package eval

import (
	"fmt"
	"io"

	"trips/internal/alpha"
	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/obs"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// TRIPSOptions tunes a TRIPS-side run (ablations).
type TRIPSOptions struct {
	Mode              tcc.Mode
	Placement         tcc.Placement
	OPNChannels       int
	ConservativeLoads bool
	SlowOPNRouter     bool
	TrackCritPath     bool
	MemLatency        int // L1-miss latency to the perfect L2 (default 20)
	// UseNUCA replaces the paper's perfect-L2 normalization with the full
	// secondary memory system: the 16-bank NUCA array on the 4x10 OCN with
	// SDRAM behind it.
	UseNUCA bool
	// Reference runs on the naive oracle instead of the production stepping:
	// every tile ticked every cycle, every cycle visited, and — with UseNUCA
	// — core then memory system ticked in lockstep instead of the bounded-lag
	// coordinator. Results must be bit-identical either way; the flag exists
	// so tests and trips-debug can compare against the oracle.
	Reference bool
	// Trace, when non-nil, records block-protocol and micronet events for
	// export as a Chrome/Perfetto timeline. Never changes simulated cycles.
	Trace *obs.Tracer
	// Metrics, when non-nil, samples occupancy series during the run.
	Metrics *obs.Sampler
	// CheckpointAt / CheckpointTo arm a one-shot checkpoint: at the first
	// block-commit boundary after cycle CheckpointAt — commit is the quiesce
	// point of the distributed protocols — the complete machine state (core
	// tiles, micronets, LSQ, predictor, event wheel, and the memory backend
	// with its backing image) is framed and written to CheckpointTo,
	// content-hashed to the program image and configuration. Incompatible
	// with TrackCritPath: the checkpoint format carries no critical-path
	// events.
	CheckpointAt int64
	CheckpointTo io.Writer
	// RestoreFrom, when non-nil, resumes from a checkpoint instead of
	// starting at the entry block. The checkpoint must carry the same
	// program/configuration hash; a mismatch fails loudly before any state
	// is touched. The resumed run's final result is bit-identical to the
	// uninterrupted run's.
	RestoreFrom io.Reader
	// Flight, when non-nil, arms the flight recorder: a rolling ring of
	// block-commit checkpoints plus a bounded trace window, dumped as a
	// self-describing bundle on panic (a bounded-lag horizon violation
	// included), cycle-limit overrun, or the configured DumpOn trigger.
	// Incompatible with TrackCritPath and with explicit CheckpointTo.
	Flight *FlightOptions
	// MaxCycles caps the run's simulated length (0 = proc.DefaultMaxCycles).
	// A run that reaches the cap fails with a cycle-limit error —
	// which, with the flight recorder armed, dumps a bundle on the way out.
	MaxCycles int64
	// LagDeadlinePad is the bounded-lag fault injector (see
	// proc.LagConfig.DeadlinePad): it pads every response deadline past
	// its provable bound, so the effect gate's horizon assertion panics.
	// Debug/test only — it exists so a tsim walkthrough can trip the
	// assertion and watch the flight recorder catch it.
	LagDeadlinePad int64
}

// TRIPSResult is one TRIPS run's outcome.
type TRIPSResult struct {
	Cycles    int64
	Insts     uint64
	Blocks    uint64
	IPC       float64
	Flushes   uint64
	Crit      critpath.Report
	Regs      map[tir.Reg]uint64
	Mem       *mem.Memory
	BlockSize float64
	Stats     proc.TileStats
	// Warps / WarpedCycles report clock-warp engagement: how many times the
	// core jumped its clock and how many simulated cycles those jumps
	// covered. Host-side observability only — never part of simulated-state
	// comparisons (a warped and an unwarped run differ here by design).
	Warps        uint64
	WarpedCycles int64
	// TileTicks / TileSkips / SteppedCycles report the event-driven tile
	// clock split: tile ticks executed vs elided by the doze overlay across
	// SteppedCycles per-core Step calls (warped cycles excluded). Host-side
	// observability only, like Warps.
	TileTicks     uint64
	TileSkips     uint64
	SteppedCycles int64
	// NUCA carries the secondary memory system's counters when UseNUCA.
	NUCA *nuca.StatsReport
	// Lag carries bounded-lag coordinator telemetry (stride histogram,
	// stall reasons) when the run used bounded-lag stepping.
	Lag *proc.LagStats
	// FlightDumps lists dump-bundle directories the flight recorder wrote
	// during the run (nil when the recorder was off or never triggered).
	FlightDumps []string
}

// RunTRIPS compiles and executes a workload spec on the TRIPS core.
func RunTRIPS(spec *workloads.Spec, opt TRIPSOptions) (*TRIPSResult, error) {
	if (opt.CheckpointTo != nil || opt.RestoreFrom != nil) && opt.TrackCritPath {
		return nil, fmt.Errorf("eval: %s: checkpoint/restore is incompatible with critical-path tracking (checkpoints do not carry its events)", spec.F.Name)
	}
	if opt.CheckpointTo != nil && opt.CheckpointAt <= 0 {
		return nil, fmt.Errorf("eval: %s: checkpoint requested without a positive capture cycle", spec.F.Name)
	}
	fr, err := newFlightRun(spec, &opt)
	if err != nil {
		return nil, err
	}
	t, err := buildTRIPS(spec, opt, true)
	if err != nil {
		return nil, err
	}
	fr.bind(t, opt)
	if opt.RestoreFrom != nil {
		payload, err := ckpt.ReadFile(opt.RestoreFrom, t.hash(opt))
		if err != nil {
			return nil, fmt.Errorf("eval: restore %s: %w", spec.F.Name, err)
		}
		if err := t.load(payload); err != nil {
			return nil, fmt.Errorf("eval: restore %s: %w", spec.F.Name, err)
		}
	}
	if sm := opt.Metrics; sm != nil {
		registerCkptSeries(sm)
	}
	capture := func(cycle int64) error {
		pw := &ckpt.Writer{}
		if err := t.save(pw); err != nil {
			return err
		}
		if err := ckpt.WriteFile(opt.CheckpointTo, t.hash(opt), pw.Payload()); err != nil {
			return err
		}
		opt.Trace.Emit(obs.Event{Cycle: cycle, Kind: obs.KindCkpt, Arg: uint64(pw.Len())})
		return nil
	}
	var res proc.Result
	var lagStats *proc.LagStats
	err = fr.guard(func() error {
		// Either the one-shot capture or the hook a flight recorder armed in
		// bind: the two are mutually exclusive.
		if opt.CheckpointTo != nil {
			t.core.SetCheckpointHook(opt.CheckpointAt, capture)
		}
		var err error
		switch {
		case !t.external:
			res, err = t.core.Run()
			return err
		case opt.Reference:
			res, err = t.core.RunLockstep(t.sys)
			return err
		}
		lagStats = &proc.LagStats{}
		if sm := opt.Metrics; sm != nil {
			sm.Register("lag.strides", func() int64 { return int64(lagStats.TotalStrides()) })
			sm.Register("lag.deadline_strides", func() int64 {
				var n uint64
				for i := range lagStats.Core {
					n += lagStats.Core[i].DeadlineLimited
				}
				return int64(n)
			})
			sm.Register("lag.mem_warped_cycles", func() int64 { return lagStats.MemWarpedCycles })
		}
		res, err = t.core.RunLagCheckpointed(t.sys, 0, lagStats)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", spec.F.Name, err)
	}
	fr.finish()
	out, err := t.finish(res, lagStats)
	if err != nil {
		return nil, err
	}
	out.FlightDumps = fr.dumpDirs()
	return out, nil
}

// registerCkptSeries exposes the checkpoint save/restore counters as
// sampled series so -stats and /metrics see checkpoint traffic over time.
func registerCkptSeries(sm *obs.Sampler) {
	sm.Register("ckpt.frames_written", func() int64 { return int64(ckpt.Stats().FramesWritten) })
	sm.Register("ckpt.bytes_written", func() int64 { return int64(ckpt.Stats().BytesWritten) })
	sm.Register("ckpt.restores", func() int64 { return int64(ckpt.Stats().FramesRead) })
	sm.Register("ckpt.hash_checks", func() int64 { return int64(ckpt.Stats().HashChecks) })
}

// AlphaResult is one baseline run's outcome.
type AlphaResult struct {
	Cycles int64
	Insts  uint64
	IPC    float64
	Regs   []uint64
	Mem    *mem.Memory
}

// RunAlpha executes a workload spec on the baseline.
func RunAlpha(spec *workloads.Spec) (*AlphaResult, error) {
	code, err := alpha.Flatten(spec.F)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(m)
	}
	mc := alpha.New(alpha.DefaultConfig(), code, spec.F.NumRegs(), m)
	for v, val := range spec.Init {
		mc.SetReg(v, val)
	}
	res, err := mc.Run()
	if err != nil {
		return nil, fmt.Errorf("eval: alpha %s: %w", spec.F.Name, err)
	}
	mc.FlushCache()
	regs := make([]uint64, spec.F.NumRegs())
	for i := range regs {
		regs[i] = mc.Reg(tir.Reg(i))
	}
	return &AlphaResult{Cycles: res.Cycles, Insts: res.Committed, IPC: res.IPC, Regs: regs, Mem: m}, nil
}

// RunGolden interprets a workload spec (the reference semantics).
func RunGolden(spec *workloads.Spec) ([]uint64, *mem.Memory, tir.InterpResult, error) {
	m := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(m)
	}
	regs := make([]uint64, spec.F.NumRegs())
	for v, val := range spec.Init {
		regs[v] = val
	}
	res, err := tir.Interp(spec.F, m, regs, 100_000_000)
	return regs, m, res, err
}

// Verify runs a workload on all three machines and checks the declared
// outputs against the golden interpreter.
func Verify(w workloads.Workload) error {
	for _, hand := range []bool{false, true} {
		spec := w.Build(hand)
		gold, _, _, err := RunGolden(spec)
		if err != nil {
			return fmt.Errorf("%s golden: %w", w.Name, err)
		}
		mode := tcc.Compiled
		if hand {
			mode = tcc.Hand
		}
		tr, err := RunTRIPS(spec, TRIPSOptions{Mode: mode})
		if err != nil {
			return err
		}
		for _, out := range spec.Outputs {
			got, tracked := tr.Regs[out]
			if !tracked {
				return fmt.Errorf("%s: output r%d not architecturally visible", w.Name, out)
			}
			if got != gold[out] {
				return fmt.Errorf("%s (hand=%v): TRIPS r%d = %d, golden %d", w.Name, hand, out, got, gold[out])
			}
		}
		if !hand {
			ar, err := RunAlpha(spec)
			if err != nil {
				return err
			}
			for _, out := range spec.Outputs {
				if ar.Regs[out] != gold[out] {
					return fmt.Errorf("%s: alpha r%d = %d, golden %d", w.Name, out, ar.Regs[out], gold[out])
				}
			}
		}
	}
	return nil
}

// Table3Row is one row of paper Table 3.
type Table3Row struct {
	Name string
	// Left half: distributed network overheads as % of the critical path
	// (hand-optimized configuration, as the paper's methodology implies).
	IFetch, OPNHops, OPNCont, Fanout, Complete, Commit, Other float64
	// Right half: preliminary performance.
	SpeedupTCC  float64 // TRIPS compiled vs Alpha (cycles ratio)
	SpeedupHand float64
	IPCTCC      float64
	IPCHand     float64
	IPCAlpha    float64
	// Raw cycle counts behind the ratios, kept for the machine-readable
	// baseline and for host-throughput accounting (total simulated cycles
	// per row = CyclesHand + CyclesTCC + CyclesAlpha).
	CyclesHand  int64
	CyclesTCC   int64
	CyclesAlpha int64
}

// Stepping selects how a Table 3 run is simulated. The zero value is the
// production stepping on the paper's perfect-L2 normalization.
type Stepping struct {
	// Reference runs the TRIPS rows on the naive oracle (see TRIPSOptions);
	// simulated results must be bit-identical either way.
	Reference bool
	// UseNUCA swaps the perfect-L2 normalization for the full secondary
	// memory system on the TRIPS runs (the Alpha baseline is unaffected).
	UseNUCA bool
	// FlightDir, when non-empty, arms the flight recorder on the
	// compiled-TRIPS run of each row (the hand run keeps the critical-path
	// analyzer, which the recorder is incompatible with): a crash or
	// cycle-limit overrun in a long suite run dumps a replayable bundle
	// under this directory instead of evaporating.
	FlightDir string
}

// Table3 computes one benchmark's row. An optional Stepping overrides the
// simulator discipline for the two TRIPS runs.
func Table3(w workloads.Workload, step ...Stepping) (Table3Row, error) {
	row := Table3Row{Name: w.Name}
	var st Stepping
	if len(step) > 0 {
		st = step[0]
	}

	handSpec := w.Build(true)
	hand, err := RunTRIPS(handSpec, TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true, Reference: st.Reference, UseNUCA: st.UseNUCA})
	if err != nil {
		return row, err
	}
	compSpec := w.Build(false)
	copt := TRIPSOptions{Mode: tcc.Compiled, Reference: st.Reference, UseNUCA: st.UseNUCA}
	if st.FlightDir != "" {
		copt.Flight = &FlightOptions{Dir: st.FlightDir, Tool: "trips-eval", Bench: w.Name}
	}
	comp, err := RunTRIPS(compSpec, copt)
	if err != nil {
		return row, err
	}
	al, err := RunAlpha(w.Build(false))
	if err != nil {
		return row, err
	}

	row.IFetch = hand.Crit.Percent(critpath.CatIFetch)
	row.OPNHops = hand.Crit.Percent(critpath.CatOPNHop)
	row.OPNCont = hand.Crit.Percent(critpath.CatOPNContention)
	row.Fanout = hand.Crit.Percent(critpath.CatFanout)
	row.Complete = hand.Crit.Percent(critpath.CatComplete)
	row.Commit = hand.Crit.Percent(critpath.CatCommit)
	row.Other = hand.Crit.Percent(critpath.CatOther)

	if comp.Cycles > 0 {
		row.SpeedupTCC = float64(al.Cycles) / float64(comp.Cycles)
	}
	if hand.Cycles > 0 {
		row.SpeedupHand = float64(al.Cycles) / float64(hand.Cycles)
	}
	row.IPCTCC = comp.IPC
	row.IPCHand = hand.IPC
	row.IPCAlpha = al.IPC
	row.CyclesHand = hand.Cycles
	row.CyclesTCC = comp.Cycles
	row.CyclesAlpha = al.Cycles
	return row, nil
}
