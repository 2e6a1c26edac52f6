package main

import (
	"bytes"
	"fmt"
	"time"

	"trips/internal/alpha"
	"trips/internal/ckpt"
	"trips/internal/eval"
	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// The benchmark's own pipeline: the calls eval.RunTRIPS and eval.RunAlpha
// make into each layer, made here with a span around each, so a traced pass
// attributes host time to layers from outside the simulator. With a nil
// tracer the same code is the verified warm-up pass. It builds only the
// default configuration; results are returned as eval.TRIPSResult so both
// paths feed one set of counters.

// machine is one built TRIPS core with its memory backend: the perfect L2
// (fixed-latency memory) or, when sys is set, the NUCA array on the OCN.
type machine struct {
	name string
	prog *proc.Program
	meta *tcc.Meta
	m    *mem.Memory
	core *proc.Core
	sys  *nuca.System
	flm  *proc.FixedLatencyMem
}

// perfectL2Latency is the L1-miss latency of the paper's perfect-L2
// normalization (eval's default).
const perfectL2Latency = 20

func buildMachine(tr *tracer, spec *workloads.Spec, mode tcc.Mode, useNUCA, critPath bool) (*machine, error) {
	s := tr.begin("tcc.compile_ns")
	prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: mode})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.F.Name, err)
	}
	s = tr.begin("proc.image_ns")
	m := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(m)
	}
	err = prog.Image(m)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	mc := &machine{name: spec.F.Name, prog: prog, meta: meta, m: m}
	var backend proc.MemBackend
	if useNUCA {
		s = tr.begin("nuca.new_ns")
		mc.sys = nuca.New(nuca.Config{Backing: m})
		// Bounded-lag stepping needs every port tagged with the core's id.
		mc.sys.AssignOwners(func(string) int { return 0 })
		tr.end(s)
		backend = mc.sys
	}
	s = tr.begin("proc.newcore_ns")
	if !useNUCA {
		mc.flm = proc.NewFixedLatencyMem(m, perfectL2Latency)
		backend = mc.flm
	}
	mc.core, err = proc.NewCore(proc.Config{
		Program:         prog,
		Mem:             backend,
		TrackCritPath:   critPath,
		ExternalMemTick: useNUCA,
	})
	if err == nil {
		for v, val := range spec.Init {
			if gr, ok := meta.RegOf[v]; ok {
				mc.core.SetRegister(0, gr, val)
			}
		}
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return mc, nil
}

// run executes the machine to completion under the default stepper: the
// core's own loop on the perfect L2, the bounded-lag coordinator on the NUCA.
// A hook armed on the core beforehand (checkpoint, flight recorder) fires.
func (mc *machine) run(tr *tracer, lag *proc.LagStats) (proc.Result, error) {
	s := tr.begin("proc.run_ns")
	defer tr.end(s)
	if mc.sys != nil {
		return mc.core.RunLagCheckpointed(mc.sys, 0, lag)
	}
	return mc.core.Run()
}

// finish drains the caches and collects the result, as eval does.
func (mc *machine) finish(tr *tracer, res proc.Result, lag *proc.LagStats) (*eval.TRIPSResult, error) {
	s := tr.begin("eval.finish_ns")
	defer tr.end(s)
	mc.core.FlushCaches()
	out := &eval.TRIPSResult{
		Cycles:        res.Cycles,
		Insts:         res.CommittedInsts,
		Blocks:        res.CommittedBlocks,
		IPC:           res.IPC,
		Flushes:       res.Flushes,
		Crit:          res.CritPath,
		Mem:           mc.m,
		Stats:         mc.core.TileStats(),
		Warps:         mc.core.Warps,
		WarpedCycles:  mc.core.WarpedCycles,
		TileTicks:     mc.core.TileTicks,
		TileSkips:     mc.core.TileSkips,
		SteppedCycles: mc.core.SteppedCycles,
	}
	if mc.sys != nil {
		if n := mc.sys.Outstanding(); n != 0 {
			return nil, fmt.Errorf("%s: %d OCN transactions still pending after completion", mc.name, n)
		}
		mc.sys.Flush()
		rep := mc.sys.Report()
		out.NUCA = &rep
		out.Lag = lag
	}
	out.Regs = make(map[tir.Reg]uint64, len(mc.meta.RegOf))
	for v, gr := range mc.meta.RegOf {
		out.Regs[v] = mc.core.Register(0, gr)
	}
	return out, nil
}

// runTRIPS is build, run, finish: the benchmark-side eval.RunTRIPS.
func runTRIPS(tr *tracer, spec *workloads.Spec, mode tcc.Mode, useNUCA, critPath bool) (*eval.TRIPSResult, error) {
	mc, err := buildMachine(tr, spec, mode, useNUCA, critPath)
	if err != nil {
		return nil, err
	}
	return mc.runToEnd(tr)
}

func (mc *machine) runToEnd(tr *tracer) (*eval.TRIPSResult, error) {
	var lag *proc.LagStats
	if mc.sys != nil {
		lag = &proc.LagStats{}
	}
	res, err := mc.run(tr, lag)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mc.name, err)
	}
	return mc.finish(tr, res, lag)
}

// runAlpha is the benchmark-side eval.RunAlpha.
func runAlpha(tr *tracer, spec *workloads.Spec) (*eval.AlphaResult, error) {
	s := tr.begin("alpha.flatten_ns")
	code, err := alpha.Flatten(spec.F)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("alpha.run_ns")
	defer tr.end(s)
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
		return nil, fmt.Errorf("alpha %s: %w", spec.F.Name, err)
	}
	mc.FlushCache()
	regs := make([]uint64, spec.F.NumRegs())
	for i := range regs {
		regs[i] = mc.Reg(tir.Reg(i))
	}
	return &eval.AlphaResult{Cycles: res.Cycles, Insts: res.Committed, IPC: res.IPC, Regs: regs, Mem: m}, nil
}

// Checkpointing, as eval.RunTRIPS frames it: the core, then the memory
// backend (which carries the backing image), bound to the program by hash.

func (mc *machine) hash() ckpt.Hash {
	return ckpt.HashContent(mc.prog.CanonicalBytes(), []byte("bench:"+mc.name))
}

func (mc *machine) save(w *ckpt.Writer) error {
	if err := mc.core.SaveState(w); err != nil {
		return err
	}
	if mc.sys != nil {
		mc.sys.SaveState(w)
	} else {
		mc.flm.SaveState(w)
	}
	return nil
}

func (mc *machine) load(payload []byte) error {
	pr := ckpt.NewReader(payload)
	if err := mc.core.LoadState(pr); err != nil {
		return err
	}
	if mc.sys != nil {
		mc.sys.LoadState(pr, func(string) proc.OriginResolver { return mc.core })
	} else {
		mc.flm.LoadState(pr, mc.core)
	}
	return pr.Close()
}

// ckptTimes is what one checkpoint-and-restore cost, taken at the same
// boundaries as the spans.
type ckptTimes struct {
	payloadBytes int64
	resimNS      int64 // host time the run needed to reach the checkpoint
	restoreNS    int64 // read + load
}

// armCheckpoint arms a one-shot checkpoint at the first block commit past
// cycle `at`, framed into buf.
func (mc *machine) armCheckpoint(tr *tracer, at int64, buf *bytes.Buffer, ct *ckptTimes) {
	start := time.Now()
	mc.core.SetCheckpointHook(at, func(int64) error {
		ct.resimNS += time.Since(start).Nanoseconds()
		s := tr.begin("ckpt.save_ns")
		w := &ckpt.Writer{}
		err := mc.save(w)
		tr.end(s)
		if err != nil {
			return err
		}
		ct.payloadBytes += int64(w.Len())
		s = tr.begin("ckpt.frame_ns")
		defer tr.end(s)
		return ckpt.WriteFile(buf, mc.hash(), w.Payload())
	})
}

// restore loads the checkpoint framed in buf into a freshly built machine.
func (mc *machine) restore(tr *tracer, buf *bytes.Buffer, ct *ckptTimes) error {
	start := time.Now()
	s := tr.begin("ckpt.read_ns")
	payload, err := ckpt.ReadFile(buf, mc.hash())
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("ckpt.load_ns")
	err = mc.load(payload)
	tr.end(s)
	ct.restoreNS += time.Since(start).Nanoseconds()
	return err
}
