package eval

import (
	"fmt"
	"runtime"
	"sync"

	"trips/internal/ckpt"
	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// trips is one built TRIPS machine: the compiled program imaged into memory,
// the core, and whichever memory backend the options selected. RunTRIPS runs
// one to completion; RunSampled builds one per restored interval.
type trips struct {
	name string
	prog *proc.Program
	meta *tcc.Meta
	m    *mem.Memory
	core *proc.Core
	sys  *nuca.System
	flm  *proc.FixedLatencyMem
	lat  int
	// external: the run loop ticks the NUCA, not the core (sys != nil).
	external bool
}

// buildTRIPS compiles spec and assembles the machine. external selects who
// ticks a NUCA backend: the run loop after each core step — the bounded-lag
// coordinator in production, core-then-memory lockstep on the reference — or
// the core itself from inside Step, which RunSampled's Core.Run pass and
// interval replays use. It has no meaning on the perfect L2, which the core
// always ticks.
func buildTRIPS(spec *workloads.Spec, opt TRIPSOptions, external bool) (*trips, error) {
	prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: opt.Mode, Placement: opt.Placement})
	if err != nil {
		return nil, fmt.Errorf("eval: compile %s: %w", spec.F.Name, err)
	}
	m := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(m)
	}
	if err := prog.Image(m); err != nil {
		return nil, err
	}
	lat := opt.MemLatency
	if lat == 0 {
		lat = 20
	}
	t := &trips{name: spec.F.Name, prog: prog, meta: meta, m: m, lat: lat, external: external && opt.UseNUCA}
	var backend proc.MemBackend
	if opt.UseNUCA {
		t.sys = nuca.New(nuca.Config{Backing: m, Trace: opt.Trace, Metrics: opt.Metrics})
		if t.external {
			// Every port carries the single core's owner id: the coordinator's
			// staged-submission and effect gates see its traffic through it,
			// and the memory system keeps its response-deadline book — which
			// checkpoint frames carry — only for owned ports, so the reference
			// needs them too for its frames to resume under the coordinator.
			t.sys.AssignOwners(func(string) int { return 0 })
		}
		backend = t.sys
	} else {
		t.flm = proc.NewFixedLatencyMem(m, lat)
		backend = t.flm
	}
	core, err := proc.NewCore(proc.Config{
		Program:           prog,
		Mem:               backend,
		TrackCritPath:     opt.TrackCritPath,
		OPNChannels:       opt.OPNChannels,
		ConservativeLoads: opt.ConservativeLoads,
		SlowOPNRouter:     opt.SlowOPNRouter,
		Reference:         opt.Reference,
		ExternalMemTick:   t.external,
		MaxCycles:         opt.MaxCycles,
		Trace:             opt.Trace,
		Metrics:           opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	for v, val := range spec.Init {
		if gr, ok := meta.RegOf[v]; ok {
			core.SetRegister(0, gr, val)
		}
	}
	if opt.LagDeadlinePad > 0 {
		core.SetLagFaults(opt.LagDeadlinePad)
	}
	t.core = core
	return t, nil
}

// hash binds a checkpoint to the exact program image and the configuration
// knobs that shape simulated behavior. Reference is deliberately excluded:
// the reference and the production stepping are bit-identical by
// construction, so a checkpoint taken under one restores under the other.
func (t *trips) hash(opt TRIPSOptions) ckpt.Hash {
	cfg := fmt.Sprintf("eval:%s mode=%v placement=%v opn=%d conservative=%v slowopn=%v memlat=%d nuca=%v",
		t.name, opt.Mode, opt.Placement, opt.OPNChannels, opt.ConservativeLoads,
		opt.SlowOPNRouter, t.lat, opt.UseNUCA)
	return ckpt.HashContent(t.prog.CanonicalBytes(), []byte(cfg))
}

// save serializes the whole machine: the core (tiles, micronets, LSQs,
// predictor, event wheel) followed by the memory backend (which carries the
// backing memory image).
func (t *trips) save(w *ckpt.Writer) error {
	if err := t.core.SaveState(w); err != nil {
		return err
	}
	if t.sys != nil {
		t.sys.SaveState(w)
	} else {
		t.flm.SaveState(w)
	}
	return nil
}

// load restores a checkpoint payload into a freshly built machine. The core
// restores first: origin resolution for in-flight memory transactions reads
// restored tile state.
func (t *trips) load(payload []byte) error {
	pr := ckpt.NewReader(payload)
	if err := t.core.LoadState(pr); err != nil {
		return err
	}
	if t.sys != nil {
		t.sys.LoadState(pr, func(string) proc.OriginResolver { return t.core })
	} else {
		t.flm.LoadState(pr, t.core)
	}
	return pr.Close()
}

// finish drains and summarizes a completed run (shared by RunTRIPS and the
// RunSampled profiling pass).
func (t *trips) finish(res proc.Result, lagStats *proc.LagStats) (*TRIPSResult, error) {
	if err := t.core.FlushCaches(); err != nil {
		return nil, fmt.Errorf("eval: %s: %w", t.name, err)
	}
	if t.sys != nil {
		// Leak assertion: a completed run must have drained the OCN pending
		// tables — every transaction (split or not) saw its response. A
		// residue here means a response was dropped or a pending entry
		// leaked, which would surface much later as an id collision.
		if n := t.sys.Outstanding(); n != 0 {
			return nil, fmt.Errorf("eval: %s: %d OCN transactions still pending after completion", t.name, n)
		}
		t.sys.Flush()
	}
	regs := make(map[tir.Reg]uint64, len(t.meta.RegOf))
	for v, gr := range t.meta.RegOf {
		regs[v] = t.core.Register(0, gr)
	}
	var nucaRep *nuca.StatsReport
	if t.sys != nil {
		rep := t.sys.Report()
		nucaRep = &rep
	}
	return &TRIPSResult{
		Cycles:    res.Cycles,
		Insts:     res.CommittedInsts,
		Blocks:    res.CommittedBlocks,
		IPC:       res.IPC,
		Flushes:   res.Flushes,
		Crit:      res.CritPath,
		Regs:      regs,
		Mem:       t.m,
		BlockSize: t.meta.AvgBlockSize,
		Stats:     t.core.TileStats(),

		Warps:         t.core.Warps,
		WarpedCycles:  t.core.WarpedCycles,
		TileTicks:     t.core.TileTicks,
		TileSkips:     t.core.TileSkips,
		SteppedCycles: t.core.SteppedCycles,
		NUCA:          nucaRep,
		Lag:           lagStats,
	}, nil
}

// SampleInterval is one measured interval of a sampled run.
type SampleInterval struct {
	Index      int
	StartCycle int64 // the commit boundary the interval's checkpoint captured
	EndCycle   int64 // StartCycle + the interval length, or earlier if the program ended
	Insts      uint64
	IPC        float64
}

// SampledResult is the outcome of RunSampled: the full-length profiling
// pass plus the per-interval measurements replayed from its checkpoints.
type SampledResult struct {
	Full      *TRIPSResult
	Warmup    int64
	Interval  int64
	Samples   []SampleInterval
	CkptBytes int64 // total checkpoint payload bytes held in memory
}

// RunSampled runs spec once end-to-end, capturing in-memory checkpoints at
// block-commit boundaries — the first after `warmup` cycles, then every
// `interval` cycles, up to maxSamples — and then fans the intervals across a
// worker pool SimPoint-style: each worker restores its checkpoint into a
// fresh machine and re-simulates exactly one interval, yielding per-interval
// IPC without a second serial pass. workers <= 0 means GOMAXPROCS.
//
// The machines are driven by the core's own loop (Core.Run ticking its
// backend) rather than the bounded-lag coordinator: the two are bit-identical
// by construction, and a restored interval has to be driven cycle-by-cycle.
// A program that retires before `warmup` yields Samples of length zero.
func RunSampled(spec *workloads.Spec, opt TRIPSOptions, warmup, interval int64, maxSamples, workers int) (*SampledResult, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("eval: sampled %s: interval must be positive, got %d", spec.F.Name, interval)
	}
	if maxSamples <= 0 {
		return nil, fmt.Errorf("eval: sampled %s: maxSamples must be positive, got %d", spec.F.Name, maxSamples)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("eval: sampled %s: warmup must be non-negative, got %d", spec.F.Name, warmup)
	}
	if opt.TrackCritPath {
		return nil, fmt.Errorf("eval: sampled %s: incompatible with critical-path tracking (checkpoints do not carry its events)", spec.F.Name)
	}
	if opt.CheckpointTo != nil || opt.RestoreFrom != nil {
		return nil, fmt.Errorf("eval: sampled %s: cannot combine with explicit checkpoint/restore", spec.F.Name)
	}
	if opt.Flight != nil {
		return nil, fmt.Errorf("eval: sampled %s: the flight recorder and SimPoint sampling both own the commit hook; use one", spec.F.Name)
	}
	opt.CheckpointAt = 0
	// A Tracer/Sampler is single-goroutine; the interval machines run
	// concurrently, so observability stays on the profiling pass only.
	intervalOpt := opt
	intervalOpt.Trace, intervalOpt.Metrics = nil, nil

	ref, err := buildTRIPS(spec, opt, false)
	if err != nil {
		return nil, err
	}
	type ck struct {
		cycle   int64
		payload []byte
	}
	var cks []ck
	var totalBytes int64
	var capture func(cycle int64) error
	capture = func(cycle int64) error {
		pw := &ckpt.Writer{}
		if err := ref.save(pw); err != nil {
			return err
		}
		cks = append(cks, ck{cycle: cycle, payload: pw.Payload()})
		totalBytes += int64(pw.Len())
		if len(cks) < maxSamples {
			ref.core.SetCheckpointHook(cycle+interval, capture)
		}
		return nil
	}
	ref.core.SetCheckpointHook(warmup, capture)
	res, err := ref.core.Run()
	if err != nil {
		return nil, fmt.Errorf("eval: sampled %s: %w", spec.F.Name, err)
	}
	full, err := ref.finish(res, nil)
	if err != nil {
		return nil, err
	}

	out := &SampledResult{Full: full, Warmup: warmup, Interval: interval, CkptBytes: totalBytes}
	if len(cks) == 0 {
		return out, nil
	}
	samples := make([]SampleInterval, len(cks))
	errs := make([]error, len(cks))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cks) {
		workers = len(cks)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				samples[i], errs[i] = runInterval(spec, intervalOpt, cks[i].payload, interval)
				samples[i].Index = i
			}
		}()
	}
	for i := range cks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: sampled %s: %w", spec.F.Name, err)
		}
	}
	out.Samples = samples
	return out, nil
}

// runInterval restores one checkpoint into a fresh machine and steps it for
// one interval (or until the program retires).
func runInterval(spec *workloads.Spec, opt TRIPSOptions, payload []byte, interval int64) (SampleInterval, error) {
	t, err := buildTRIPS(spec, opt, false)
	if err != nil {
		return SampleInterval{}, err
	}
	if err := t.load(payload); err != nil {
		return SampleInterval{}, err
	}
	start := t.core.Cycle()
	startInsts := t.core.CommittedInsts
	end := start + interval
	for !t.core.Done() && t.core.Cycle() < end {
		t.core.Step()
	}
	s := SampleInterval{StartCycle: start, EndCycle: t.core.Cycle(), Insts: t.core.CommittedInsts - startInsts}
	if d := s.EndCycle - s.StartCycle; d > 0 {
		s.IPC = float64(s.Insts) / float64(d)
	}
	return s, nil
}
