package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"trips/internal/chip"
	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/eval"
	"trips/internal/flight"
	"trips/internal/mem"
	"trips/internal/nuca"
	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// A workload is a closed loop of one caller: each pass starts when the
// previous one has returned. The set-up builds the inputs from the seed and
// makes one verified warm-up pass through the benchmark's own pipeline, which
// checks every output register against the TIR golden interpreter and records
// the cycle counts every later pass must reproduce.
type workload struct {
	name string
	// procs is GOMAXPROCS for the workload: 1, except that chip-dual steps
	// its two cores on two host threads when the host has them.
	procs     int
	setupReps int // set-ups per run; setup_s is their median
	setup     func(seed uint64, smoke bool, outDir string) (runner, error)
}

// runner is a workload after set-up.
type runner interface {
	// timed makes one pass through the public entry points a user of the
	// simulator calls, ending each unit with l.lap(). It returns the simulated
	// cycles the pass covered.
	timed(ck *check, l *laps) (int64, error)
	// traced makes the same pass through the benchmark's own pipeline, with
	// a span round each call into a layer (tr may be nil) and exact counters
	// read at the same boundaries.
	traced(tr *tracer, c *counters, ck *check) (int64, error)
	// unitCycles gives the cycle count the warm-up pass recorded per unit.
	unitCycles() map[string]int64
}

func workloadList() []workload {
	return []workload{
		{"table3", 1, 2, setupTable3},
		{"nuca-footprint", 1, 3, setupNUCA},
		{"chip-dual", min(2, runtime.NumCPU()), 5, setupChip},
		{"ckpt-replay", 1, 2, setupCkpt},
	}
}

// check tallies the units a pass attempted and the ones that failed: an
// output differing from golden, a cycle count differing from the verified
// warm-up pass, or a restored run that is not bit-identical.
type check struct {
	attempted, failed int
	first             string
}

func (c *check) unit(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

// refs holds what the verified warm-up pass recorded, per unit.
type refs struct {
	cycles map[string]int64
	gold   map[string][]uint64
}

func newRefs() refs { return refs{map[string]int64{}, map[string][]uint64{}} }

func (r refs) unitCycles() map[string]int64 { return r.cycles }

// cyclesOK records a unit's cycle count on the warm-up pass and compares
// against the record afterwards.
func (r refs) cyclesOK(ck *check, unit string, cycles int64) {
	want, seen := r.cycles[unit]
	if !seen {
		r.cycles[unit] = cycles
		want = cycles
	}
	ck.unit(cycles == want, "%s: %d cycles, the verified warm-up pass had %d", unit, cycles, want)
}

// goldenOf interprets spec once per unit (span tir.interp_ns) and keeps the
// final registers for the passes that follow.
func (r refs) goldenOf(tr *tracer, unit string, spec *workloads.Spec) ([]uint64, error) {
	if g, ok := r.gold[unit]; ok && tr == nil {
		return g, nil
	}
	s := tr.begin("tir.interp_ns")
	g, _, err := golden(spec)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	r.gold[unit] = g
	return g, nil
}

func regsMatch(spec *workloads.Spec, gold []uint64, got func(tir.Reg) (uint64, bool)) bool {
	for _, out := range spec.Outputs {
		v, ok := got(out)
		if !ok || v != gold[out] {
			return false
		}
	}
	return true
}

func tripsRegs(r *eval.TRIPSResult) func(tir.Reg) (uint64, bool) {
	return func(v tir.Reg) (uint64, bool) { x, ok := r.Regs[v]; return x, ok }
}

func buildSpec(tr *tracer, build func() *workloads.Spec) *workloads.Spec {
	s := tr.begin("workloads.build_ns")
	defer tr.end(s)
	return build()
}

// ---------------------------------------------------------------- table3

// table3 is the paper regeneration: all 21 benchmarks, hand-optimized with
// critical-path tracking, compiled, and the Alpha baseline, on the perfect
// L2. The seed decides the order the rows are simulated in.
type table3Run struct {
	names []string
	refs
	paper map[string]paperRow
}

// paperRow holds the IPCs the paper's Table 3 reports for one benchmark;
// zero marks a cell the paper leaves empty.
type paperRow struct {
	TCC   float64 `json:"ipc_tcc"`
	Hand  float64 `json:"ipc_hand"`
	Alpha float64 `json:"ipc_alpha"`
}

//go:embed ref/paper_table3.json
var paperTable3 []byte

func loadPaper() (map[string]paperRow, error) {
	var doc struct {
		Rows map[string]paperRow `json:"rows"`
	}
	if err := json.Unmarshal(paperTable3, &doc); err != nil {
		return nil, fmt.Errorf("paper_table3.json: %w", err)
	}
	return doc.Rows, nil
}

func setupTable3(seed uint64, smoke bool, _ string) (runner, error) {
	paper, err := loadPaper()
	if err != nil {
		return nil, err
	}
	r := &table3Run{refs: newRefs(), paper: paper}
	for _, w := range workloads.All() {
		r.names = append(r.names, w.Name)
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(r.names), func(i, j int) {
		r.names[i], r.names[j] = r.names[j], r.names[i]
	})
	if smoke {
		r.names = []string{"svd"}
	}
	return r, warmUp(r)
}

func (r *table3Run) timed(ck *check, l *laps) (int64, error) {
	var total int64
	for _, name := range r.names {
		rep, err := eval.Table3Rows([]string{name}, 1)
		if err != nil {
			return 0, err
		}
		row := rep.Rows[0]
		r.refs.cyclesOK(ck, name+"/hand", row.CyclesHand)
		r.refs.cyclesOK(ck, name+"/tcc", row.CyclesTCC)
		r.refs.cyclesOK(ck, name+"/alpha", row.CyclesAlpha)
		total += rep.TotalSimCycles
		l.lap()
	}
	return total, nil
}

func (r *table3Run) traced(tr *tracer, c *counters, ck *check) (int64, error) {
	var total int64
	for _, name := range r.names {
		w, err := workloads.ByName(name)
		if err != nil {
			return 0, err
		}
		var ipc paperRow
		var goldTCC []uint64
		for _, hand := range []bool{true, false} {
			tr.nextUnit()
			unit, mode := name+"/tcc", tcc.Compiled
			if hand {
				unit, mode = name+"/hand", tcc.Hand
			}
			spec := buildSpec(tr, func() *workloads.Spec { return w.Build(hand) })
			gold, err := r.refs.goldenOf(tr, unit, spec)
			if err != nil {
				return 0, err
			}
			res, err := runTRIPS(tr, spec, mode, false, hand)
			if err != nil {
				return 0, err
			}
			ck.unit(regsMatch(spec, gold, tripsRegs(res)), "%s: outputs differ from golden", unit)
			r.refs.cyclesOK(ck, unit, res.Cycles)
			c.addTRIPS(res)
			if hand {
				c.addCrit(res.Crit)
				ipc.Hand = res.IPC
			} else {
				ipc.TCC = res.IPC
				goldTCC = gold
			}
			total += res.Cycles
		}
		tr.nextUnit()
		unit := name + "/alpha"
		spec := buildSpec(tr, func() *workloads.Spec { return w.Build(false) })
		al, err := runAlpha(tr, spec)
		if err != nil {
			return 0, err
		}
		ck.unit(regsMatch(spec, goldTCC, func(v tir.Reg) (uint64, bool) { return al.Regs[v], true }),
			"%s: outputs differ from golden", unit)
		r.refs.cyclesOK(ck, unit, al.Cycles)
		c.alphaCycles += al.Cycles
		c.alphaInsts += al.Insts
		ipc.Alpha = al.IPC
		total += al.Cycles
		c.addPaperErr(ipc, r.paper[name])
	}
	return total, nil
}

// ------------------------------------------------------- nuca-footprint

// nucaRun is one core on the full NUCA/OCN/SDRAM under the default stepper,
// on the generated kernels plus two of the suite's.
type nucaRun struct {
	units []nucaUnit
	refs
}

type nucaUnit struct {
	name  string
	build func() *workloads.Spec
}

func setupNUCA(seed uint64, smoke bool, _ string) (runner, error) {
	r := &nucaRun{refs: newRefs()}
	for _, k := range genKernels(smoke) {
		r.units = append(r.units, nucaUnit{k.name, func() *workloads.Spec { return k.build(seed) }})
	}
	if !smoke {
		for _, name := range []string{"vadd", "181.mcf"} {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			r.units = append(r.units, nucaUnit{name, func() *workloads.Spec { return w.Build(true) }})
		}
	}
	return r, warmUp(r)
}

func (r *nucaRun) timed(ck *check, l *laps) (int64, error) {
	var total int64
	for _, u := range r.units {
		spec := u.build()
		res, err := eval.RunTRIPS(spec, eval.TRIPSOptions{Mode: tcc.Hand, UseNUCA: true})
		if err != nil {
			return 0, err
		}
		ck.unit(regsMatch(spec, r.refs.gold[u.name], tripsRegs(res)), "%s: outputs differ from golden", u.name)
		r.refs.cyclesOK(ck, u.name, res.Cycles)
		total += res.Cycles
		l.lap()
	}
	return total, nil
}

func (r *nucaRun) traced(tr *tracer, c *counters, ck *check) (int64, error) {
	var total int64
	for _, u := range r.units {
		tr.nextUnit()
		spec := buildSpec(tr, u.build)
		gold, err := r.refs.goldenOf(tr, u.name, spec)
		if err != nil {
			return 0, err
		}
		res, err := runTRIPS(tr, spec, tcc.Hand, true, false)
		if err != nil {
			return 0, err
		}
		ck.unit(regsMatch(spec, gold, tripsRegs(res)), "%s: outputs differ from golden", u.name)
		r.refs.cyclesOK(ck, u.name, res.Cycles)
		c.addTRIPS(res)
		total += res.Cycles
	}
	return total, nil
}

// stepped re-runs every unit as the plain interleave — one core step, one
// memory tick — with a timer round each call, which splits the host time of a
// simulated cycle between the core and the secondary memory system. The
// stepped run must reproduce the cycle count of the default stepper.
func (r *nucaRun) stepped(ck *check) (stepNS, tickNS, loopNS, cycles int64, err error) {
	for _, u := range r.units {
		spec := u.build()
		prog, meta, err := tcc.Compile(spec.F, tcc.Options{Mode: tcc.Hand})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		m := mem.New()
		spec.SetupMem(m)
		if err := prog.Image(m); err != nil {
			return 0, 0, 0, 0, err
		}
		sys := nuca.New(nuca.Config{Backing: m})
		core, err := proc.NewCore(proc.Config{Program: prog, Mem: sys, ExternalMemTick: true})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for v, val := range spec.Init {
			if gr, ok := meta.RegOf[v]; ok {
				core.SetRegister(0, gr, val)
			}
		}
		start := time.Now()
		t0 := start
		for !core.Done() {
			core.Step()
			t1 := time.Now()
			sys.Tick()
			t2 := time.Now()
			stepNS += t1.Sub(t0).Nanoseconds()
			tickNS += t2.Sub(t1).Nanoseconds()
			t0 = t2
		}
		loopNS += time.Since(start).Nanoseconds()
		cycles += core.Cycle()
		r.refs.cyclesOK(ck, u.name, core.Cycle())
	}
	return stepNS, tickNS, loopNS, cycles, nil
}

// ------------------------------------------------------------ chip-dual

// chipRun drives the whole chip through chip.New and Chip.Run with the
// default Config. There is no higher entry point for the chip, so the timed
// and the traced pass share one body.
type chipRun struct {
	units []chipUnit
	refs
	seed uint64
}

// chipUnit is one chip scenario: a program per core (nil leaves the core
// powered down) and an optional DMA transfer.
type chipUnit struct {
	name      string
	cores     [2]string // suite workload per core, "" for none, "idle" for a two-block program
	partition bool
	dmaBytes  int
}

const (
	dmaSrc = 0x70_0000
	dmaDst = 0x76_0000
	// drainTicks outlasts any write-back in flight when a chip run ends: an
	// OCN crossing plus the SDRAM latency is under two hundred cycles.
	drainTicks = 1024
)

func setupChip(seed uint64, smoke bool, _ string) (runner, error) {
	r := &chipRun{refs: newRefs(), seed: seed}
	if smoke {
		r.units = []chipUnit{{name: "dma-stream", cores: [2]string{"idle", ""}, dmaBytes: 4 << 10}}
	} else {
		r.units = []chipUnit{
			{name: "dual-vadd", cores: [2]string{"vadd", "vadd"}, partition: true},
			{name: "mcf+vadd", cores: [2]string{"181.mcf", "vadd"}},
			{name: "dma-stream", cores: [2]string{"idle", ""}, dmaBytes: 64 << 10},
		}
	}
	return r, warmUp(r)
}

// idleSpec is a program that retires at once, leaving the chip to the DMA.
func idleSpec() *workloads.Spec {
	f := tir.NewFunc("idle")
	n := f.NewReg()
	b := f.NewBB("entry")
	b.Emit(tir.Inst{Op: tir.ConstI, Dst: n, Imm: 1})
	b.Emit(tir.Inst{Op: tir.AddI, Dst: n, A: n, Imm: 1})
	b.Ret()
	f.Keep(n)
	return &workloads.Spec{F: f, Outputs: []tir.Reg{n}}
}

func (r *chipRun) timed(ck *check, l *laps) (int64, error) {
	return r.pass(nil, &counters{}, ck, l)
}

func (r *chipRun) traced(tr *tracer, c *counters, ck *check) (int64, error) {
	return r.pass(tr, c, ck, nil)
}

func (r *chipRun) pass(tr *tracer, c *counters, ck *check, l *laps) (int64, error) {
	var total int64
	for _, u := range r.units {
		tr.nextUnit()
		cyc, err := r.runUnit(tr, u, c, ck)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", u.name, err)
		}
		total += cyc
		l.lap()
	}
	return total, nil
}

func (r *chipRun) runUnit(tr *tracer, u chipUnit, c *counters, ck *check) (int64, error) {
	var specs [2]*workloads.Spec
	var progs [2]*proc.Program
	var metas [2]*tcc.Meta
	for i, name := range u.cores {
		switch name {
		case "":
			continue
		case "idle":
			specs[i] = buildSpec(tr, idleSpec)
		default:
			w, err := workloads.ByName(name)
			if err != nil {
				return 0, err
			}
			specs[i] = buildSpec(tr, func() *workloads.Spec { return w.Build(true) })
		}
		s := tr.begin("tcc.compile_ns")
		var err error
		progs[i], metas[i], err = tcc.Compile(specs[i].F, tcc.Options{Mode: tcc.Hand, BaseAddr: 0x10000 + uint64(i)*0x30000})
		tr.end(s)
		if err != nil {
			return 0, err
		}
	}
	// One shared memory image: core 1's data first, then core 0's, then the
	// DMA payload. The suite's kernels all place their inputs at the same
	// base, so where two differ the later one's inputs win; neither writes
	// what the other reads, so each program's golden result is its
	// interpretation over this same image.
	payload := make([]byte, u.dmaBytes)
	rand.New(rand.NewSource(int64(r.seed))).Read(payload)
	image := func(m *mem.Memory) {
		for i := 1; i >= 0; i-- {
			if specs[i] != nil && specs[i].SetupMem != nil {
				specs[i].SetupMem(m)
			}
		}
		m.WriteBytes(dmaSrc, payload)
	}
	s := tr.begin("proc.image_ns")
	backing := mem.New()
	image(backing)
	tr.end(s)

	s = tr.begin("chip.new_ns")
	ch, err := chip.New(chip.Config{Programs: progs, Backing: backing, Partition: u.partition})
	if err == nil {
		for i, spec := range specs {
			if spec == nil {
				continue
			}
			for v, val := range spec.Init {
				if gr, ok := metas[i].RegOf[v]; ok {
					ch.Cores[i].SetRegister(0, gr, val)
				}
			}
		}
		if u.dmaBytes > 0 {
			ch.DMA[0].Program(dmaSrc, dmaDst, u.dmaBytes)
		}
	}
	tr.end(s)
	if err != nil {
		return 0, err
	}

	s = tr.begin("chip.run_ns")
	err = ch.Run()
	tr.end(s)
	if err != nil {
		return 0, err
	}

	// Only the L2 is flushed: the checks read registers and the DMA
	// destination, and Core.FlushCaches cannot be used on a chip core (it
	// retries a refused write-back by ticking the core's own backend, which
	// on the chip is a no-op, so it would spin).
	// Chip.Run returns once the cores and the DMA are done, which can leave
	// an evicted line's write-back on its way to SDRAM: tick it home first.
	s = tr.begin("eval.finish_ns")
	for i := 0; i < drainTicks; i++ {
		ch.Mem.Tick()
	}
	ch.Mem.Flush()
	tr.end(s)

	for i, spec := range specs {
		if spec == nil {
			continue
		}
		unit := fmt.Sprintf("%s/core%d", u.name, i)
		shared := *spec
		shared.SetupMem = image
		gold, err := r.refs.goldenOf(tr, unit, &shared)
		if err != nil {
			return 0, err
		}
		ck.unit(regsMatch(spec, gold, func(v tir.Reg) (uint64, bool) {
			gr, ok := metas[i].RegOf[v]
			return ch.Cores[i].Register(0, gr), ok
		}), "%s: outputs differ from golden", unit)
	}
	if u.dmaBytes > 0 {
		moved := ch.DMA[0].Moved == uint64(u.dmaBytes) && bytes.Equal(backing.ReadBytes(dmaDst, u.dmaBytes), payload)
		ck.unit(moved, "%s: DMA destination differs from the source", u.name)
	}
	r.refs.cyclesOK(ck, u.name, ch.Cycle())
	c.addChip(ch)
	return ch.Cycle(), nil
}

// ---------------------------------------------------------- ckpt-replay

// ckptRun uses the simulator for random access in time: checkpoint mid-run,
// restore into a fresh machine and finish, sample intervals from in-memory
// checkpoints, and run with the flight recorder armed. It is the workload on
// which state is written as well as read.
type ckptRun struct {
	units []ckptUnit
	refs
	flightDir string
}

type ckptUnit struct {
	name    string
	w       workloads.Workload
	useNUCA bool
	plain   *eval.TRIPSResult // the uninterrupted run every other run must equal
	at      [2]int64          // checkpoint cycles: a seeded point and its mirror image
}

const (
	sampleIntervals = 8
	flightInterval  = 5000 // cycles between rolling captures
)

func setupCkpt(seed uint64, smoke bool, outDir string) (runner, error) {
	r := &ckptRun{refs: newRefs(), flightDir: filepath.Join(outDir, "flight")}
	type pick struct {
		name    string
		useNUCA bool
	}
	picks := []pick{{"256.bzip2", false}, {"197.parser", false}, {"181.mcf", true}}
	if smoke {
		picks = []pick{{"svd", true}}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, p := range picks {
		w, err := workloads.ByName(p.name)
		if err != nil {
			return nil, err
		}
		u := ckptUnit{name: p.name, w: w, useNUCA: p.useNUCA}
		spec := w.Build(true)
		gold, err := r.refs.goldenOf(nil, u.name, spec)
		if err != nil {
			return nil, err
		}
		if u.plain, err = runTRIPS(nil, spec, tcc.Hand, u.useNUCA, false); err != nil {
			return nil, err
		}
		if !regsMatch(spec, gold, tripsRegs(u.plain)) {
			return nil, fmt.Errorf("%s: outputs of the uninterrupted run differ from golden", u.name)
		}
		// The checkpoint lands at a seeded cycle in the middle half of the
		// run and at its mirror image, so the two restored runs together
		// always simulate one whole run: the seed moves the checkpoints, not
		// the amount of work in a pass.
		T := u.plain.Cycles
		r.refs.cycles[u.name] = T
		u.at[0] = T/4 + rng.Int63n(T/2)
		u.at[1] = T - u.at[0]
		r.units = append(r.units, u)
	}
	return r, warmUp(r)
}

// same reports whether a run ended bit-identical to the uninterrupted one.
func (u *ckptUnit) same(res *eval.TRIPSResult) bool {
	if res.Cycles != u.plain.Cycles || res.Insts != u.plain.Insts || res.Blocks != u.plain.Blocks {
		return false
	}
	for v, want := range u.plain.Regs {
		if res.Regs[v] != want {
			return false
		}
	}
	return true
}

func (u *ckptUnit) opts() eval.TRIPSOptions {
	return eval.TRIPSOptions{Mode: tcc.Hand, UseNUCA: u.useNUCA}
}

func (u *ckptUnit) sampled(tr *tracer, ck *check) (int64, error) {
	s := tr.begin("eval.sampled_ns")
	defer tr.end(s)
	T := u.plain.Cycles
	sr, err := eval.RunSampled(u.w.Build(true), u.opts(), T/8, T/32, sampleIntervals, 1)
	if err != nil {
		return 0, err
	}
	ck.unit(u.same(sr.Full) && len(sr.Samples) == sampleIntervals,
		"%s: sampled run differs from the uninterrupted run", u.name)
	cycles := sr.Full.Cycles
	for _, iv := range sr.Samples {
		cycles += iv.EndCycle - iv.StartCycle
	}
	return cycles, nil
}

func (r *ckptRun) timed(ck *check, l *laps) (int64, error) {
	var total int64
	for i := range r.units {
		u := &r.units[i]
		for _, at := range u.at {
			var buf bytes.Buffer
			opt := u.opts()
			opt.CheckpointAt, opt.CheckpointTo = at, &buf
			res, err := eval.RunTRIPS(u.w.Build(true), opt)
			if err != nil {
				return 0, err
			}
			ck.unit(u.same(res) && buf.Len() > 0, "%s: checkpointed run at %d differs from the uninterrupted run", u.name, at)
			l.lap()
			opt = u.opts()
			opt.RestoreFrom = &buf
			res, err = eval.RunTRIPS(u.w.Build(true), opt)
			if err != nil {
				return 0, err
			}
			ck.unit(u.same(res), "%s: run restored at %d is not bit-identical", u.name, at)
			l.lap()
		}
		total += 3 * u.plain.Cycles
		cyc, err := u.sampled(nil, ck)
		if err != nil {
			return 0, err
		}
		total += cyc
		l.lap()
		opt := u.opts()
		opt.Flight = &eval.FlightOptions{Dir: r.flightDir, Interval: flightInterval, Tool: "bench", Bench: u.name, Hand: true}
		res, err := eval.RunTRIPS(u.w.Build(true), opt)
		if err != nil {
			return 0, err
		}
		ck.unit(u.same(res) && len(res.FlightDumps) == 0, "%s: flight-armed run differs from the uninterrupted run", u.name)
		total += res.Cycles
		l.lap()
	}
	return total, nil
}

func (r *ckptRun) traced(tr *tracer, c *counters, ck *check) (int64, error) {
	var total int64
	before := ckpt.Stats()
	for i := range r.units {
		u := &r.units[i]
		build := func() (*machine, error) {
			tr.nextUnit()
			return buildMachine(tr, buildSpec(tr, func() *workloads.Spec { return u.w.Build(true) }), tcc.Hand, u.useNUCA, false)
		}
		for _, at := range u.at {
			mc, err := build()
			if err != nil {
				return 0, err
			}
			var buf bytes.Buffer
			mc.armCheckpoint(tr, at, &buf, &c.ckpt)
			runStart := time.Now()
			res, err := mc.runToEnd(tr)
			if err != nil {
				return 0, err
			}
			c.plainRunNS += time.Since(runStart).Nanoseconds()
			ck.unit(u.same(res) && buf.Len() > 0, "%s: checkpointed run at %d differs from the uninterrupted run", u.name, at)
			c.addTRIPS(res)

			if mc, err = build(); err != nil {
				return 0, err
			}
			if err := mc.restore(tr, &buf, &c.ckpt); err != nil {
				return 0, err
			}
			from := mc.core.Cycle()
			if res, err = mc.runToEnd(tr); err != nil {
				return 0, err
			}
			ck.unit(u.same(res), "%s: run restored at %d is not bit-identical", u.name, at)
			c.addHostWork(res, res.Cycles-from)
		}
		total += 3 * u.plain.Cycles
		cyc, err := u.sampled(tr, ck)
		if err != nil {
			return 0, err
		}
		total += cyc

		mc, err := build()
		if err != nil {
			return 0, err
		}
		rec := flight.New(flight.Config{Dir: r.flightDir, Interval: flightInterval, Name: u.name, Tool: "bench"})
		rec.Bind(mc.hash(), mc.save, nil, nil)
		rec.Arm(mc.core, 0)
		runStart := time.Now()
		res, err := mc.runToEnd(tr)
		if err != nil {
			return 0, err
		}
		c.armedRunNS += time.Since(runStart).Nanoseconds()
		ck.unit(u.same(res) && rec.Dumps() == 0, "%s: flight-armed run differs from the uninterrupted run", u.name)
		c.addTRIPS(res)
		c.flightCaptures += rec.Captures()
		c.flightRingBytes += int64(rec.RingBytes())
		total += res.Cycles
	}
	after := ckpt.Stats()
	c.framesWritten += after.FramesWritten - before.FramesWritten
	c.framesRead += after.FramesRead - before.FramesRead
	c.hashChecks += after.HashChecks - before.HashChecks
	return total, nil
}

// warmUp is the verified warm-up pass that ends every set-up.
func warmUp(r runner) error {
	var ck check
	if _, err := r.traced(nil, &counters{}, &ck); err != nil {
		return err
	}
	if ck.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d units failed: %s", ck.failed, ck.attempted, ck.first)
	}
	return nil
}

// ---------------------------------------------------------------- counters

// counters are exact counts read from the public result structs at the
// layer boundaries of one traced pass. They hold no pointers, so two passes
// compare with ==: every count must repeat exactly.
type counters struct {
	// proc: modelled work, summed over every whole TRIPS core run of the pass.
	procCycles int64
	// ranCycles is what the host simulated under proc.run_ns spans: the whole
	// runs and the remainders of the restored ones.
	ranCycles                                 int64
	blocks, insts                             uint64
	etIssued, opnInjected                     uint64
	dtLoads, dtStores, dtHits, dtMisses       uint64
	dtDepStalls, dtViolations, lsqForwards    uint64
	flushes, refills                          uint64
	predictions, exitMisses, targetMisses     uint64
	tileTicks, tileSkips, warps               uint64
	steppedCycles, warpedCycles               int64
	strides, rollbacks, deadlineLimited       uint64
	strideCycles, memWarpedCycles             int64
	critPct                                   [4]float64 // OPN hops, IFetch, commit, other
	critRuns                                  int
	alphaCycles                               int64
	alphaInsts                                uint64
	paperErr                                  float64
	paperCells                                int
	nuca                                      nuca.StatsReport
	chipCycles, chipWarped, chipStepped       int64
	chipWarps, chipTicks, chipSkips, dmaBytes uint64
	framesWritten, framesRead, hashChecks     uint64
	flightCaptures                            uint64
	flightRingBytes                           int64
	ckpt                                      ckptTimes // host times: excluded from the == check
	plainRunNS, armedRunNS                    int64     // likewise
}

// exact returns the counters with the host-time fields cleared.
func (c counters) exact() counters {
	c.ckpt.resimNS, c.ckpt.restoreNS, c.plainRunNS, c.armedRunNS = 0, 0, 0, 0
	return c
}

// addTRIPS adds one whole run of a core: what it modelled and what the host
// did for it.
func (c *counters) addTRIPS(r *eval.TRIPSResult) {
	c.addHostWork(r, r.Cycles)
	c.procCycles += r.Cycles
	c.blocks += r.Blocks
	c.insts += r.Insts
	c.addTile(r.Stats)
	c.warps += r.Warps
	c.warpedCycles += r.WarpedCycles
	if r.NUCA != nil {
		c.addNUCA(*r.NUCA)
	}
	if r.Lag != nil {
		c.addLag(r.Lag)
	}
}

// addHostWork adds the host's share of a run that simulated ran cycles: a
// whole run, or the rest of one after a restore. The tile telemetry is not
// part of a checkpoint, so a restored core counts it from the restore; the
// modelled counts it reports are the whole run's and are left out.
func (c *counters) addHostWork(r *eval.TRIPSResult, ran int64) {
	c.ranCycles += ran
	c.tileTicks += r.TileTicks
	c.tileSkips += r.TileSkips
	c.steppedCycles += r.SteppedCycles
}

func (c *counters) addTile(s proc.TileStats) {
	c.etIssued += s.ETIssued
	c.opnInjected += s.OPNInjected
	c.dtLoads += s.DTLoads
	c.dtStores += s.DTStores
	c.dtHits += s.DTHits
	c.dtMisses += s.DTMisses
	c.dtDepStalls += s.DTDepStalls
	c.dtViolations += s.DTViolations
	c.lsqForwards += s.LSQForwards
	c.flushes += s.Flushes
	c.refills += s.Refills
	c.predictions += s.Predictions
	c.exitMisses += s.ExitMisses
	c.targetMisses += s.TargetMisses
}

func (c *counters) addNUCA(r nuca.StatsReport) {
	c.nuca.Requests += r.Requests
	c.nuca.LineTransfers += r.LineTransfers
	c.nuca.OCNInjected += r.OCNInjected
	c.nuca.Hits += r.Hits
	c.nuca.Misses += r.Misses
	c.nuca.MSHRCoalesced += r.MSHRCoalesced
	c.nuca.MSHRBlocked += r.MSHRBlocked
	c.nuca.SDRAMReads += r.SDRAMReads
	c.nuca.SDRAMWrites += r.SDRAMWrites
}

func (c *counters) addLag(l *proc.LagStats) {
	for i := range l.Core {
		c.strides += l.Core[i].Strides
		c.strideCycles += l.Core[i].StrideCycles
		c.rollbacks += l.Core[i].Rollbacks
		c.deadlineLimited += l.Core[i].DeadlineLimited
	}
	c.memWarpedCycles += l.MemWarpedCycles
}

func (c *counters) addCrit(r critpath.Report) {
	c.critPct[0] += r.Percent(critpath.CatOPNHop)
	c.critPct[1] += r.Percent(critpath.CatIFetch)
	c.critPct[2] += r.Percent(critpath.CatCommit)
	c.critPct[3] += r.Percent(critpath.CatOther)
	c.critRuns++
}

// addPaperErr adds |log2(measured / paper)| for every IPC cell the paper
// reports for the row.
func (c *counters) addPaperErr(got, paper paperRow) {
	for _, cell := range [][2]float64{{got.TCC, paper.TCC}, {got.Hand, paper.Hand}, {got.Alpha, paper.Alpha}} {
		if cell[1] > 0 && cell[0] > 0 {
			c.paperErr += math.Abs(math.Log2(cell[0] / cell[1]))
			c.paperCells++
		}
	}
}

func (c *counters) addChip(ch *chip.Chip) {
	c.chipCycles += ch.Cycle()
	c.chipWarps += ch.Warps
	c.chipWarped += ch.WarpedCycles
	ticks, skips, stepped := ch.TileActivity()
	c.chipTicks += ticks
	c.chipSkips += skips
	c.chipStepped += stepped
	c.dmaBytes += ch.DMA[0].Moved + ch.DMA[1].Moved
	for _, core := range ch.Cores {
		if core == nil {
			continue
		}
		c.procCycles += core.Cycle()
		c.blocks += core.CommittedBlocks
		c.insts += core.CommittedInsts
		c.addTile(core.TileStats())
		c.tileTicks += core.TileTicks
		c.tileSkips += core.TileSkips
		c.steppedCycles += core.SteppedCycles
		c.warps += core.Warps
		c.warpedCycles += core.WarpedCycles
	}
	c.addNUCA(ch.Mem.Report())
	c.addLag(&ch.Lag)
}
