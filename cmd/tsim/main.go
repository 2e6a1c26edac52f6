// Command tsim is the cycle-level TRIPS processor simulator (the analogue
// of the paper's tsim-proc, Section 5.4). It runs a named benchmark from
// the built-in suite on the distributed TRIPS core and reports cycles,
// IPC, protocol statistics and the critical-path breakdown.
//
//	tsim -list
//	tsim -bench vadd [-mode hand|tcc] [-placement naive|greedy]
//	     [-opn 1|2] [-conservative] [-nuca] [-alpha] [-golden]
//	     [-trace out.json]
//	     [-checkpoint-at n -checkpoint-out f] [-restore f]
//	     [-sample-interval n [-sample-warmup n] [-sample-n k]]
//	     [-flight [-flight-dir d] [-dump-on trig] [-flight-depth k] [-flight-interval n]]
//	     [-max-cycles n] [-lag-deadline-pad n]
//	     [-host] [-reference] [-cpuprofile f] [-memprofile f]
//
// -checkpoint-at/-checkpoint-out frame the complete machine state at the
// first block-commit boundary after the given cycle; -restore resumes such a
// file and runs to completion with results bit-identical to the
// uninterrupted run. -sample-interval fans SimPoint-style interval replays
// across a worker pool. -flight arms the flight recorder: a rolling ring of
// commit-boundary checkpoints plus a bounded trace window, dumped as a
// self-describing bundle on panic, cycle-limit overrun or the -dump-on
// trigger (end, block=N, cycle=N) for trips-debug to replay. All of these
// disable the critical-path analyzer (the checkpoint format does not carry
// its events). -lag-deadline-pad (with -nuca) pads bounded-lag response
// deadlines past their bound, so the horizon assertion panics and the
// recorder's violation path can be exercised. -reference runs the naive
// oracle instead of the production stepping; every simulated number must
// come out the same.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"trips/internal/critpath"
	"trips/internal/eval"
	"trips/internal/obs"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// options is tsim's flag surface.
type options struct {
	list, conserv, useNUCA, alphaRun, goldenRun, stats, host, reference, flightOn bool

	bench, mode, placement, traceOut, ckptOut, restore string
	flightDir, dumpOn, cpuprofile, memprofile          string

	opn, sampleN, flightDep                                     int
	ckptAt, sampleInt, sampleWarm, flightInt, maxCycles, lagPad int64
}

// parseFlags parses args into options, reporting usage and parse errors on
// errOut.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("tsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.BoolVar(&o.list, "list", false, "list available benchmarks")
	fs.StringVar(&o.bench, "bench", "", "benchmark to run")
	fs.StringVar(&o.mode, "mode", "hand", "compilation mode: hand or tcc")
	fs.StringVar(&o.placement, "placement", "", "instruction placement: naive or greedy (default per mode)")
	fs.IntVar(&o.opn, "opn", 1, "operand network channels (1 or 2)")
	fs.BoolVar(&o.conserv, "conservative", false, "disable aggressive load issue")
	fs.BoolVar(&o.useNUCA, "nuca", false, "use the NUCA secondary memory system instead of the perfect L2")
	fs.StringVar(&o.traceOut, "trace", "", "record a protocol trace and write Chrome/Perfetto JSON to this file")
	fs.BoolVar(&o.alphaRun, "alpha", false, "also run the Alpha-class baseline")
	fs.BoolVar(&o.goldenRun, "golden", false, "also run the golden interpreter")
	fs.BoolVar(&o.stats, "stats", false, "print per-tile statistics")
	fs.BoolVar(&o.host, "host", false, "print host throughput (sim-cycles/sec; nondeterministic)")
	fs.BoolVar(&o.reference, "reference", false, "run the naive reference stepper instead of the production one (results must not change)")
	fs.Int64Var(&o.ckptAt, "checkpoint-at", 0, "checkpoint at the first block commit after this cycle (requires -checkpoint-out)")
	fs.StringVar(&o.ckptOut, "checkpoint-out", "", "write the checkpoint to this file (requires -checkpoint-at)")
	fs.StringVar(&o.restore, "restore", "", "resume from this checkpoint file instead of starting at the entry block")
	fs.Int64Var(&o.sampleInt, "sample-interval", 0, "SimPoint-style sampling: interval length in cycles (0 = off)")
	fs.Int64Var(&o.sampleWarm, "sample-warmup", 0, "SimPoint-style sampling: cycles before the first sampled interval")
	fs.IntVar(&o.sampleN, "sample-n", 8, "SimPoint-style sampling: maximum number of intervals")
	fs.BoolVar(&o.flightOn, "flight", false, "arm the flight recorder: rolling checkpoints + crash-dump trace windows (see trips-debug)")
	fs.StringVar(&o.flightDir, "flight-dir", "flight-dumps", "directory receiving flight-recorder dump bundles")
	fs.IntVar(&o.flightDep, "flight-depth", 0, "flight recorder: rolling checkpoint ring depth (0 = default)")
	fs.Int64Var(&o.flightInt, "flight-interval", 0, "flight recorder: cycles between rolling checkpoints (0 = default)")
	fs.StringVar(&o.dumpOn, "dump-on", "", "flight recorder explicit trigger: end, block=N, or cycle=N (requires -flight)")
	fs.Int64Var(&o.maxCycles, "max-cycles", 0, "cap the simulated run length in cycles (0 = default 200M)")
	fs.Int64Var(&o.lagPad, "lag-deadline-pad", 0, "fault injection: pad bounded-lag response deadlines by this many cycles (requires -nuca; the horizon assertion panics)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(errOut, err)
		return nil, err
	}
	return o, nil
}

// validate rejects flag values and combinations that cannot run as asked,
// so nothing is silently ignored.
func (o *options) validate() error {
	_, dumpErr := eval.ParseDumpOn(o.dumpOn)
	switch {
	case o.opn != 1 && o.opn != 2:
		return fmt.Errorf("-opn must be 1 or 2, got %d", o.opn)
	case o.mode != "hand" && o.mode != "tcc":
		return fmt.Errorf("unknown mode %q", o.mode)
	case o.placement != "" && o.placement != "naive" && o.placement != "greedy":
		return fmt.Errorf("unknown placement %q", o.placement)
	case o.ckptAt < 0:
		return fmt.Errorf("-checkpoint-at must be positive, got %d", o.ckptAt)
	case (o.ckptAt > 0) != (o.ckptOut != ""):
		return errors.New("-checkpoint-at and -checkpoint-out must be used together")
	case o.sampleInt < 0 || o.sampleWarm < 0 || o.sampleN <= 0:
		return errors.New("-sample-interval and -sample-warmup must be non-negative, -sample-n positive")
	case o.sampleInt > 0 && (o.ckptOut != "" || o.restore != ""):
		return errors.New("-sample-interval cannot be combined with -checkpoint-out or -restore")
	case o.dumpOn != "" && !o.flightOn:
		return errors.New("-dump-on arms a flight-recorder trigger; pass -flight as well")
	case dumpErr != nil:
		return dumpErr
	case o.flightOn && (o.ckptOut != "" || o.sampleInt > 0):
		return errors.New("-flight cannot be combined with -checkpoint-out or -sample-interval (both own the commit hook)")
	case o.maxCycles < 0 || o.lagPad < 0:
		return errors.New("-max-cycles and -lag-deadline-pad must be non-negative")
	case o.lagPad > 0 && !o.useNUCA:
		return errors.New("-lag-deadline-pad pads the bounded-lag coordinator's deadlines, which only -nuca runs have")
	case o.lagPad > 0 && o.reference:
		return errors.New("-reference strides nothing, so it has no deadline to pad: it cannot be combined with -lag-deadline-pad")
	case !o.list && o.bench == "":
		return errors.New("pass -bench <name> (or -list)")
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tsim: %v\n", err)
		os.Exit(2)
	}
	run(o)
}

func run(o *options) {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if o.list {
		fmt.Printf("%-12s %s\n", "benchmark", "class")
		for _, w := range workloads.All() {
			fmt.Printf("%-12s %s\n", w.Name, w.Class)
		}
		return
	}
	w, err := workloads.ByName(o.bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The checkpoint format carries no critical-path events, so checkpoint,
	// restore, sampling and the flight recorder all run without the analyzer.
	crit := o.ckptOut == "" && o.restore == "" && o.sampleInt == 0 && !o.flightOn
	opt := eval.TRIPSOptions{TrackCritPath: crit, OPNChannels: o.opn, ConservativeLoads: o.conserv, UseNUCA: o.useNUCA, Reference: o.reference, MaxCycles: o.maxCycles, LagDeadlinePad: o.lagPad}
	var tracer *obs.Tracer
	var sampler *obs.Sampler
	if o.traceOut != "" {
		tracer = obs.NewTracer(0)
		opt.Trace = tracer
	}
	if o.traceOut != "" || o.stats || o.flightOn {
		sampler = obs.NewSampler(0)
		opt.Metrics = sampler
	}
	hand := o.mode == "hand"
	opt.Mode = tcc.Compiled
	if hand {
		opt.Mode = tcc.Hand
	}
	switch o.placement {
	case "naive":
		opt.Placement = tcc.PlaceNaive
	case "greedy":
		opt.Placement = tcc.PlaceGreedy
	}

	if o.flightOn {
		opt.Flight = &eval.FlightOptions{
			Dir:      o.flightDir,
			Depth:    o.flightDep,
			Interval: o.flightInt,
			DumpOn:   o.dumpOn,
			Tool:     "tsim",
			Bench:    w.Name,
			Hand:     hand,
		}
	}

	spec := w.Build(hand)

	if o.sampleInt > 0 {
		runSampled(w, spec, opt, o.sampleWarm, o.sampleInt, o.sampleN, o.mode)
		return
	}

	if o.restore != "" {
		f, err := os.Open(o.restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		opt.RestoreFrom = f
	}
	var ckptFile *os.File
	if o.ckptOut != "" {
		f, err := os.Create(o.ckptOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ckptFile = f
		opt.CheckpointAt = o.ckptAt
		opt.CheckpointTo = f
	}

	t0 := time.Now()
	r, err := eval.RunTRIPS(spec, opt)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if o.flightOn {
			fmt.Fprintf(os.Stderr, "tsim: flight-recorder dump bundles (if any) are under %s; inspect with trips-debug\n", o.flightDir)
		}
		os.Exit(1)
	}
	if ckptFile != nil {
		if err := ckptFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s (%s, %s mode):\n", w.Name, w.Class, o.mode)
	fmt.Printf("  cycles            %d\n", r.Cycles)
	fmt.Printf("  committed blocks  %d (avg %.1f useful insts/block)\n", r.Blocks, r.BlockSize)
	fmt.Printf("  committed insts   %d\n", r.Insts)
	fmt.Printf("  IPC               %.3f\n", r.IPC)
	fmt.Printf("  flushes           %d\n", r.Flushes)
	if crit {
		fmt.Println("  critical path:")
		for c := critpath.Cat(0); c < critpath.NumCats; c++ {
			fmt.Printf("    %-15s %6.2f%%\n", c.String(), r.Crit.Percent(c))
		}
	}
	for _, out := range spec.Outputs {
		fmt.Printf("  output r%d = %d\n", out, r.Regs[out])
	}
	if ckptFile != nil {
		fmt.Printf("  checkpoint: wrote %s (armed at cycle %d)\n", o.ckptOut, o.ckptAt)
	}
	if o.restore != "" {
		fmt.Printf("  restored from %s\n", o.restore)
	}
	for _, d := range r.FlightDumps {
		fmt.Printf("  flight dump: %s (inspect with trips-debug info %s)\n", d, d)
	}
	if o.stats {
		fmt.Print(r.Stats.String())
		if r.NUCA != nil {
			fmt.Println(r.NUCA.String())
		}
		if sampler != nil {
			fmt.Print(sampler.Summary())
		}
	}
	if tracer != nil {
		if err := obs.WriteChromeFile(o.traceOut, tracer, sampler); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  trace: %d events (%d dropped) -> %s\n", tracer.Total(), tracer.Dropped(), o.traceOut)
	}
	if o.host {
		fmt.Printf("  host: %.1f ms wall, %.0f sim-cycles/sec, %.0f ns/sim-cycle\n",
			float64(wall.Nanoseconds())/1e6,
			float64(r.Cycles)/wall.Seconds(),
			float64(wall.Nanoseconds())/float64(r.Cycles))
		fmt.Printf("  warp: %d jumps covering %d of %d sim-cycles (%.2f%%)\n",
			r.Warps, r.WarpedCycles, r.Cycles, 100*float64(r.WarpedCycles)/float64(r.Cycles))
		if r.SteppedCycles > 0 {
			total := r.TileTicks + r.TileSkips
			fmt.Printf("  tiles: %d of %d tile-ticks dozed over %d stepped cycles (%.2f%% skip coverage)\n",
				r.TileSkips, total, r.SteppedCycles, 100*float64(r.TileSkips)/float64(total))
		}
		if r.Lag != nil {
			fmt.Print(r.Lag.Summary())
		}
	}

	if o.goldenRun {
		regs, _, ir, err := eval.RunGolden(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("golden: %d dynamic TIR insts, %d blocks\n", ir.DynInsts, ir.DynBlocks)
		for _, out := range spec.Outputs {
			match := "ok"
			if regs[out] != r.Regs[out] {
				match = "MISMATCH"
			}
			fmt.Printf("  r%d = %d  %s\n", out, regs[out], match)
		}
	}
	if o.alphaRun {
		ar, err := eval.RunAlpha(w.Build(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("alpha: %d cycles, IPC %.3f, speedup(TRIPS/alpha) %.2f\n",
			ar.Cycles, ar.IPC, float64(ar.Cycles)/float64(r.Cycles))
	}
}

// runSampled runs the SimPoint-style sampled mode: one profiling pass that
// drops checkpoints at commit boundaries, then parallel interval replays.
func runSampled(w workloads.Workload, spec *workloads.Spec, opt eval.TRIPSOptions, warmup, interval int64, n int, mode string) {
	t0 := time.Now()
	sr, err := eval.RunSampled(spec, opt, warmup, interval, n, 0)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r := sr.Full
	fmt.Printf("%s (%s, %s mode, sampled):\n", w.Name, w.Class, mode)
	fmt.Printf("  cycles            %d\n", r.Cycles)
	fmt.Printf("  committed insts   %d\n", r.Insts)
	fmt.Printf("  IPC               %.3f\n", r.IPC)
	fmt.Printf("  sampling          warmup %d, interval %d, %d checkpoints (%d payload bytes)\n",
		sr.Warmup, sr.Interval, len(sr.Samples), sr.CkptBytes)
	if len(sr.Samples) > 0 {
		fmt.Printf("  %8s %10s %10s %10s %8s\n", "interval", "start", "end", "insts", "IPC")
		for _, s := range sr.Samples {
			fmt.Printf("  %8d %10d %10d %10d %8.3f\n", s.Index, s.StartCycle, s.EndCycle, s.Insts, s.IPC)
		}
	}
	fmt.Printf("  host: %.1f ms wall (profiling pass + parallel replays)\n", float64(wall.Nanoseconds())/1e6)
}
