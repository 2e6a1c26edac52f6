// Command tsim is the cycle-level TRIPS processor simulator (the analogue
// of the paper's tsim-proc, Section 5.4). It runs a named benchmark from
// the built-in suite on the distributed TRIPS core and reports cycles,
// IPC, protocol statistics and the critical-path breakdown.
//
//	tsim -list
//	tsim -bench vadd [-mode hand|tcc] [-placement naive|greedy]
//	     [-opn 1|2] [-conservative] [-nuca] [-alpha] [-golden]
//	     [-trace out.json] [-debug-addr :6060]
//	     [-seq] [-par-stride n]
//	     [-checkpoint-at n -checkpoint-out f] [-restore f]
//	     [-sample-interval n [-sample-warmup n] [-sample-n k]]
//	     [-flight [-flight-dir d] [-dump-on trig] [-flight-depth k] [-flight-interval n]]
//	     [-max-cycles n] [-lag-deadline-pad n] [-lag-horizon-override n]
//	     [-host] [-nofastpath] [-nowarp] [-noeventdriven] [-cpuprofile f] [-memprofile f]
//
// -checkpoint-at/-checkpoint-out frame the complete machine state at the
// first block-commit boundary after the given cycle; -restore resumes such a
// file and runs to completion with results bit-identical to the
// uninterrupted run. -sample-interval fans SimPoint-style interval replays
// across a worker pool. -flight arms the flight recorder: a rolling ring of
// commit-boundary checkpoints plus a bounded trace window, dumped as a
// self-describing bundle on panic, cycle-limit overrun or the -dump-on
// trigger (rollback, end, block=N, cycle=N) for trips-debug to replay. All
// of these disable the critical-path analyzer (the checkpoint format does not
// carry its events). -lag-deadline-pad / -lag-horizon-override inject bounded-lag
// timing faults to exercise the recorder's violation paths.
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		list       = flag.Bool("list", false, "list available benchmarks")
		bench      = flag.String("bench", "", "benchmark to run")
		mode       = flag.String("mode", "hand", "compilation mode: hand or tcc")
		placement  = flag.String("placement", "", "instruction placement: naive or greedy (default per mode)")
		opn        = flag.Int("opn", 1, "operand network channels (1 or 2)")
		conserv    = flag.Bool("conservative", false, "disable aggressive load issue")
		useNUCA    = flag.Bool("nuca", false, "use the NUCA secondary memory system instead of the perfect L2")
		traceOut   = flag.String("trace", "", "record a protocol trace and write Chrome/Perfetto JSON to this file")
		debugAddr  = flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
		alphaRun   = flag.Bool("alpha", false, "also run the Alpha-class baseline")
		goldenRun  = flag.Bool("golden", false, "also run the golden interpreter")
		stats      = flag.Bool("stats", false, "print per-tile statistics")
		host       = flag.Bool("host", false, "print host throughput (sim-cycles/sec; nondeterministic)")
		noFast     = flag.Bool("nofastpath", false, "disable quiescence-aware stepping (results must not change)")
		noWarp     = flag.Bool("nowarp", false, "disable clock-warping over quiescent stretches (results must not change)")
		noEvent    = flag.Bool("noeventdriven", false, "disable the per-tile event-driven doze overlay (results must not change)")
		seqStep    = flag.Bool("seq", false, "force sequential core/memory interleave for -nuca runs instead of bounded-lag stepping (results must not change)")
		parStride  = flag.Int64("par-stride", 0, "cap bounded-lag stride length in cycles (0 = auto horizon; results must not change)")
		ckptAt     = flag.Int64("checkpoint-at", 0, "checkpoint at the first block commit after this cycle (requires -checkpoint-out)")
		ckptOut    = flag.String("checkpoint-out", "", "write the checkpoint to this file (requires -checkpoint-at)")
		restore    = flag.String("restore", "", "resume from this checkpoint file instead of starting at the entry block")
		sampleInt  = flag.Int64("sample-interval", 0, "SimPoint-style sampling: interval length in cycles (0 = off)")
		sampleWarm = flag.Int64("sample-warmup", 0, "SimPoint-style sampling: cycles before the first sampled interval")
		sampleN    = flag.Int("sample-n", 8, "SimPoint-style sampling: maximum number of intervals")
		flightOn   = flag.Bool("flight", false, "arm the flight recorder: rolling checkpoints + crash-dump trace windows (see trips-debug)")
		flightDir  = flag.String("flight-dir", "flight-dumps", "directory receiving flight-recorder dump bundles")
		flightDep  = flag.Int("flight-depth", 0, "flight recorder: rolling checkpoint ring depth (0 = default)")
		flightInt  = flag.Int64("flight-interval", 0, "flight recorder: cycles between rolling checkpoints (0 = default)")
		dumpOn     = flag.String("dump-on", "", "flight recorder explicit trigger: rollback, end, block=N, or cycle=N (requires -flight)")
		maxCycles  = flag.Int64("max-cycles", 0, "cap the simulated run length in cycles (0 = default 200M)")
		lagPad     = flag.Int64("lag-deadline-pad", 0, "fault injection: pad bounded-lag response deadlines by this many cycles (diagnostics; overruns panic)")
		lagHorizon = flag.Int64("lag-horizon-override", 0, "fault injection: force this bounded-lag stride horizon (diagnostics; overruns panic)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *opn != 1 && *opn != 2 {
		fmt.Fprintf(os.Stderr, "tsim: -opn must be 1 or 2, got %d\n", *opn)
		os.Exit(2)
	}
	if *parStride < 0 {
		fmt.Fprintf(os.Stderr, "tsim: -par-stride must be non-negative, got %d\n", *parStride)
		os.Exit(2)
	}
	if *seqStep && !*useNUCA {
		fmt.Fprintln(os.Stderr, "tsim: -seq selects the core/memory interleave for -nuca runs; pass -nuca as well")
		os.Exit(2)
	}
	if *ckptAt < 0 {
		fmt.Fprintf(os.Stderr, "tsim: -checkpoint-at must be positive, got %d\n", *ckptAt)
		os.Exit(2)
	}
	if (*ckptAt > 0) != (*ckptOut != "") {
		fmt.Fprintln(os.Stderr, "tsim: -checkpoint-at and -checkpoint-out must be used together")
		os.Exit(2)
	}
	if *sampleInt < 0 || *sampleWarm < 0 || *sampleN <= 0 {
		fmt.Fprintln(os.Stderr, "tsim: -sample-interval and -sample-warmup must be non-negative, -sample-n positive")
		os.Exit(2)
	}
	if *sampleInt > 0 && (*ckptOut != "" || *restore != "") {
		fmt.Fprintln(os.Stderr, "tsim: -sample-interval cannot be combined with -checkpoint-out or -restore")
		os.Exit(2)
	}
	if *dumpOn != "" && !*flightOn {
		fmt.Fprintln(os.Stderr, "tsim: -dump-on arms a flight-recorder trigger; pass -flight as well")
		os.Exit(2)
	}
	if *flightOn && (*ckptOut != "" || *sampleInt > 0) {
		fmt.Fprintln(os.Stderr, "tsim: -flight cannot be combined with -checkpoint-out or -sample-interval (both own the commit hook)")
		os.Exit(2)
	}
	if *maxCycles < 0 || *lagPad < 0 || *lagHorizon < 0 {
		fmt.Fprintln(os.Stderr, "tsim: -max-cycles, -lag-deadline-pad and -lag-horizon-override must be non-negative")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
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

	if *list {
		fmt.Printf("%-12s %s\n", "benchmark", "class")
		for _, w := range workloads.All() {
			fmt.Printf("%-12s %s\n", w.Name, w.Class)
		}
		return
	}
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloads.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The checkpoint format carries no critical-path events, so checkpoint,
	// restore, sampling and the flight recorder all run without the analyzer.
	crit := *ckptOut == "" && *restore == "" && *sampleInt == 0 && !*flightOn
	opt := eval.TRIPSOptions{TrackCritPath: crit, OPNChannels: *opn, ConservativeLoads: *conserv, UseNUCA: *useNUCA, NoFastPath: *noFast, NoWarp: *noWarp, NoEventDriven: *noEvent, SeqStep: *seqStep, ParStride: *parStride, MaxCycles: *maxCycles, LagHorizonOverride: *lagHorizon, LagDeadlinePad: *lagPad}
	var tracer *obs.Tracer
	var sampler *obs.Sampler
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		opt.Trace = tracer
	}
	if *traceOut != "" || *stats || *flightOn {
		sampler = obs.NewSampler(0)
		opt.Metrics = sampler
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tsim: debug endpoint on http://%s/debug/vars\n", addr)
		if sampler != nil {
			obs.PublishSampler("tsim", sampler)
		}
	}
	hand := true
	switch *mode {
	case "hand":
		opt.Mode = tcc.Hand
	case "tcc":
		opt.Mode = tcc.Compiled
		hand = false
	default:
		fmt.Fprintf(os.Stderr, "tsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch *placement {
	case "":
	case "naive":
		opt.Placement = tcc.PlaceNaive
	case "greedy":
		opt.Placement = tcc.PlaceGreedy
	default:
		fmt.Fprintf(os.Stderr, "tsim: unknown placement %q\n", *placement)
		os.Exit(2)
	}

	if *flightOn {
		opt.Flight = &eval.FlightOptions{
			Dir:      *flightDir,
			Depth:    *flightDep,
			Interval: *flightInt,
			DumpOn:   *dumpOn,
			Tool:     "tsim",
			Bench:    w.Name,
			Hand:     hand,
		}
	}

	spec := w.Build(hand)

	if *sampleInt > 0 {
		runSampled(w, spec, opt, *sampleWarm, *sampleInt, *sampleN, *mode)
		return
	}

	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		opt.RestoreFrom = f
	}
	var ckptFile *os.File
	if *ckptOut != "" {
		f, err := os.Create(*ckptOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ckptFile = f
		opt.CheckpointAt = *ckptAt
		opt.CheckpointTo = f
	}

	t0 := time.Now()
	r, err := eval.RunTRIPS(spec, opt)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if *flightOn {
			fmt.Fprintf(os.Stderr, "tsim: flight-recorder dump bundles (if any) are under %s; inspect with trips-debug\n", *flightDir)
		}
		os.Exit(1)
	}
	if ckptFile != nil {
		if err := ckptFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s (%s, %s mode):\n", w.Name, w.Class, *mode)
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
		fmt.Printf("  checkpoint: wrote %s (armed at cycle %d)\n", *ckptOut, *ckptAt)
	}
	if *restore != "" {
		fmt.Printf("  restored from %s\n", *restore)
	}
	for _, d := range r.FlightDumps {
		fmt.Printf("  flight dump: %s (inspect with trips-debug info %s)\n", d, d)
	}
	if *stats {
		fmt.Print(r.Stats.String())
		if r.NUCA != nil {
			fmt.Println(r.NUCA.String())
		}
		if sampler != nil {
			fmt.Print(sampler.Summary())
		}
	}
	if tracer != nil {
		if err := obs.WriteChromeFile(*traceOut, tracer, sampler); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  trace: %d events (%d dropped) -> %s\n", tracer.Total(), tracer.Dropped(), *traceOut)
	}
	if *host {
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

	if *goldenRun {
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
	if *alphaRun {
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
