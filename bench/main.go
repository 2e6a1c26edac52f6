// Command bench is the repository's one benchmark: four workloads over the
// simulator in its default configuration, end-to-end metrics with fixed
// regression bounds, and a traced run that attributes host time and exact
// counts to layers from outside the simulator. BENCHMARK.json at the root of
// the repository lists the workloads and metrics; README.md beside this file
// says why each was chosen and how they interact.
//
//	go run ./bench                                   all four workloads
//	go run ./bench -workload table3 -seed 7          one workload
//	go run ./bench -workload chip-dual -trace 1      its per-layer metrics
//	go run ./bench -compare a.jsonl b.jsonl          two sets of runs
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. The exit status is non-zero when any simulated
// output differs from the TIR golden interpreter, any cycle count differs
// between passes, or any restored run is not bit-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of results.jsonl, the file -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run (default: all four, one after the other)")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed for the generated kernels, row order, checkpoint cycles, DMA payload and rung traffic")
	fs.IntVar(&opt.seconds, "seconds", 20, "seconds of timed passes per workload")
	trace := fs.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics; 0 the end-to-end metrics")
	fs.BoolVar(&opt.smoke, "smoke", false, "one tiny unit per workload, one pass, one rung iteration")
	fs.StringVar(&opt.outDir, "out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json and results.jsonl")
	compare := fs.Bool("compare", false, "compare two results.jsonl files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || opt.seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace is 0 or 1 and -seconds at least 1")
		return 2
	}
	opt.trace = *trace == 1

	var chosen []workload
	for _, w := range workloadList() {
		if opt.workload == "" || opt.workload == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	status := 0
	for i, w := range chosen {
		start := time.Now()
		if i == 0 {
			start = processStart // the first set-up includes process start
		}
		res, err := runWorkload(w, opt, start, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := appendRecord(opt.outDir, record{w.name, opt.seed, opt.trace, *res}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

func appendRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pass is what one pass of a workload measured.
type pass struct {
	wallS     float64
	simCycles int64
	allocMB   float64
	mallocs   uint64
	gcCycles  uint32
}

// laps times the units of a pass one by one and keeps each unit's fastest
// time over the passes of a run. Interference from the host only ever adds
// time, in bursts that outlast a pass but rarely sit on the same unit in every
// pass, so the sum of the units' fastest times repeats from run to run two to
// six times as closely as the median pass does (README.md, "Steadiness").
//
// A nil *laps keeps no time, so one pass body serves timed and traced passes.
type laps struct {
	last time.Time
	unit int
	best []time.Duration // per unit, the fastest over the passes so far
}

// start begins a pass.
func (l *laps) start() { l.unit, l.last = 0, time.Now() }

// lap ends the current unit of the pass.
func (l *laps) lap() {
	if l == nil {
		return
	}
	now := time.Now()
	d := now.Sub(l.last)
	l.last = now
	if l.unit == len(l.best) {
		l.best = append(l.best, d)
	} else if d < l.best[l.unit] {
		l.best[l.unit] = d
	}
	l.unit++
}

// sum is the host time of a pass whose every unit ran at its fastest.
func (l *laps) sum() float64 {
	var total time.Duration
	for _, d := range l.best {
		total += d
	}
	return total.Seconds()
}

// timePass runs fn between two memory snapshots. The heap is collected first
// so every pass starts from the same state.
func timePass(fn func() (int64, error)) (pass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	cycles, err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return pass{
		wallS:     wall.Seconds(),
		simCycles: cycles,
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mallocs:   after.Mallocs - before.Mallocs,
		gcCycles:  after.NumGC - before.NumGC,
	}, err
}

// passes repeats fn until the time is used up; -smoke makes one pass.
func passes(opt options, budget time.Duration, fn func() (int64, error)) ([]pass, error) {
	var out []pass
	for start := time.Now(); ; {
		p, err := timePass(fn)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && p.simCycles != out[0].simCycles {
			return nil, fmt.Errorf("pass %d simulated %d cycles, the first pass %d", len(out)+1, p.simCycles, out[0].simCycles)
		}
		out = append(out, p)
		if opt.smoke || time.Since(start) >= budget {
			return out, nil
		}
	}
}

func column(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func runWorkload(w workload, opt options, start time.Time, stdout io.Writer) (*result, error) {
	prev := runtime.GOMAXPROCS(w.procs)
	defer runtime.GOMAXPROCS(prev)

	// Set-up, several times over: setup_s is the median. The traced run
	// reports no set-up time and sets up once.
	reps := w.setupReps
	if opt.trace || opt.smoke {
		reps = 1
	}
	var r runner
	var setups []float64
	for i := 0; i < reps; i++ {
		var err error
		if r, err = w.setup(opt.seed, opt.smoke, opt.outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}

	var ck check
	var best laps
	budget := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		budget /= 2
	}
	timed, err := passes(opt, budget, func() (int64, error) {
		best.start()
		return r.timed(&ck, &best)
	})
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	if !opt.trace {
		alloc := summarize(column(timed, func(p pass) float64 { return p.allocMB }))
		setup := summarize(setups)
		cycles, wall := float64(timed[0].simCycles), best.sum()
		values := map[string]float64{
			"setup_s":          setup.median,
			"wall_s":           wall,
			"sim_cycles_per_s": cycles / wall,
			"sim_cycles":       cycles,
			"alloc_mb":         alloc.median,
		}
		setup.print(stdout, w.name, "setup_s", "s")
		fmt.Fprintf(stdout, "%-15s %-18s %14.6g s      (%d units, each at its fastest of %d passes)\n", w.name, "wall_s", wall, len(best.best), len(timed))
		fmt.Fprintf(stdout, "%-15s %-18s %14.6g 1/s\n", w.name, "sim_cycles_per_s", cycles/wall)
		summarize(column(timed, func(p pass) float64 { return p.wallS })).print(stdout, w.name, "pass wall", "s")
		alloc.print(stdout, w.name, "alloc_mb", "MB")
		fmt.Fprintf(stdout, "%-15s %-18s %14.0f count  (every pass; gomaxprocs %d)\n", w.name, "sim_cycles", cycles, w.procs)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
	} else {
		values, err := tracedRun(w, r, opt, budget, timed, &ck)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
			fmt.Fprintf(stdout, "%-15s %-38s %16.6g %s\n", w.name, d.name, values[d.name], d.unit)
		}
	}
	res.Attempted, res.Failed, res.Correct = ck.attempted, ck.failed, ck.failed == 0
	if ck.failed > 0 {
		fmt.Fprintf(stdout, "%s: %d of %d units failed, first: %s\n", w.name, ck.failed, ck.attempted, ck.first)
	}
	return res, nil
}

// tracedRun makes the traced passes and derives every per-layer metric.
func tracedRun(w workload, r runner, opt options, budget time.Duration, untraced []pass, ck *check) (map[string]float64, error) {
	tr := newTracer()
	var first counters
	var selfs []map[string]int64
	var covers []float64
	n := 0
	traced, err := passes(opt, budget, func() (int64, error) {
		from := len(tr.spans)
		var c counters
		root := tr.begin("bench.pass")
		cycles, err := r.traced(tr, &c, ck)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if n++; n == 1 {
			first = c
		} else if c.exact() != first.exact() {
			return 0, fmt.Errorf("traced pass %d: exact counters differ from the first pass", n)
		} else {
			first.ckpt, first.plainRunNS, first.armedRunNS = c.ckpt, c.plainRunNS, c.armedRunNS
		}
		self := tr.selfTimes(from)
		var phases int64
		for name, ns := range self {
			if name != "bench.pass" {
				phases += ns
			}
		}
		covers = append(covers, float64(phases)/float64(tr.spans[root].End-tr.spans[root].Start))
		selfs = append(selfs, self)
		return cycles, nil
	})
	if err != nil {
		return nil, err
	}
	if traced[0].simCycles != untraced[0].simCycles {
		return nil, fmt.Errorf("the traced pass simulated %d cycles, the untraced pass %d", traced[0].simCycles, untraced[0].simCycles)
	}

	v := map[string]float64{}
	for _, d := range perLayer {
		if !strings.HasSuffix(d.name, "_ns") {
			continue
		}
		var samples []float64
		for _, self := range selfs {
			samples = append(samples, float64(self[d.name]))
		}
		v[d.name] = median(samples)
	}
	first.metrics(v)
	v["trace.phase_cover_ratio"] = median(covers)
	cycles := float64(traced[0].simCycles)
	v["host.allocs_per_sim_cycle"] = median(column(traced, func(p pass) float64 { return float64(p.mallocs) })) / cycles
	v["host.gc_cycles"] = median(column(traced, func(p pass) float64 { return float64(p.gcCycles) }))
	v["host.gomaxprocs"] = float64(w.procs)
	plain := summarize(column(untraced, func(p pass) float64 { return p.wallS }))
	v["trace.overhead_ratio"] = median(column(traced, func(p pass) float64 { return p.wallS })) / plain.median
	v["host.pass_median_s"] = plain.median
	v["host.pass_iqr_ratio"] = plain.spread()

	if nr, ok := r.(*nucaRun); ok {
		stepNS, tickNS, loopNS, cyc, err := nr.stepped(ck)
		if err != nil {
			return nil, err
		}
		v["proc.step_ns_per_cycle"] = float64(stepNS) / float64(cyc)
		v["nuca.tick_ns_per_cycle"] = float64(tickNS) / float64(cyc)
		v["nuca.tick_share"] = float64(tickNS) / float64(stepNS+tickNS)
		v["bench.stepped_cover_ratio"] = float64(stepNS+tickNS) / float64(loopNS)
	}
	rungs, err := runLadder(opt.seed, opt.smoke)
	if err != nil {
		return nil, err
	}
	for name, x := range rungs {
		v[name] = x
	}
	v["host.peak_rss_mb"] = peakRSSMB()
	if err := tr.write(opt.outDir, w.name, r.unitCycles()); err != nil {
		return nil, err
	}
	return v, nil
}

// metrics turns the exact counters of a traced pass into per-layer metrics.
// v already holds the span self times the derived figures divide.
func (c *counters) metrics(v map[string]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["proc.run_ns_per_sim_cycle"] = ratio(v["proc.run_ns"], float64(c.ranCycles))
	v["proc.run_ns_per_tile_tick"] = ratio(v["proc.run_ns"], float64(c.tileTicks))
	v["alpha.run_ns_per_sim_cycle"] = ratio(v["alpha.run_ns"], float64(c.alphaCycles))

	v["proc.tile_ticks"] = float64(c.tileTicks)
	v["proc.tile_skips"] = float64(c.tileSkips)
	v["proc.tile_skip_ratio"] = ratio(float64(c.tileSkips), float64(c.tileTicks+c.tileSkips))
	v["proc.stepped_cycles"] = float64(c.steppedCycles)
	v["proc.warps"] = float64(c.warps)
	v["proc.warped_cycle_ratio"] = ratio(float64(c.warpedCycles), float64(c.procCycles))
	v["lag.strides"] = float64(c.strides)
	v["lag.mean_stride_cycles"] = ratio(float64(c.strideCycles), float64(c.strides))
	v["lag.rollbacks"] = float64(c.rollbacks)
	v["lag.deadline_limited"] = float64(c.deadlineLimited)
	v["lag.mem_warped_cycles"] = float64(c.memWarpedCycles)
	v["chip.warps"] = float64(c.chipWarps)
	v["chip.warped_cycle_ratio"] = ratio(float64(c.chipWarped), float64(c.chipCycles))
	v["chip.tile_skip_ratio"] = ratio(float64(c.chipSkips), float64(c.chipTicks+c.chipSkips))

	v["proc.sim_cycles"] = float64(c.procCycles)
	v["proc.committed_blocks"] = float64(c.blocks)
	v["proc.committed_insts"] = float64(c.insts)
	v["proc.et_issued"] = float64(c.etIssued)
	v["proc.opn_injected"] = float64(c.opnInjected)
	v["proc.dt_loads"] = float64(c.dtLoads)
	v["proc.dt_stores"] = float64(c.dtStores)
	v["proc.dt_hit_ratio"] = ratio(float64(c.dtHits), float64(c.dtHits+c.dtMisses))
	v["proc.dt_dep_stalls"] = float64(c.dtDepStalls)
	v["proc.dt_violations"] = float64(c.dtViolations)
	v["proc.lsq_forwards"] = float64(c.lsqForwards)
	v["proc.flushes"] = float64(c.flushes)
	v["proc.refills"] = float64(c.refills)
	v["predictor.predictions"] = float64(c.predictions)
	v["predictor.hit_ratio"] = ratio(float64(c.predictions-c.exitMisses-c.targetMisses), float64(c.predictions))
	for i, name := range []string{"opn_hops", "ifetch", "commit", "other"} {
		v["critpath."+name+"_pct_mean"] = ratio(c.critPct[i], float64(c.critRuns))
	}
	v["alpha.sim_cycles"] = float64(c.alphaCycles)
	v["alpha.insts"] = float64(c.alphaInsts)
	v["eval.paper_err_log2"] = ratio(c.paperErr, float64(c.paperCells))
	v["nuca.requests"] = float64(c.nuca.Requests)
	v["nuca.hit_ratio"] = ratio(float64(c.nuca.Hits), float64(c.nuca.Hits+c.nuca.Misses))
	v["nuca.ocn_injected"] = float64(c.nuca.OCNInjected)
	v["nuca.line_transfers"] = float64(c.nuca.LineTransfers)
	v["nuca.mshr_coalesced"] = float64(c.nuca.MSHRCoalesced)
	v["nuca.mshr_blocked"] = float64(c.nuca.MSHRBlocked)
	v["nuca.sdram_reads"] = float64(c.nuca.SDRAMReads)
	v["nuca.sdram_writes"] = float64(c.nuca.SDRAMWrites)
	v["chip.sim_cycles"] = float64(c.chipCycles)
	v["chip.dma_bytes"] = float64(c.dmaBytes)

	v["ckpt.payload_bytes"] = float64(c.ckpt.payloadBytes)
	v["ckpt.save_mb_per_s"] = ratio(float64(c.ckpt.payloadBytes)*1e3, v["ckpt.save_ns"])
	v["ckpt.load_mb_per_s"] = ratio(float64(c.ckpt.payloadBytes)*1e3, v["ckpt.load_ns"])
	v["ckpt.frames_written"] = float64(c.framesWritten)
	v["ckpt.frames_read"] = float64(c.framesRead)
	v["ckpt.hash_checks"] = float64(c.hashChecks)
	v["ckpt.restore_vs_resim_ratio"] = ratio(float64(c.ckpt.restoreNS), float64(c.ckpt.resimNS))
	v["flight.captures"] = float64(c.flightCaptures)
	v["flight.ring_bytes"] = float64(c.flightRingBytes)
	// Each unit makes two checkpointed runs and one armed run; the
	// checkpointed runs stand in for the plain run.
	v["flight.overhead_ratio"] = ratio(2*float64(c.armedRunNS), float64(c.plainRunNS))
}

// peakRSSMB reads the process's peak resident set from /proc; it reports 0
// where there is no such file.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
