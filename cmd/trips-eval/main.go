// Command trips-eval regenerates every table and figure of "Distributed
// Microarchitectural Protocols in the TRIPS Prototype Processor"
// (MICRO 2006) from the simulator:
//
//	trips-eval -table1     tile specifications (paper Table 1)
//	trips-eval -table2     control and data networks (paper Table 2)
//	trips-eval -table3     network overheads + preliminary performance
//	trips-eval -fig1       instruction format encodings (paper Figure 1)
//	trips-eval -fig2       chip block diagram (paper Figure 2)
//	trips-eval -fig3       micronetworks and their roles (paper Figure 3)
//	trips-eval -fig5b      block completion/commit pipeline timeline
//	trips-eval -fig6       floorplan and area breakdown (paper Figure 6)
//	trips-eval -ablate     design-choice ablations (placement, OPN width,
//	                       dependence predictor)
//	trips-eval -all        everything
//
// Table 3 runs the full 21-benchmark suite on the TRIPS core (compiled and
// hand-optimized) and the Alpha-class baseline; restrict it with
// -bench name. Rows fan out across a worker pool (-workers, default
// GOMAXPROCS); simulated results are identical at any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"trips/internal/area"
	"trips/internal/eval"
	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/proc"
)

// options is trips-eval's flag surface.
type options struct {
	t1, t2, t3, f1, f2, f3, f4, f5b, f6, ablate, all bool

	bench      string
	workers    int
	jsonOut    string
	hostStats  bool
	reference  bool
	useNUCA    bool
	flightDir  string
	cpuprofile string
	memprofile string
}

// parseFlags parses args into options, reporting usage and parse errors on
// errOut.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("trips-eval", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.BoolVar(&o.t1, "table1", false, "print Table 1 (tile specifications)")
	fs.BoolVar(&o.t2, "table2", false, "print Table 2 (control and data networks)")
	fs.BoolVar(&o.t3, "table3", false, "run and print Table 3 (overheads and performance)")
	fs.BoolVar(&o.f1, "fig1", false, "print Figure 1 (instruction formats)")
	fs.BoolVar(&o.f2, "fig2", false, "print Figure 2 (chip block diagram)")
	fs.BoolVar(&o.f3, "fig3", false, "print Figure 3 (micronetworks)")
	fs.BoolVar(&o.f4, "fig4", false, "print Figure 4 (tile-level diagrams)")
	fs.BoolVar(&o.f5b, "fig5b", false, "run and print Figure 5b (commit pipeline)")
	fs.BoolVar(&o.f6, "fig6", false, "print Figure 6 (floorplan)")
	fs.BoolVar(&o.ablate, "ablate", false, "run the design-choice ablations")
	fs.BoolVar(&o.all, "all", false, "everything")
	fs.StringVar(&o.bench, "bench", "", "restrict -table3/-ablate to one benchmark")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size for -table3/-ablate (0 = GOMAXPROCS)")
	fs.StringVar(&o.jsonOut, "json", "", "write the -table3 report (rows + host throughput) to this file")
	fs.BoolVar(&o.hostStats, "host", false, "print host throughput after -table3 (nondeterministic)")
	fs.BoolVar(&o.reference, "reference", false, "run -table3 TRIPS rows on the naive reference stepper instead of the production one (results must not change)")
	fs.BoolVar(&o.useNUCA, "nuca", false, "run -table3 TRIPS rows against the full secondary memory system instead of the perfect L2")
	fs.StringVar(&o.flightDir, "flight-dir", "", "arm the flight recorder on -table3 compiled-TRIPS runs; crash/limit dump bundles land in this directory (inspect with trips-debug)")
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
	table3 := o.t3 || o.all
	switch {
	case !(o.t1 || o.t2 || o.t3 || o.f1 || o.f2 || o.f3 || o.f4 || o.f5b || o.f6 || o.ablate || o.all):
		return errors.New("nothing to do: pass -all or at least one -table/-fig/-ablate flag (-h lists them)")
	case !table3 && (o.reference || o.useNUCA || o.hostStats || o.jsonOut != "" || o.flightDir != ""):
		return errors.New("-reference, -nuca, -host, -json and -flight-dir shape the -table3 run; pass -table3 (or -all) as well")
	case !table3 && !o.ablate && o.bench != "":
		return errors.New("-bench restricts -table3 and -ablate; pass one of them (or -all) as well")
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
		fmt.Fprintf(os.Stderr, "trips-eval: %v\n", err)
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
	if o.all {
		o.t1, o.t2, o.t3, o.f1, o.f2, o.f3, o.f4, o.f5b, o.f6, o.ablate = true, true, true, true, true, true, true, true, true, true
	}
	if o.f1 {
		fig1()
	}
	if o.f2 {
		fig2()
	}
	if o.f3 {
		fig3()
	}
	if o.f4 {
		fig4()
	}
	if o.t1 {
		fmt.Println("== Table 1: TRIPS Tile Specifications ==")
		fmt.Println(area.FormatTable1())
	}
	if o.t2 {
		fmt.Println("== Table 2: TRIPS Control and Data Networks ==")
		fmt.Println(area.FormatTable2())
	}
	if o.f6 {
		fmt.Println("== Figure 6: TRIPS physical floorplan ==")
		fmt.Println(area.Floorplan())
		fmt.Printf("area overheads (Section 5.2): OPN ~%.0f%% of processor, OCN ~%.0f%% of chip, LSQs ~%.0f%% of processor (%.0f%% of each DT)\n\n",
			area.OPNPctProcessorArea, area.OCNPctChipArea, area.LSQPctProcessorArea, area.LSQPctOfDT)
	}
	if o.f5b {
		fig5b()
	}
	if o.t3 {
		table3(o.bench, o.workers, o.jsonOut, o.hostStats, eval.Stepping{Reference: o.reference, UseNUCA: o.useNUCA, FlightDir: o.flightDir})
		if o.flightDir != "" {
			fmt.Fprintf(os.Stderr, "trips-eval: flight recorder was armed; dump bundles (if any) are under %s\n", o.flightDir)
		}
	}
	if o.ablate {
		runAblations(o.bench, o.workers)
	}
}

func fig1() {
	fmt.Println("== Figure 1: TRIPS Instruction Formats ==")
	rows := []struct {
		name   string
		layout string
		in     isa.Inst
	}{
		{"G", "OPCODE[31:25] PR[24:23] XOP[22:18] T1[17:9] T0[8:0]", isa.Inst{Op: isa.ADD, T0: isa.ToLeft(5), T1: isa.ToRight(9)}},
		{"I", "OPCODE[31:25] PR[24:23] IMM[22:9] T0[8:0]", isa.Inst{Op: isa.ADDI, Imm: -4, T0: isa.ToLeft(3)}},
		{"L", "OPCODE[31:25] PR[24:23] LSID[22:18] IMM[17:9] T0[8:0]", isa.Inst{Op: isa.LW, LSID: 2, Imm: 8, T0: isa.ToLeft(7)}},
		{"S", "OPCODE[31:25] PR[24:23] LSID[22:18] IMM[17:9] 0[8:0]", isa.Inst{Op: isa.SW, LSID: 3, Imm: -16}},
		{"B", "OPCODE[31:25] PR[24:23] EXIT[22:20] OFFSET[19:0]", isa.Inst{Op: isa.BRO, Exit: 1, Offset: -64}},
		{"C", "OPCODE[31:25] CONST[24:9] T0[8:0]", isa.Inst{Op: isa.GENC, Imm: 0xbeef, T0: isa.ToRight(1)}},
	}
	for _, r := range rows {
		w, err := isa.EncodeInst(&r.in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %s: %-52s  e.g. %-28s = %#08x\n", r.name, r.layout, r.in.String(), w)
	}
	fmt.Println("  R: V GR5 RT1[8:0] RT0[8:0]   (header read, 3 bytes packed)")
	fmt.Println("  W: V GR5                     (header write, 6 bits packed)")
	fmt.Println()
}

func fig2() {
	fmt.Println("== Figure 2: TRIPS prototype block diagram ==")
	fmt.Println(`
  Each processor core (2 per chip):          Secondary memory system:
    row 0:  GT  RT0 RT1 RT2 RT3                16 MTs (4-way 64KB banks),
    row 1:  IT1 DT0 ET0 ET1 ET2 ET3            24 NTs, on a 4x10 wormhole
    row 2:  IT2 DT1 ET4 ET5 ET6 ET7            OCN with 4 virtual channels
    row 3:  IT3 DT2 ET8 ET9 ET10 ET11          and 16-byte links.
    row 4:  IT4 DT3 ET12 ET13 ET14 ET15
    (IT0 holds header chunks; each IT        I/O clients on the OCN:
     feeds its own row over the GDN)           2 SDC, 2 DMA, C2C, EBC`)
	fmt.Println()
}

func fig3() {
	fmt.Println("== Figure 3: TRIPS micronetworks ==")
	for _, n := range micronet.Table2 {
		fmt.Printf("  %-4s %-26s %s\n", n.Abbrev, n.Name, roleOf(n.Abbrev))
	}
	fmt.Println()
}

func roleOf(abbrev string) string {
	switch abbrev {
	case "GDN":
		return "issues block fetch commands and dispatches instructions"
	case "OPN":
		return "transports all data operands (5x5 mesh)"
	case "GSN":
		return "signals block completion, refill and commit completion"
	case "GCN":
		return "issues block commit and block flush commands"
	case "GRN":
		return "broadcasts I-cache refill addresses to the ITs"
	case "DSN":
		return "shares store-arrival info among the DTs"
	case "ESN":
		return "tracks store completion in the L2 or memory"
	case "OCN":
		return "memory-system transport (4x10 mesh, 4 VCs)"
	}
	return ""
}

func fig4() {
	fmt.Println("== Figure 4: TRIPS tile-level diagrams (as implemented) ==")
	fmt.Println(`
  a) Global Control Tile (GT)            internal/proc/gt.go
     - block PCs and state for 8 in-flight blocks (1..4 SMT threads)
     - I-cache tag array (128 blocks) + I-TLB + refill engine (GRN/GSN)
     - next-block predictor: tournament local/gshare exit predictor plus
       BTB/CTB/RAS/branch-type target predictor   internal/predictor
     - fetch pipeline: 3 predict + 1 TLB/tag + 1 hit/miss + 8 dispatch
     - commit/flush control (GCN) and completion tracking (GSN, OPN)

  b) Instruction Tile (IT) x5            internal/proc/it.go
     - 2-way 16KB bank: one 128B chunk for each of 128 blocks
     - slave to the GT's tag array; refills its own chunk independently;
       refill completion daisy-chained northward on the GSN
     - feeds its own row: 4 instructions/cycle for 8 beats (GDN)

  c) Register Tile (RT) x4               internal/proc/rt.go
     - one 32-register architectural bank per SMT thread
     - read queue + write queue: 8 entries per in-flight block, forwarding
       register writes dynamically to later blocks' reads (renaming)
     - completion/commit-ack daisy chains on the GSN

  d) Execution Tile (ET) x16             internal/proc/et.go
     - 64 reservation stations (8 blocks x 8), two 64-bit operands + 1
       predicate bit each
     - single-issue; integer + FP units, fully pipelined except the
       24-cycle divide; same-ET local bypass for back-to-back issue
     - OPN router integration: remote wakeup costs 1 cycle per hop

  e) Data Tile (DT) x4                   internal/proc/dt.go + internal/lsq
     - 2-way 8KB L1 bank (lines interleaved across DTs at 64B)
     - replicated 256-entry LSQ with store-to-load forwarding
     - memory-side dependence predictor: 1024-entry bit vector, flash
       cleared every 10,000 blocks
     - MSHR: 16 requests over 4 outstanding lines
     - one-entry back-side coalescing write buffer
     - DSN client for distributed store-completion tracking`)
	fmt.Println()
}

// fig5b reproduces the commit-pipeline timeline: a chain of blocks whose
// completion, commit and acknowledgment phases overlap.
func fig5b() {
	fmt.Println("== Figure 5b: block completion / commit / acknowledgment pipeline ==")
	// A chain of eight blocks run twice: the first pass warms the I-cache
	// (each block cold-misses and refills over the GRN); the second pass
	// shows the steady-state pipelined protocol.
	var blocks []*isa.Block
	n := 8
	for i := 0; i < n; i++ {
		addr := uint64(0x10000 + i*0x100)
		b := &isa.Block{Addr: addr, Name: "b"}
		b.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
		b.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
		if i < n-1 {
			b.Insts = []isa.Inst{
				{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
				{Op: isa.BRO, Exit: 0, Offset: 2},
			}
		} else {
			b.Reads[0].RT1 = isa.ToLeft(1)
			back := int32(-(int64(addr-0x10000) / isa.ChunkBytes))
			halt := int32(-(int64(addr) / isa.ChunkBytes))
			b.Insts = []isa.Inst{
				{Op: isa.ADDI, Imm: 1, T0: isa.ToWrite(0)},
				{Op: isa.TLTI, Imm: 9, T0: isa.ToLeft(4)},
				{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: back},
				{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: halt},
				{Op: isa.MOV, T0: isa.ToPred(2), T1: isa.ToPred(3)},
			}
		}
		blocks = append(blocks, b)
	}
	prog, err := proc.NewProgram(blocks[0].Addr, blocks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := mem.New()
	prog.Image(m)
	core, err := proc.NewCore(proc.Config{
		Program:        prog,
		Mem:            proc.NewFixedLatencyMem(m, 20),
		RecordTimeline: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := core.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("  block   dispatch   complete   commit-cmd   acked     (steady-state pass)")
	tl := core.Timeline
	if len(tl) > 8 {
		tl = tl[len(tl)-8:]
	}
	for _, bt := range tl {
		fmt.Printf("  %5d %10d %10d %12d %7d\n", bt.Seq, bt.Dispatch, bt.Complete, bt.CommitCmd, bt.Acked)
	}
	fmt.Println("  (pipelined commit: a block's commit command may issue before older")
	fmt.Println("   blocks' acks return — compare commit-cmd and acked columns)")
	fmt.Println()
}

func table3(only string, workers int, jsonOut string, hostStats bool, step eval.Stepping) {
	fmt.Println("== Table 3: network overheads and preliminary performance ==")
	fmt.Printf("%-12s | %7s %8s %8s %7s %9s %7s %6s | %7s %7s | %6s %6s %6s\n",
		"Benchmark", "IFetch", "OPNHops", "OPNCont", "Fanout", "BlkCompl", "Commit", "Other",
		"Spd-TCC", "SpdHand", "IPCtcc", "IPChnd", "IPCa")
	var rep *eval.Table3Report
	var err error
	if only != "" {
		rep, err = eval.Table3Rows([]string{only}, workers, step)
	} else {
		rep, err = eval.Table3All(workers, step)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, row := range rep.Rows {
		fmt.Printf("%-12s | %6.2f%% %7.2f%% %7.2f%% %6.2f%% %8.2f%% %6.2f%% %5.1f%% | %7.2f %7.2f | %6.2f %6.2f %6.2f\n",
			row.Name, row.IFetch, row.OPNHops, row.OPNCont, row.Fanout, row.Complete, row.Commit, row.Other,
			row.SpeedupTCC, row.SpeedupHand, row.IPCTCC, row.IPCHand, row.IPCAlpha)
	}
	if hostStats {
		fmt.Printf("host: %d workers, %d sim-cycles in %.1f s, %.0f sim-cycles/sec, %.0f ns/sim-cycle\n",
			rep.Workers, rep.TotalSimCycles, float64(rep.TotalWallNS)/1e9,
			rep.SimCyclesPerSec, float64(rep.TotalWallNS)/float64(rep.TotalSimCycles))
	}
	if jsonOut != "" {
		if err := eval.WriteBenchJSON(jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Println()
}

func runAblations(only string, workers int) {
	fmt.Println("== Ablations (paper Sections 5.3 and 7) ==")
	names := []string{"vadd", "conv", "dct8x8", "matrix"}
	if only != "" {
		names = []string{only}
	}
	fmt.Printf("%-10s | %10s %10s | %10s %10s | %10s %10s\n", "bench",
		"naive", "greedy", "1xOPN", "2xOPN", "aggr-ld", "conserv")
	rows, err := eval.Ablations(names, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("%-10s | %10d %10d | %10d %10d | %10d %10d\n", r.Name,
			r.Naive, r.Greedy, r.OPN1, r.OPN2, r.Aggressive, r.Conservative)
	}
	fmt.Println(strings.TrimSpace(`
  naive/greedy:   instruction placement (Section 7: scheduling to reduce hops)
  1x/2x OPN:      operand network bandwidth (Section 7: proposed extension)
  aggr/conserv:   dependence predictor aggressive loads vs always-stall`))
	fmt.Println()
}
