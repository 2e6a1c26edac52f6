// Figure5a reproduces the paper's worked execution example (Figure 5a): a
// TRIPS block whose predicate selects between a load/store path and a
// nullified store, built directly at the ISA level and executed on the
// distributed core.
//
//	go run ./examples/figure5a
package main

import (
	"fmt"
	"log"

	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
)

func buildFigure5a() (*proc.Program, error) {
	// The paper's code sequence:
	//
	//	R[0]  read R4       -> N[1,L] N[2,L]
	//	N[0]  movi #0       -> N[1,R]
	//	N[1]  teq           -> N[2,P] N[3,P]
	//	N[2]  muli_f #4     -> N[32,L]
	//	N[3]  null_t        -> N[34,L] N[34,R]
	//	N[32] lw #8         -> N[33,L]        (LSID=0)
	//	N[33] mov           -> N[34,L] N[34,R]
	//	N[34] sw #0                           (LSID=1)
	//	N[35] callo $func1
	main := &isa.Block{Addr: 0x10000, Name: "figure5a"}
	main.Reads[0] = isa.ReadInst{Valid: true, GR: 4, RT0: isa.ToLeft(1), RT1: isa.ToLeft(2)}
	main.Insts = make([]isa.Inst, 36)
	for i := range main.Insts {
		main.Insts[i] = isa.Inst{Op: isa.NOP}
	}
	main.Insts[0] = isa.Inst{Op: isa.MOVI, Imm: 0, T0: isa.ToRight(1)}
	main.Insts[1] = isa.Inst{Op: isa.TEQ, T0: isa.ToPred(2), T1: isa.ToPred(3)}
	main.Insts[2] = isa.Inst{Op: isa.MULI, Pred: isa.PredOnFalse, Imm: 4, T0: isa.ToLeft(32)}
	main.Insts[3] = isa.Inst{Op: isa.NULL, Pred: isa.PredOnTrue, T0: isa.ToLeft(34), T1: isa.ToRight(34)}
	main.Insts[32] = isa.Inst{Op: isa.LW, Imm: 8, LSID: 0, T0: isa.ToLeft(33)}
	main.Insts[33] = isa.Inst{Op: isa.MOV, T0: isa.ToLeft(34), T1: isa.ToRight(34)}
	main.Insts[34] = isa.Inst{Op: isa.SW, Imm: 0, LSID: 1}
	callee := uint64(0x20000)
	main.Insts[35] = isa.Inst{Op: isa.CALLO, Exit: 0, Offset: int32((callee - main.Addr) / isa.ChunkBytes)}

	halt := &isa.Block{Addr: callee, Name: "func1"}
	halt.Insts = []isa.Inst{{Op: isa.BRO, Exit: 0, Offset: int32(-(int64(callee) / isa.ChunkBytes))}}
	return proc.NewProgram(main.Addr, []*isa.Block{main, halt})
}

func run(r4 uint64) {
	prog, err := buildFigure5a()
	if err != nil {
		log.Fatal(err)
	}
	m := mem.New()
	m.Write(4*4+8, 4, 0x1234) // the word the taken path loads
	if err := prog.Image(m); err != nil {
		log.Fatal(err)
	}
	core, err := proc.NewCore(proc.Config{
		Program:        prog,
		Mem:            proc.NewFixedLatencyMem(m, 20),
		RecordTimeline: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	core.SetRegister(0, 4, r4)
	res, err := core.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := core.FlushCaches(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("R4 = %d:\n", r4)
	if r4 != 0 {
		fmt.Printf("  teq produced 0 -> muli fired, lw read mem[%d] = %#x,\n", r4*4+8, uint64(0x1234))
		fmt.Printf("  mov fanned it to the store: mem[0x1234] = %#x\n", m.Read(0x1234, 4, false))
	} else {
		fmt.Printf("  teq produced 1 -> null fired, store issued NULLIFIED\n")
		fmt.Printf("  (memory untouched, but the DT still counted the store so the block completed)\n")
	}
	for _, bt := range core.Timeline {
		fmt.Printf("  block %d @%#x: dispatch %d, complete %d, commit %d, acked %d\n",
			bt.Seq, bt.Addr, bt.Dispatch, bt.Complete, bt.CommitCmd, bt.Acked)
	}
	fmt.Printf("  total: %d cycles, %d blocks committed\n\n", res.Cycles, res.CommittedBlocks)
}

func main() {
	fmt.Println("Paper Figure 5a: predicated load/store vs nullified store")
	fmt.Println()
	run(4) // predicate false path: the real store executes
	run(0) // predicate true path: the store is nullified
}
