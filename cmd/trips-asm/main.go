// Command trips-asm assembles TRIPS assembly (.tasl) into binary block
// images, disassembles them back, or runs them directly on the simulator.
//
//	trips-asm file.tasl                 assemble; report blocks and bytes
//	trips-asm -dis file.tasl            assemble then disassemble (round trip)
//	trips-asm -run file.tasl            assemble and execute on the core
//	trips-asm -run -reg 4=10 file.tasl  ... with r4 preset to 10
//
// The TASL syntax is documented in internal/tasm.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"trips/internal/isa"
	"trips/internal/mem"
	"trips/internal/proc"
	"trips/internal/tasm"
)

type regFlags map[int]uint64

func (r regFlags) String() string { return fmt.Sprint(map[int]uint64(r)) }
func (r regFlags) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want <reg>=<value>")
	}
	reg, err := strconv.Atoi(parts[0])
	if err != nil {
		return err
	}
	val, err := strconv.ParseUint(parts[1], 0, 64)
	if err != nil {
		return err
	}
	r[reg] = val
	return nil
}

func main() {
	regs := regFlags{}
	dis := flag.Bool("dis", false, "disassemble after assembling")
	run := flag.Bool("run", false, "execute the program on the TRIPS core")
	flag.Var(regs, "reg", "initial register, e.g. -reg 4=10 (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, err := tasm.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dis {
		fmt.Print(tasm.Disassemble(prog))
		return
	}
	if !*run {
		total := 0
		for _, addr := range prog.Addrs() {
			b, _ := prog.Block(addr)
			n := (1 + b.NumBodyChunks()) * isa.ChunkBytes
			total += n
			fmt.Printf("block %-16s @%#-10x %2d chunks  %4d bytes\n", b.Name, addr, 1+b.NumBodyChunks(), n)
		}
		fmt.Printf("%d blocks, %d bytes, entry %#x\n", prog.NumBlocks(), total, prog.Entry)
		return
	}
	m := mem.New()
	if err := prog.Image(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	core, err := proc.NewCore(proc.Config{Program: prog, Mem: proc.NewFixedLatencyMem(m, 20)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for r, v := range regs {
		core.SetRegister(0, r, v)
	}
	res, err := core.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := core.FlushCaches(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("halted after %d cycles, %d blocks committed, IPC %.2f\n",
		res.Cycles, res.CommittedBlocks, res.IPC)
	for r := 0; r < isa.NumArchRegs; r++ {
		if v := core.Register(0, r); v != 0 {
			fmt.Printf("  r%-3d = %d (%#x)\n", r, v, v)
		}
	}
}
