package main

import (
	"fmt"
	"math/rand"

	"trips/internal/eval"
	"trips/internal/mem"
	"trips/internal/tir"
	"trips/internal/workloads"
)

// Generated kernels for the nuca-footprint workload. The suite's own kernels
// touch about a thousand cache lines, so on them the secondary memory system
// is a small share of host time; these two shapes are sized by footprint so
// the NUCA banks, the OCN, the MSHRs and the SDRAM path do most of the work.
// They are also data held back from tuning: nothing in the simulator was
// developed against them. Caches start empty on every run.

const (
	lineBytes = 64
	genBase   = 0x10_0000 // data segment, clear of code (laid out from 0x10000)
)

// genKernel describes one generated kernel. Its shape — instruction count,
// block count, footprint — depends only on these fields; the seed decides the
// chase order and the data values.
type genKernel struct {
	name  string
	chase bool
	lines int // footprint in 64-byte lines
	laps  int // passes over the footprint
	// storeEvery is the stream's read lines per written line (0 for a chase).
	storeEvery int
}

// The three footprints sit inside the 32 KB L1D, inside the 1 MB L2, and
// beyond the L2 (SDRAM-bound). Lap counts are sized so every kernel revisits
// its lines at least once (so capacity, not only cold misses, decides the hit
// ratio) while a pass of the whole workload stays a few host seconds.
func genKernels(smoke bool) []genKernel {
	if smoke {
		return []genKernel{{"chase-16k", true, 256, 2, 0}}
	}
	return []genKernel{
		{"chase-16k", true, 16 << 10 / lineBytes, 16, 0},
		{"chase-256k", true, 256 << 10 / lineBytes, 2, 0},
		{"chase-2m", true, 2 << 20 / lineBytes, 1, 0},
		{"stream-16k", false, 16 << 10 / lineBytes, 32, 1},
		{"stream-256k", false, 256 << 10 / lineBytes, 2, 1},
		{"stream-2m", false, 2 << 20 / lineBytes, 1, 8},
	}
}

// build returns the kernel as a runnable spec. A fresh spec is built for
// every simulator run, as the suite's own workloads are.
func (k genKernel) build(seed uint64) *workloads.Spec {
	if k.chase {
		return buildChase(k, seed)
	}
	return buildStream(k, seed)
}

// kernelRand derives the kernel's private random stream from the seed.
func kernelRand(k genKernel, seed uint64) *rand.Rand {
	h := seed
	for _, c := range k.name {
		h = h*1099511628211 + uint64(c)
	}
	return rand.New(rand.NewSource(int64(h)))
}

// chaseOrder returns next[i], one cycle through all n nodes (Sattolo's
// shuffle), so a chase of n hops from node 0 visits every line once.
func chaseOrder(n int, rng *rand.Rand) []int {
	next := make([]int, n)
	for i := range next {
		next[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// buildChase is a dependent pointer chase: one node per cache line holding
// the address of the next node and a value to sum. Four hops per block keep
// the block-protocol overhead from hiding the memory latency.
func buildChase(k genKernel, seed uint64) *workloads.Spec {
	const unroll = 4
	hops := int64(k.lines * k.laps)
	f := tir.NewFunc(k.name)
	cur := f.NewReg()
	sum := f.NewReg()
	i := f.NewReg()
	entry := f.NewBB("entry")
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: sum, Imm: 0})
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
	loop := f.NewBB("chase")
	done := f.NewBB("done")
	entry.Jump(loop)
	p := cur
	for u := 0; u < unroll; u++ {
		v := loop.Load(f, p, 8, 8, false)
		p = loop.Load(f, p, 0, 8, false)
		loop.Emit(tir.Inst{Op: tir.Add, Dst: sum, A: sum, B: v})
	}
	loop.Emit(tir.Inst{Op: tir.Mov, Dst: cur, A: p})
	loop.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: unroll})
	c := loop.OpI(f, tir.SetLTI, i, hops)
	loop.Branch(c, loop, done)
	done.Ret()
	f.Keep(sum, cur)

	rng := kernelRand(k, seed)
	next := chaseOrder(k.lines, rng)
	vals := make([]uint64, k.lines)
	for n := range vals {
		vals[n] = uint64(rng.Intn(1_000_000))
	}
	return &workloads.Spec{
		F:    f,
		Init: map[tir.Reg]uint64{cur: genBase},
		SetupMem: func(m *mem.Memory) {
			for n, nx := range next {
				at := genBase + uint64(n)*lineBytes
				m.Write(at, 8, genBase+uint64(nx)*lineBytes)
				m.Write(at+8, 8, vals[n])
			}
		},
		Outputs: []tir.Reg{sum, cur},
	}
}

// buildStream reads one word from every line of the read region and writes
// to the write region: independent accesses, so many misses are in flight at
// once and dirty lines are written back once the footprint exceeds a cache
// level. With storeEvery 1 every line read is written to its twin line (half
// the footprint each); with storeEvery 8 a block of eight lines is summed
// into one written line.
func buildStream(k genKernel, seed uint64) *workloads.Spec {
	const unroll = 8
	se := k.storeEvery
	reads := k.lines * se / (se + 1) &^ (unroll - 1)
	f := tir.NewFunc(k.name)
	a := f.NewReg()
	b := f.NewReg()
	chk := f.NewReg()
	lap := f.NewReg()
	i := f.NewReg()
	entry := f.NewBB("entry")
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: chk, Imm: 0})
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: lap, Imm: 0})
	outer := f.NewBB("lap")
	inner := f.NewBB("line")
	tail := f.NewBB("lap.next")
	done := f.NewBB("done")
	entry.Jump(outer)
	outer.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
	outer.Jump(inner)
	pa := inner.Op(f, tir.Add, a, inner.OpI(f, tir.ShlI, i, 6))
	pb := pa
	if se == 1 {
		pb = inner.Op(f, tir.Add, b, inner.OpI(f, tir.ShlI, i, 6))
	} else {
		pb = inner.Op(f, tir.Add, b, inner.OpI(f, tir.ShlI, i, 3)) // line i/8
	}
	vc := lap
	for u := int64(0); u < unroll; u++ {
		va := inner.Load(f, pa, u*lineBytes, 8, false)
		if se == 1 {
			vc = inner.Op(f, tir.Add, va, lap)
			inner.Store(pb, u*lineBytes, vc, 8)
		} else {
			vc = inner.Op(f, tir.Add, va, vc)
		}
	}
	if se != 1 {
		inner.Store(pb, 0, vc, 8)
	}
	inner.Emit(tir.Inst{Op: tir.Add, Dst: chk, A: chk, B: vc})
	inner.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: unroll})
	ci := inner.OpI(f, tir.SetLTI, i, int64(reads))
	inner.Branch(ci, inner, tail)
	tail.Emit(tir.Inst{Op: tir.AddI, Dst: lap, A: lap, Imm: 1})
	cl := tail.OpI(f, tir.SetLTI, lap, int64(k.laps))
	tail.Branch(cl, outer, done)
	done.Ret()
	f.Keep(chk)

	rng := kernelRand(k, seed)
	vals := make([]uint64, reads)
	for n := range vals {
		vals[n] = uint64(rng.Intn(1_000_000))
	}
	baseB := uint64(genBase + reads*lineBytes)
	return &workloads.Spec{
		F:    f,
		Init: map[tir.Reg]uint64{a: genBase, b: baseB},
		SetupMem: func(m *mem.Memory) {
			for n, v := range vals {
				m.Write(genBase+uint64(n)*lineBytes, 8, v)
			}
		},
		Outputs: []tir.Reg{chk},
	}
}

// golden interprets a spec with the TIR reference interpreter and returns the
// final register file and the dynamic instruction count.
func golden(spec *workloads.Spec) ([]uint64, uint64, error) {
	regs, _, res, err := eval.RunGolden(spec)
	if err != nil {
		return nil, 0, fmt.Errorf("golden %s: %w", spec.F.Name, err)
	}
	return regs, res.DynInsts, nil
}
