package alpha

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trips/internal/mem"
	"trips/internal/tir"
)

// run executes f on the baseline and returns final registers + result.
func run(t *testing.T, f *tir.Func, init map[tir.Reg]uint64, m *mem.Memory) ([]uint64, Result) {
	t.Helper()
	code, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		m = mem.New()
	}
	mc := New(DefaultConfig(), code, f.NumRegs(), m)
	for r, v := range init {
		mc.SetReg(r, v)
	}
	res, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	mc.FlushCache()
	regs := make([]uint64, f.NumRegs())
	for i := range regs {
		regs[i] = mc.Reg(tir.Reg(i))
	}
	return regs, res
}

func goldenRun(t *testing.T, f *tir.Func, init map[tir.Reg]uint64, m *mem.Memory) []uint64 {
	t.Helper()
	if m == nil {
		m = mem.New()
	}
	regs := make([]uint64, f.NumRegs())
	for r, v := range init {
		regs[r] = v
	}
	if _, err := tir.Interp(f, m, regs, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return regs
}

func sumLoop(t *testing.T, n int64) (*tir.Func, tir.Reg) {
	t.Helper()
	f := tir.NewFunc("sum")
	i := f.NewReg()
	sum := f.NewReg()
	entry := f.NewBB("entry")
	loop := f.NewBB("loop")
	done := f.NewBB("done")
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: sum, Imm: 0})
	entry.Jump(loop)
	loop.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: 1})
	loop.Emit(tir.Inst{Op: tir.Add, Dst: sum, A: sum, B: i})
	c := loop.OpI(f, tir.SetLTI, i, n)
	loop.Branch(c, loop, done)
	done.Ret()
	return f, sum
}

func TestSumLoop(t *testing.T) {
	f, sum := sumLoop(t, 100)
	regs, res := run(t, f, nil, nil)
	if regs[sum] != 5050 {
		t.Errorf("sum = %d, want 5050", regs[sum])
	}
	if res.IPC <= 0.5 {
		t.Errorf("IPC = %.2f; a 4-wide core should sustain more on this loop", res.IPC)
	}
	if res.Mispredicts == 0 {
		t.Error("loop exit should mispredict at least once")
	}
	if res.Mispredicts > 8 {
		t.Errorf("predictor never learned the loop: %d mispredicts", res.Mispredicts)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	f := tir.NewFunc("fwd")
	base := f.NewReg()
	v := f.NewReg()
	got := f.NewReg()
	b := f.NewBB("b")
	b.Emit(tir.Inst{Op: tir.ConstI, Dst: v, Imm: 0xabcdef})
	b.Store(base, 0, v, 8)
	b.Emit(tir.Inst{Op: tir.Load, Dst: got, A: base, Imm: 0, Width: 8})
	b.Ret()
	regs, _ := run(t, f, map[tir.Reg]uint64{base: 0x2000}, nil)
	if regs[got] != 0xabcdef {
		t.Errorf("forwarded load = %#x", regs[got])
	}
}

func TestMemoryResultsCommitted(t *testing.T) {
	// Store a vector, reload and sum; memory must hold the stores.
	f := tir.NewFunc("vec")
	base := f.NewReg()
	i := f.NewReg()
	s := f.NewReg()
	entry := f.NewBB("entry")
	loop := f.NewBB("loop")
	done := f.NewBB("done")
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: s, Imm: 0})
	entry.Jump(loop)
	off := loop.OpI(f, tir.ShlI, i, 3)
	ad := loop.Op(f, tir.Add, base, off)
	sq := loop.Op(f, tir.Mul, i, i)
	loop.Store(ad, 0, sq, 8)
	v := loop.Load(f, ad, 0, 8, false)
	loop.Emit(tir.Inst{Op: tir.Add, Dst: s, A: s, B: v})
	loop.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: 1})
	c := loop.OpI(f, tir.SetLTI, i, 20)
	loop.Branch(c, loop, done)
	done.Ret()
	m := mem.New()
	regs, _ := run(t, f, map[tir.Reg]uint64{base: 0x3000}, m)
	want := uint64(0)
	for k := 0; k < 20; k++ {
		want += uint64(k * k)
	}
	if regs[s] != want {
		t.Errorf("sum = %d, want %d", regs[s], want)
	}
	if got := m.Read(0x3000+19*8, 8, false); got != 361 {
		t.Errorf("mem[19] = %d, want 361", got)
	}
}

func TestMemPortLimitMatters(t *testing.T) {
	// A pure streaming loop: with 1 port it must be measurably slower than
	// with 4 — the L1-bandwidth effect the paper credits for vadd's 2x.
	mk := func() *tir.Func {
		f := tir.NewFunc("stream")
		base := f.NewReg()
		_ = base
		i := f.NewReg()
		s := f.NewReg()
		entry := f.NewBB("entry")
		loop := f.NewBB("loop")
		done := f.NewBB("done")
		entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
		entry.Emit(tir.Inst{Op: tir.ConstI, Dst: s, Imm: 0})
		// Independent accumulators keep the loop bandwidth-bound.
		accs := make([]tir.Reg, 8)
		for u := range accs {
			accs[u] = f.NewReg()
			entry.Emit(tir.Inst{Op: tir.ConstI, Dst: accs[u], Imm: 0})
		}
		entry.Jump(loop)
		for u := 0; u < 8; u++ {
			v := loop.Load(f, base, int64(u*64), 8, false)
			loop.Emit(tir.Inst{Op: tir.Add, Dst: accs[u], A: accs[u], B: v})
		}
		loop.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: 1})
		c := loop.OpI(f, tir.SetLTI, i, 64)
		loop.Branch(c, loop, done)
		for u := 0; u < 8; u++ {
			done.Emit(tir.Inst{Op: tir.Add, Dst: s, A: s, B: accs[u]})
		}
		done.Ret()
		return f
	}
	cycles := map[int]int64{}
	for _, ports := range []int{1, 4} {
		f := mk()
		code, err := Flatten(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MemPorts = ports
		mc := New(cfg, code, f.NumRegs(), nil)
		mc.SetReg(0, 0x4000)
		res, err := mc.Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles[ports] = res.Cycles
	}
	if !(cycles[1] > cycles[4]*5/4) {
		t.Errorf("1-port run (%d cycles) should be measurably slower than 4-port (%d)", cycles[1], cycles[4])
	}
}

func TestQuickMatchesGolden(t *testing.T) {
	// Random structured programs must produce interpreter-identical
	// registers and memory.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := tir.NewFunc("rand")
		a := f.NewReg()
		b := f.NewReg()
		base := f.NewReg()
		entry := f.NewBB("entry")
		loop := f.NewBB("loop")
		thenB := f.NewBB("then")
		elseB := f.NewBB("else")
		join := f.NewBB("join")
		done := f.NewBB("done")
		i := f.NewReg()
		s := f.NewReg()
		entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
		entry.Emit(tir.Inst{Op: tir.ConstI, Dst: s, Imm: int64(r.Intn(100))})
		entry.Jump(loop)
		x := loop.Op(f, tir.Add, s, a)
		y := loop.Op(f, tir.Xor, x, b)
		loop.Store(base, 0, y, 8)
		c := loop.OpI(f, tir.SetLTI, y, int64(r.Intn(2000)))
		loop.Branch(c, thenB, elseB)
		thenB.Emit(tir.Inst{Op: tir.AddI, Dst: s, A: s, Imm: 13})
		thenB.Jump(join)
		elseB.Emit(tir.Inst{Op: tir.MulI, Dst: s, A: s, Imm: 3})
		elseB.Jump(join)
		ld := join.Load(f, base, 0, 8, false)
		join.Emit(tir.Inst{Op: tir.Add, Dst: s, A: s, B: ld})
		join.Emit(tir.Inst{Op: tir.AndI, Dst: s, A: s, Imm: 0xffff})
		join.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: 1})
		cc := join.OpI(f, tir.SetLTI, i, int64(5+r.Intn(30)))
		join.Branch(cc, loop, done)
		done.Ret()
		init := map[tir.Reg]uint64{a: uint64(r.Intn(500)), b: uint64(r.Intn(500)), base: 0x5000}
		gm := mem.New()
		want := goldenRun(t, f, init, gm)
		m := mem.New()
		got, _ := run(t, f, init, m)
		if got[s] != want[s] || got[i] != want[i] {
			t.Logf("seed %d: s=%d want %d, i=%d want %d", seed, got[s], want[s], got[i], want[i])
			return false
		}
		return m.Read(0x5000, 8, false) == gm.Read(0x5000, 8, false)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestROBWrapWithMispredicts is a regression test for dangling ROB tags:
// a data-dependent branchy loop long enough to wrap the 80-entry ROB many
// times, with values flowing through committed-and-reused slots.
func TestROBWrapWithMispredicts(t *testing.T) {
	f := tir.NewFunc("wrap")
	a := f.NewReg()
	s := f.NewReg()
	i := f.NewReg()
	entry := f.NewBB("entry")
	loop := f.NewBB("loop")
	odd := f.NewBB("odd")
	even := f.NewBB("even")
	join := f.NewBB("join")
	done := f.NewBB("done")
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: i, Imm: 0})
	entry.Emit(tir.Inst{Op: tir.ConstI, Dst: s, Imm: 0})
	entry.Jump(loop)
	// A long dependence chain so producers retire while consumers wait.
	cur := s
	for k := 0; k < 12; k++ {
		cur = loop.Op(f, tir.Add, cur, a)
	}
	par := loop.OpI(f, tir.AndI, cur, 1)
	loop.Branch(par, odd, even)
	odd.Emit(tir.Inst{Op: tir.AddI, Dst: s, A: cur, Imm: 3})
	odd.Jump(join)
	even.Emit(tir.Inst{Op: tir.AddI, Dst: s, A: cur, Imm: 7})
	even.Jump(join)
	join.Emit(tir.Inst{Op: tir.AndI, Dst: s, A: s, Imm: 0xffff})
	join.Emit(tir.Inst{Op: tir.AddI, Dst: i, A: i, Imm: 1})
	c := join.OpI(f, tir.SetLTI, i, 400)
	join.Branch(c, loop, done)
	done.Ret()
	init := map[tir.Reg]uint64{a: 13}
	want := goldenRun(t, f, init, nil)
	got, res := run(t, f, init, nil)
	if got[s] != want[s] {
		t.Fatalf("s = %d, want %d (after %d cycles, %d mispredicts)", got[s], want[s], res.Cycles, res.Mispredicts)
	}
	if res.Committed < 400*15 {
		t.Errorf("committed only %d instructions", res.Committed)
	}
	// The exact outcome the commit-time fold produced before its index
	// arithmetic was rewritten (commit a114839): a consumer that misses the
	// retiring value, or takes a stale one, moves at least one of these.
	if res.Cycles != 5709 || res.Committed != 8205 || res.Mispredicts != 10 {
		t.Errorf("%d cycles, %d committed, %d mispredicts; want 5709, 8205, 10", res.Cycles, res.Committed, res.Mispredicts)
	}
}
