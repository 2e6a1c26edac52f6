package proc

import (
	"testing"

	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/mem"
)

// haltOffset computes the B-format offset that branches from addr to the
// halt address (0).
func haltOffset(addr uint64) int32 { return int32(-(int64(addr) / isa.ChunkBytes)) }

// branchOffset computes the B-format offset from one block to another.
func branchOffset(from, to uint64) int32 {
	return int32((int64(to) - int64(from)) / isa.ChunkBytes)
}

// figure5aProgram builds the paper's Figure 5a example block followed by a
// halt exit. The callo targets a trivial callee block that halts.
func figure5aProgram(t *testing.T) *Program {
	t.Helper()
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
	main.Insts[35] = isa.Inst{Op: isa.CALLO, Exit: 0, Offset: branchOffset(main.Addr, callee)}

	halt := &isa.Block{Addr: callee, Name: "halt"}
	halt.Insts = []isa.Inst{{Op: isa.BRO, Exit: 0, Offset: haltOffset(callee)}}

	p, err := NewProgram(main.Addr, []*isa.Block{main, halt})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestCore(t *testing.T, p *Program, m *mem.Memory) *Core {
	t.Helper()
	if m == nil {
		m = mem.New()
	}
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{
		Program:       p,
		Mem:           NewFixedLatencyMem(m, 20),
		TrackCritPath: true,
		MaxCycles:     2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFigure5aExecutionTakenPath(t *testing.T) {
	// R4 != 0: the teq produces 0, the muli (predicated on false) fires,
	// the load reads mem[R4*4+8], the mov fans the value to the store's
	// address and data, and mem[v] = v is written.
	p := figure5aProgram(t)
	m := mem.New()
	m.Write(4*4+8, 4, 0x1234)
	c := newTestCore(t, p, m)
	c.SetRegister(0, 4, 4)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.FlushCaches()
	if got := m.Read(0x1234, 4, false); got != 0x1234 {
		t.Errorf("mem[0x1234] = %#x, want 0x1234 (store of loaded value)", got)
	}
	if res.CommittedBlocks != 2 {
		t.Errorf("committed %d blocks, want 2", res.CommittedBlocks)
	}
	if res.Violations != 0 {
		t.Errorf("unexpected ordering violations: %d", res.Violations)
	}
}

func TestFigure5aExecutionNullPath(t *testing.T) {
	// R4 == 0: the null instruction fires instead, the store is nullified,
	// and memory is untouched — but the block still completes (the
	// nullified store signals the DT) and commits.
	p := figure5aProgram(t)
	m := mem.New()
	m.Write(8, 4, 0x4321) // would-be load target if the dead path ran
	c := newTestCore(t, p, m)
	c.SetRegister(0, 4, 0)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.FlushCaches()
	if got := m.Read(0x4321, 4, false); got != 0 {
		t.Errorf("nullified store wrote memory: mem[0x4321] = %#x", got)
	}
	if res.CommittedBlocks != 2 {
		t.Errorf("committed %d blocks, want 2", res.CommittedBlocks)
	}
}

func TestDispatchTiming(t *testing.T) {
	// Paper Section 4.1: the furthest RT receives its first instruction
	// packet ten cycles and its last packet 17 cycles after the GT issues
	// the first fetch command.
	p := figure5aProgram(t)
	m := mem.New()
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{Program: p, Mem: NewFixedLatencyMem(m, 20)})
	if err != nil {
		t.Fatal(err)
	}
	// Drive a dispatch directly at a known cycle.
	blk, _ := p.Block(p.Entry)
	data, _ := isa.EncodeBlock(blk)
	hi, err := isa.DecodeHeaderChunk(data[:isa.ChunkBytes])
	if err != nil {
		t.Fatal(err)
	}
	// Mark a read entry in the furthest queue position so beats span the
	// full range: R[28] lives on RT0... use RT3's last beat: entry 31.
	hi.Reads[31] = isa.ReadInst{Valid: true, GR: 7, RT0: isa.ToLeft(1)}
	// Hand the ITs their chunks directly (the GRN refill path is tested
	// end-to-end elsewhere; here we drive the dispatch schedule alone).
	for k := 0; k < isa.NumITs && (k+1)*isa.ChunkBytes <= len(data); k++ {
		c.its[k].chunks[p.Entry] = &itChunk{raw: data[k*isa.ChunkBytes : (k+1)*isa.ChunkBytes]}
	}
	start := c.cycle
	c.scheduleDispatch(start, 0, 1, 0, p.Entry, hi, critpath.Event{})
	firstAt, lastAt := int64(-1), int64(-1)
	rt3 := c.rts[3]
	prevBeats := uint8(0)
	for i := 0; i < 40; i++ {
		c.Step()
		if rt3.hdrBeats[0] > prevBeats {
			if firstAt < 0 {
				firstAt = c.cycle - 1 - start
			}
			if rt3.hdrBeats[0] == 8 {
				lastAt = c.cycle - 1 - start
			}
			prevBeats = rt3.hdrBeats[0]
		}
	}
	if firstAt != 10 {
		t.Errorf("first packet at furthest RT after %d cycles, want 10 (paper 4.1)", firstAt)
	}
	if lastAt != 17 {
		t.Errorf("last packet at furthest RT after %d cycles, want 17 (paper 4.1)", lastAt)
	}
}

// arithProgram: w0 = r8 + r12; w1 = r8 * 3; both written back, then halt.
func arithProgram(t *testing.T) *Program {
	t.Helper()
	b := &isa.Block{Addr: 0x1000, Name: "arith"}
	b.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0), RT1: isa.ToLeft(1)}
	b.Reads[1] = isa.ReadInst{Valid: true, GR: 13, RT0: isa.ToRight(0)}
	b.Writes[0] = isa.WriteInst{Valid: true, GR: 16}
	b.Writes[1] = isa.WriteInst{Valid: true, GR: 21}
	b.Insts = []isa.Inst{
		{Op: isa.ADD, T0: isa.ToWrite(0)},
		{Op: isa.MULI, Imm: 3, T0: isa.ToWrite(1)},
		{Op: isa.BRO, Exit: 0, Offset: haltOffset(0x1000)},
	}
	p, err := NewProgram(b.Addr, []*isa.Block{b})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimpleArithBlock(t *testing.T) {
	p := arithProgram(t)
	c := newTestCore(t, p, nil)
	c.SetRegister(0, 8, 30)
	c.SetRegister(0, 13, 12)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Register(0, 16); got != 42 {
		t.Errorf("r16 = %d, want 42", got)
	}
	if got := c.Register(0, 21); got != 90 {
		t.Errorf("r21 = %d, want 90", got)
	}
	if res.CommittedBlocks != 1 {
		t.Errorf("committed %d blocks, want 1", res.CommittedBlocks)
	}
	// Critical-path accounting must cover the whole run.
	var sum int64
	for cat := 0; cat < len(res.CritPath.Cycles); cat++ {
		sum += res.CritPath.Cycles[cat]
	}
	if sum != res.CritPath.TotalCycles || res.CritPath.TotalCycles == 0 {
		t.Errorf("critical path categories sum to %d of %d cycles", sum, res.CritPath.TotalCycles)
	}
}

// loopProgram sums 1..n with a predicated two-exit loop block:
//
//	r8: i, r12: sum, r16: n
//	loop: i' = i+1; sum' = sum+i'; p = (i' < n); bro_t loop; bro_f done
func loopProgram(t *testing.T) *Program {
	t.Helper()
	loop := &isa.Block{Addr: 0x2000, Name: "loop"}
	loop.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
	loop.Reads[1] = isa.ReadInst{Valid: true, GR: 13, RT0: isa.ToLeft(1)}
	loop.Reads[2] = isa.ReadInst{Valid: true, GR: 18, RT0: isa.ToRight(2)}
	loop.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
	loop.Writes[1] = isa.WriteInst{Valid: true, GR: 13}
	loop.Insts = []isa.Inst{
		{Op: isa.ADDI, Imm: 1, T0: isa.ToLeft(4)},           // i+1 -> fanout mov
		{Op: isa.ADD, T0: isa.ToWrite(1)},                   // sum+(i+1)
		{Op: isa.TLT, T0: isa.ToPred(5), T1: isa.ToPred(6)}, // (i+1) < n
		{Op: isa.NOP},
		{Op: isa.MOV, T0: isa.ToWrite(0), T1: isa.ToLeft(7)}, // i+1 -> W0 + next fan
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: 0},
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: branchOffset(0x2000, 0x3000)},
		{Op: isa.MOV, T0: isa.ToRight(1), T1: isa.ToLeft(2)}, // i+1 -> adder, test
	}
	done := &isa.Block{Addr: 0x3000, Name: "done"}
	done.Insts = []isa.Inst{{Op: isa.BRO, Exit: 0, Offset: haltOffset(0x3000)}}
	p, err := NewProgram(loop.Addr, []*isa.Block{loop, done})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoopWithPredictionAndFlush(t *testing.T) {
	p := loopProgram(t)
	c := newTestCore(t, p, nil)
	c.SetRegister(0, 8, 0)   // i
	c.SetRegister(0, 13, 0)  // sum
	c.SetRegister(0, 18, 10) // n
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Register(0, 13); got != 55 {
		t.Errorf("sum = %d, want 55 (1+..+10)", got)
	}
	if got := c.Register(0, 8); got != 10 {
		t.Errorf("i = %d, want 10", got)
	}
	if res.CommittedBlocks != 11 {
		t.Errorf("committed %d blocks, want 11 (10 iterations + done)", res.CommittedBlocks)
	}
	// The loop exit must have mispredicted at least once (cold predictor),
	// exercising the distributed flush protocol.
	if res.Mispredicts == 0 {
		t.Error("expected at least one misprediction/flush on the loop exit")
	}
}
