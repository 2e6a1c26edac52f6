package proc

import (
	"bytes"
	"os"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/isa"
	"trips/internal/mem"
)

// newCkptCore builds a core without critical-path tracking (SaveState
// refuses it) over a freshly imaged memory.
func newCkptCore(t *testing.T, p *Program) *Core {
	t.Helper()
	m := mem.New()
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{
		Program:   p,
		Mem:       NewFixedLatencyMem(m, 20),
		MaxCycles: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// depLoopProgram is the store/load loop from the dependence-predictor test:
// every iteration stores i, loads it back, and branches — it keeps the DTs,
// LSQs, MSHRs and drain queues busy, which is exactly the state a mid-run
// checkpoint must capture.
func depLoopProgram(t *testing.T) *Program {
	t.Helper()
	loopA := &isa.Block{Addr: 0x1000, Name: "sl-loop"}
	loopA.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToRight(0), RT1: isa.ToLeft(6)}
	loopA.Reads[1] = isa.ReadInst{Valid: true, GR: 13, RT0: isa.ToLeft(0)}
	loopA.Reads[2] = isa.ReadInst{Valid: true, GR: 14, RT0: isa.ToLeft(2)}
	loopA.Reads[3] = isa.ReadInst{Valid: true, GR: 19, RT0: isa.ToLeft(3)}
	loopA.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
	loopA.Writes[1] = isa.WriteInst{Valid: true, GR: 17}
	loopA.Insts = []isa.Inst{
		{Op: isa.SD, Imm: 0, LSID: 0},
		{Op: isa.NOP},
		{Op: isa.LD, Imm: 0, LSID: 1, T0: isa.ToWrite(1)},
		{Op: isa.TGT, T0: isa.ToPred(4), T1: isa.ToPred(5)},
		{Op: isa.BRO, Pred: isa.PredOnTrue, Exit: 1, Offset: 0},
		{Op: isa.BRO, Pred: isa.PredOnFalse, Exit: 0, Offset: haltOffset(0x1000)},
		{Op: isa.ADDI, Imm: 1, T0: isa.ToLeft(7)},
		{Op: isa.MOV, T0: isa.ToWrite(0), T1: isa.ToRight(3)},
	}
	p, err := NewProgram(loopA.Addr, []*isa.Block{loopA})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compareResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("%s: cycles %d != %d", label, a.Cycles, b.Cycles)
	}
	if a.CommittedBlocks != b.CommittedBlocks {
		t.Errorf("%s: blocks %d != %d", label, a.CommittedBlocks, b.CommittedBlocks)
	}
	if a.CommittedInsts != b.CommittedInsts {
		t.Errorf("%s: insts %d != %d", label, a.CommittedInsts, b.CommittedInsts)
	}
	if a.Flushes != b.Flushes {
		t.Errorf("%s: flushes %d != %d", label, a.Flushes, b.Flushes)
	}
	if a.Mispredicts != b.Mispredicts {
		t.Errorf("%s: mispredicts %d != %d", label, a.Mispredicts, b.Mispredicts)
	}
	if a.Violations != b.Violations {
		t.Errorf("%s: violations %d != %d", label, a.Violations, b.Violations)
	}
}

// roundTrip checks the full checkpoint contract for one program: a run with
// a mid-run checkpoint matches an uninterrupted run, and a new core restored
// from the checkpoint finishes bit-identically — same cycles, stats,
// registers, and even warp counters (all serialized state).
func roundTrip(t *testing.T, p *Program, init func(*Core), regs []int) {
	t.Helper()
	// Reference: uninterrupted.
	ref := newCkptCore(t, p)
	init(ref)
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Cycles < 20 {
		t.Fatalf("program too short to checkpoint mid-run: %d cycles", refRes.Cycles)
	}
	at := refRes.Cycles / 2

	// Checkpointed run.
	ck := newCkptCore(t, p)
	init(ck)
	var payload []byte
	var capturedAt int64
	ck.SetCheckpointHook(at, func(cycle int64) error {
		w := &ckpt.Writer{}
		if err := ck.SaveState(w); err != nil {
			return err
		}
		ck.mem.(*FixedLatencyMem).SaveState(w)
		payload = append([]byte(nil), w.Payload()...)
		capturedAt = cycle
		return nil
	})
	ckRes, err := ck.Run()
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("checkpoint hook never fired")
	}
	if capturedAt <= at {
		t.Errorf("captured at cycle %d, want > %d", capturedAt, at)
	}
	compareResults(t, "checkpointed vs reference", refRes, ckRes)

	// Restored run: fresh core + backend, all state overwritten from the
	// payload, then run to completion.
	re := newCkptCore(t, p)
	r := ckpt.NewReader(payload)
	if err := re.LoadState(r); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	re.mem.(*FixedLatencyMem).LoadState(r, re)
	if err := r.Close(); err != nil {
		t.Fatalf("payload not fully consumed: %v", err)
	}
	if re.Cycle() != capturedAt {
		t.Fatalf("restored clock %d, want %d", re.Cycle(), capturedAt)
	}
	reRes, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "restored vs reference", refRes, reRes)
	if refRes.CritPath.TotalCycles != reRes.CritPath.TotalCycles {
		t.Errorf("critpath: %d != %d", refRes.CritPath.TotalCycles, reRes.CritPath.TotalCycles)
	}
	if ckRes.IPC != reRes.IPC {
		t.Errorf("IPC %v != %v", ckRes.IPC, reRes.IPC)
	}
	// Warp telemetry is serialized state too, so even it must agree on the
	// pure sequential path.
	if ck.Warps != re.Warps || ck.WarpedCycles != re.WarpedCycles {
		t.Errorf("warp counters diverge: (%d,%d) != (%d,%d)", ck.Warps, ck.WarpedCycles, re.Warps, re.WarpedCycles)
	}
	for _, reg := range regs {
		if a, b := ck.Register(0, reg), re.Register(0, reg); a != b {
			t.Errorf("r%d: %#x != %#x", reg, a, b)
		}
	}
}

func TestCheckpointRoundTripLoop(t *testing.T) {
	roundTrip(t, loopProgram(t), func(c *Core) {
		c.SetRegister(0, 8, 0)
		c.SetRegister(0, 13, 0)
		c.SetRegister(0, 18, 10)
	}, []int{8, 13})
}

func TestCheckpointRoundTripStoreLoadLoop(t *testing.T) {
	roundTrip(t, depLoopProgram(t), func(c *Core) {
		c.SetRegister(0, 8, 0)
		c.SetRegister(0, 13, 0x8000)
		c.SetRegister(0, 14, 0x8000)
		c.SetRegister(0, 19, 40)
	}, []int{8, 17})
}

func TestCheckpointRefusesCritPath(t *testing.T) {
	p := loopProgram(t)
	m := mem.New()
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
	if err := c.SaveState(&ckpt.Writer{}); err == nil {
		t.Fatal("SaveState accepted a critical-path-tracking core")
	}
}

func TestCheckpointCorruptPayloadFailsCleanly(t *testing.T) {
	p := loopProgram(t)
	c := newCkptCore(t, p)
	c.SetRegister(0, 8, 0)
	c.SetRegister(0, 13, 0)
	c.SetRegister(0, 18, 10)
	var payload []byte
	c.SetCheckpointHook(10, func(int64) error {
		w := &ckpt.Writer{}
		if err := c.SaveState(w); err != nil {
			return err
		}
		c.mem.(*FixedLatencyMem).SaveState(w)
		payload = append([]byte(nil), w.Payload()...)
		return nil
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("checkpoint hook never fired")
	}
	// Truncation anywhere must surface as a sticky reader error, never a
	// panic or silent partial restore.
	for _, cut := range []int{1, len(payload) / 3, len(payload) / 2, len(payload) - 1} {
		re := newCkptCore(t, p)
		r := ckpt.NewReader(payload[:cut])
		err := re.LoadState(r)
		if err == nil {
			re.mem.(*FixedLatencyMem).LoadState(r, re)
			err = r.Close()
		}
		if err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

// The golden checkpoint was written by the parent commit (a114839, before
// wheel events, GCN commands and the status messages were packed) at the
// cycle boundary below of the store/load loop; it must never be regenerated
// from newer code. Flush 1 of that run — a memory-ordering violation — is
// issued during cycle 192.
const (
	ckptGolden      = "testdata/parent_middispatch.ckpt"
	ckptGoldenCycle = 193
)

func newGoldenCore(t *testing.T) *Core {
	c := newCkptCore(t, depLoopProgram(t))
	c.SetRegister(0, 8, 0)
	c.SetRegister(0, 13, 0x8000)
	c.SetRegister(0, 14, 0x8000)
	c.SetRegister(0, 19, 40)
	return c
}

func saveAll(t *testing.T, c *Core) []byte {
	t.Helper()
	w := &ckpt.Writer{}
	if err := c.SaveState(w); err != nil {
		t.Fatal(err)
	}
	c.mem.(*FixedLatencyMem).SaveState(w)
	return w.Payload()
}

// TestCheckpointParentFormat pins the checkpoint wire format across the
// packing of the per-cycle path: mid-dispatch, with body, header and
// store-mask beats in the wheel (their payloads now live in a dispatchRec)
// and a flush command on the GCN tree (its sequence numbers now parked), the
// current code must write the parent commit's bytes from its own run, load
// them into a fresh core, write them back unchanged, and finish the restored
// run exactly as the uninterrupted one.
func TestCheckpointParentFormat(t *testing.T) {
	golden, err := os.ReadFile(ckptGolden)
	if err != nil {
		t.Fatalf("golden checkpoint (written at commit a114839): %v", err)
	}
	live := newGoldenCore(t)
	for live.cycle < ckptGoldenCycle {
		live.Step()
	}
	var kinds [evSlowOPN + 1]int
	for i := range live.wheel {
		for _, e := range live.wheel[i] {
			kinds[e.kind]++
		}
	}
	parked := 0
	for _, f := range live.flushes {
		if f.live {
			parked++
		}
	}
	if kinds[evBodyInst] == 0 || kinds[evHeaderBeat] == 0 || kinds[evStoreMask] == 0 || parked != 1 || live.gcn.Busy() == 0 {
		t.Fatalf("checkpoint state too thin: %d body, %d header, %d store-mask beats in the wheel, %d flushes parked, %d GCN links busy",
			kinds[evBodyInst], kinds[evHeaderBeat], kinds[evStoreMask], parked, live.gcn.Busy())
	}
	if got := saveAll(t, live); !bytes.Equal(got, golden) {
		t.Fatalf("SaveState at cycle %d wrote %d bytes that differ from the parent commit's %d", ckptGoldenCycle, len(got), len(golden))
	}

	restored := newGoldenCore(t)
	r := ckpt.NewReader(golden)
	if err := restored.LoadState(r); err != nil {
		t.Fatalf("LoadState of the parent-format checkpoint: %v", err)
	}
	restored.mem.(*FixedLatencyMem).LoadState(r, restored)
	if err := r.Close(); err != nil {
		t.Fatalf("payload not fully consumed: %v", err)
	}
	if got := saveAll(t, restored); !bytes.Equal(got, golden) {
		t.Fatal("save→load→save is not byte-identical")
	}
	liveRes, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	restoredRes, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "restored vs uninterrupted", liveRes, restoredRes)
	if liveRes.Flushes < 2 || liveRes.Cycles < 2*ckptGoldenCycle {
		t.Fatalf("run ended at cycle %d after %d flushes: nothing was left to replay", liveRes.Cycles, liveRes.Flushes)
	}
	if !bytes.Equal(saveAll(t, live), saveAll(t, restored)) {
		t.Fatal("final states differ between the restored and the uninterrupted run")
	}
}
