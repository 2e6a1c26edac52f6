package proc

import (
	"testing"

	"trips/internal/isa"
	"trips/internal/mem"
)

// unansweredMem is a LagMem whose data ports accept every request and never
// answer it. Instruction fetches are answered on the spot, inside Submit, so
// the program runs until its first load and then waits forever: nothing is
// ever outstanding or scheduled, and only the deadlock watchdog ends the run.
type unansweredMem struct {
	m     *mem.Memory
	cycle int64
}

type unansweredPort struct {
	m     *mem.Memory
	fetch bool
}

func (p unansweredPort) Submit(req *MemRequest) bool {
	if p.fetch {
		req.Done(p.m.ReadBytes(req.Addr, req.N))
	}
	return true
}

func (u *unansweredMem) Port(name string) MemPort {
	return unansweredPort{m: u.m, fetch: name[:2] == "it"}
}
func (u *unansweredMem) Tick()                                    { u.cycle++ }
func (u *unansweredMem) Cycle() int64                             { return u.cycle }
func (u *unansweredMem) Quiet() bool                              { return true }
func (u *unansweredMem) NextEventCycle() int64                    { return horizonNever }
func (u *unansweredMem) Warp(delta int64)                         { u.cycle += delta }
func (u *unansweredMem) CrossCoreLag() int64                      { return 1 }
func (u *unansweredMem) OutstandingFor(int) int                   { return 0 }
func (u *unansweredMem) StagedFor(int) int                        { return 0 }
func (u *unansweredMem) ResponseDeadlineFor(int) int64            { return horizonNever }
func (u *unansweredMem) BindClock(int, func() int64)              {}
func (u *unansweredMem) SetEffectGate(func(owner int, eff int64)) {}

// hangProgram commits one arithmetic block, then loads through r8 in a
// second block that would halt once the load returned.
func hangProgram(t *testing.T) *Program {
	t.Helper()
	a := &isa.Block{Addr: 0x1000, Name: "arith"}
	a.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
	a.Writes[0] = isa.WriteInst{Valid: true, GR: 8}
	a.Insts = []isa.Inst{
		{Op: isa.ADDI, Imm: 8, T0: isa.ToWrite(0)},
		{Op: isa.BRO, Exit: 0, Offset: branchOffset(0x1000, 0x2000)},
	}
	b := &isa.Block{Addr: 0x2000, Name: "load"}
	b.Reads[0] = isa.ReadInst{Valid: true, GR: 8, RT0: isa.ToLeft(0)}
	b.Writes[0] = isa.WriteInst{Valid: true, GR: 12}
	b.Insts = []isa.Inst{
		{Op: isa.LD, Imm: 0, LSID: 0, T0: isa.ToWrite(0)},
		{Op: isa.BRO, Exit: 0, Offset: haltOffset(0x2000)},
	}
	p, err := NewProgram(a.Addr, []*isa.Block{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDeadlockWatchdogEveryLoop pins the no-commit watchdog on a load that is
// never answered: Run, the reference's RunLockstep and the production
// RunLagCheckpointed must give up with the same error at the same cycle,
// deadlockWatchdog+1 cycles after the last commit.
func TestDeadlockWatchdogEveryLoop(t *testing.T) {
	const want = "proc: no commit in 200000 cycles at cycle 200053 (1 blocks committed): deadlock"
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(c *Core, m *unansweredMem) (Result, error)
	}{
		{"Run", Config{}, func(c *Core, _ *unansweredMem) (Result, error) { return c.Run() }},
		{"RunLockstep", Config{Reference: true, ExternalMemTick: true},
			func(c *Core, m *unansweredMem) (Result, error) { return c.RunLockstep(m) }},
		{"RunLagCheckpointed", Config{ExternalMemTick: true},
			func(c *Core, m *unansweredMem) (Result, error) { return c.RunLagCheckpointed(m, 0, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := hangProgram(t)
			m := &unansweredMem{m: mem.New()}
			if err := p.Image(m.m); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Program, cfg.Mem = p, m
			c, err := NewCore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.SetRegister(0, 8, 0x10000)
			_, err = tc.run(c, m)
			if err == nil || err.Error() != want {
				t.Fatalf("error %v, want %q", err, want)
			}
		})
	}
}
