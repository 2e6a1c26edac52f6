// Package alpha implements the baseline for the paper's performance
// comparison (Section 5.4): an Alpha 21264-class, four-wide, out-of-order,
// clustered uniprocessor with two L1 memory ports and a tournament-style
// branch predictor, simulated at cycle level over the same TIR programs the
// TRIPS compiler consumes. As in the paper, the secondary memory system is
// normalized: both machines see the same L1-miss latency to a perfect L2.
//
// The model mirrors sim-alpha's essentials: an 80-entry reorder buffer,
// four-instruction fetch/rename/commit, register renaming, address-known
// load disambiguation with store-to-load forwarding, a 64KB 2-way 3-cycle
// L1 data cache, and an 11-cycle-class branch misprediction redirect.
// TIR virtual registers map directly onto the machine's registers — a
// generosity toward the baseline (no spill code), noted in DESIGN.md.
package alpha

import (
	"fmt"

	"trips/internal/cache"
	"trips/internal/mem"
	"trips/internal/tir"
)

// Config parameterizes the baseline core.
type Config struct {
	FetchWidth  int // instructions fetched/renamed per cycle (4)
	IssueWidth  int // instructions issued per cycle (4)
	CommitWidth int // instructions committed per cycle (4)
	ROBSize     int // reorder buffer entries (80)
	MemPorts    int // L1 ports per cycle (2; TRIPS has 4 DTs — Section 5.4)
	L1Bytes     int
	L1Ways      int
	L1Hit       int // L1 hit latency
	MissLatency int // L1 miss to the perfect L2
	Redirect    int // front-end refill after a branch mispredict
	MaxCycles   int64
}

// DefaultConfig returns the 21264-class configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROBSize:     80,
		MemPorts:    2,
		L1Bytes:     64 << 10,
		L1Ways:      2,
		L1Hit:       3,
		MissLatency: 20,
		Redirect:    11,
		MaxCycles:   500_000_000,
	}
}

// aOp is a flattened machine operation: TIR ops plus explicit control.
type aOp uint8

const (
	aTIR aOp = iota // execute inst.Op
	aJmp
	aBr // conditional: taken -> Target
	aRet
)

// AInst is one instruction of the flattened program.
type AInst struct {
	kind   aOp
	inst   tir.Inst
	target int // aJmp/aBr destination (instruction index)
}

// Flatten linearizes a TIR function into straight-line code with explicit
// jumps, laying blocks out in creation order (fallthrough-friendly).
func Flatten(f *tir.Func) ([]AInst, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var code []AInst
	blockStart := map[*tir.BB]int{}
	// First pass: measure.
	pos := 0
	for _, b := range f.Blocks {
		blockStart[b] = pos
		pos += len(b.Insts)
		switch b.Term.Kind {
		case tir.TermRet:
			pos++
		case tir.TermJump:
			pos++
		case tir.TermBranch:
			pos += 2 // conditional + jump (the latter elided if fallthrough)
		}
	}
	// Fallthrough elision changes positions, so simply always emit both
	// (an extra jump per branch block is charged to the baseline; the
	// TRIPS side pays an exit branch per block too).
	for _, b := range f.Blocks {
		if got := blockStart[b]; got != len(code) {
			return nil, fmt.Errorf("alpha: layout drift in %s", b.Label)
		}
		for _, in := range b.Insts {
			code = append(code, AInst{kind: aTIR, inst: in})
		}
		switch b.Term.Kind {
		case tir.TermRet:
			code = append(code, AInst{kind: aRet})
		case tir.TermJump:
			code = append(code, AInst{kind: aJmp, target: blockStart[b.Term.Then]})
		case tir.TermBranch:
			code = append(code, AInst{kind: aBr, inst: tir.Inst{A: b.Term.Cond}, target: blockStart[b.Term.Then]})
			code = append(code, AInst{kind: aJmp, target: blockStart[b.Term.Else]})
		}
	}
	return code, nil
}

// latency returns the execution latency of a TIR op, aligned with the
// TRIPS functional units so neither machine gets a free lunch.
func latency(op tir.Op) int64 {
	switch op {
	case tir.Mul, tir.MulI:
		return 3
	case tir.Div, tir.Mod:
		return 24
	case tir.FAdd, tir.FSub, tir.FMul:
		return 4
	case tir.FDiv:
		return 12
	case tir.FSetEQ, tir.FSetLT, tir.FSetLE:
		return 2
	case tir.IToF, tir.FToI:
		return 3
	}
	return 1
}

// robState tracks an entry's progress.
type robState uint8

const (
	rsWaiting robState = iota
	rsExecuting
	rsDone
)

type robEntry struct {
	valid bool
	seq   uint64
	pc    int
	ai    AInst
	state robState
	// Source dependencies: -1 means the architectural value was captured.
	srcA, srcB int
	valA, valB uint64
	doneAt     int64
	val        uint64
	// Memory.
	addr      uint64
	addrKnown bool
	isLoad    bool
	isStore   bool
	// Branch bookkeeping.
	predTaken bool
	isBranch  bool
	predIdx   uint32 // predictor index captured at fetch
	ghrCkpt   uint32 // global history before this branch's update
}

// Result summarizes a run.
type Result struct {
	Cycles      int64
	Committed   uint64
	Mispredicts uint64
	IPC         float64
	L1Hits      uint64
	L1Misses    uint64
}

// Machine is one baseline core instance.
type Machine struct {
	cfg  Config
	code []AInst
	mem  *mem.Memory
	l1   *cache.Bank

	regs   []uint64
	regmap map[tir.Reg]int // register -> producing ROB slot (-1 none)

	rob        []robEntry
	head, tail int
	count      int
	nextSeq    uint64

	pc         int
	fetchStall int64 // front end blocked until this cycle (redirect)
	halted     bool  // aRet fetched; stop fetching until commit/flush

	// Tournament direction predictor (21264-style): a gshare global
	// component, a per-PC bimodal local component, and a chooser.
	ghr     uint32
	table   [4096]uint8 // gshare
	local   [4096]uint8
	chooser [4096]uint8

	cycle int64
	res   Result

	// In-flight cache fills: line -> ready cycle.
	fills map[uint64]int64
}

// New builds a machine for a flattened program.
func New(cfg Config, code []AInst, numRegs int, m *mem.Memory) *Machine {
	if m == nil {
		m = mem.New()
	}
	mc := &Machine{
		cfg:    cfg,
		code:   code,
		mem:    m,
		l1:     cache.NewBank(cfg.L1Bytes, cfg.L1Ways, 64),
		regs:   make([]uint64, numRegs),
		regmap: make(map[tir.Reg]int),
		rob:    make([]robEntry, cfg.ROBSize),
		fills:  make(map[uint64]int64),
	}
	return mc
}

// SetReg initializes a register before the run.
func (m *Machine) SetReg(r tir.Reg, v uint64) { m.regs[r] = v }

// Reg reads a register after the run.
func (m *Machine) Reg(r tir.Reg) uint64 { return m.regs[r] }

// FlushCache writes dirty L1 lines back to memory.
func (m *Machine) FlushCache() {
	for _, v := range m.l1.DirtyLines() {
		m.mem.WriteBytes(v.Addr, v.Data[:])
	}
}

// fill installs the line at line from memory, writing a dirty victim back.
func (m *Machine) fill(line uint64) {
	var buf [cache.LineBytes]byte
	m.mem.ReadInto(line, buf[:])
	if v := m.l1.Fill(line, buf[:]); v.Valid {
		m.mem.WriteBytes(v.Addr, v.Data[:])
	}
}

// next returns the ROB index after i. The walks over the ring are the
// baseline's inner loops (the commit-time fold alone was a quarter of its
// host time when it wrapped by division), so the wrap is a compare.
func (m *Machine) next(i int) int {
	if i++; i == len(m.rob) {
		return 0
	}
	return i
}

// Run executes to completion.
func (m *Machine) Run() (Result, error) {
	retired := false
	for !retired {
		if m.cycle >= m.cfg.MaxCycles {
			return m.res, fmt.Errorf("alpha: cycle limit exceeded at pc %d", m.pc)
		}
		retired = m.step()
		m.cycle++
	}
	m.res.Cycles = m.cycle
	if m.cycle > 0 {
		m.res.IPC = float64(m.res.Committed) / float64(m.cycle)
	}
	m.res.L1Hits = m.l1.Hits
	m.res.L1Misses = m.l1.Misses
	return m.res, nil
}

// step advances one cycle; returns true when the program has retired.
func (m *Machine) step() bool {
	if done := m.commit(); done {
		return true
	}
	m.complete()
	m.issue()
	m.fetch()
	return false
}

// commit retires up to CommitWidth done entries in order. Stores write the
// L1 at commit. Returns true when aRet retires.
func (m *Machine) commit() bool {
	for n := 0; n < m.cfg.CommitWidth && m.count > 0; n++ {
		e := &m.rob[m.head]
		if e.state != rsDone {
			return false
		}
		if e.ai.kind == aRet {
			m.res.Committed++
			return true
		}
		if e.isStore {
			m.storeCommit(e)
		}
		if e.ai.kind == aTIR && e.ai.inst.Op.WritesDst() {
			m.regs[e.ai.inst.Dst] = e.val
			if m.regmap[e.ai.inst.Dst] == m.head {
				delete(m.regmap, e.ai.inst.Dst)
			}
		}
		// Fold the retired value into consumers still holding this slot's
		// tag: the slot is about to be reused by a younger instruction.
		for j, n2 := m.next(m.head), 1; n2 < m.count; j, n2 = m.next(j), n2+1 {
			c := &m.rob[j]
			if !c.valid {
				continue
			}
			if c.srcA == m.head {
				c.srcA = -1
				c.valA = e.val
			}
			if c.srcB == m.head {
				c.srcB = -1
				c.valB = e.val
			}
		}
		m.res.Committed++
		e.valid = false
		m.head = m.next(m.head)
		m.count--
	}
	return false
}

func (m *Machine) storeCommit(e *robEntry) {
	w := e.ai.inst.Width
	var scratch [8]byte
	data := scratch[:w]
	for i := 0; i < w; i++ {
		data[i] = byte(e.valB >> (8 * i))
	}
	if !m.l1.Write(e.addr, data) {
		// Write-allocate instantly at commit; the timing cost was charged
		// when the load/store executed.
		m.fill(m.l1.LineAddr(e.addr))
		m.l1.Write(e.addr, data)
	}
}

// complete finishes executing entries and broadcasts results.
func (m *Machine) complete() {
	for i := 0; i < m.cfg.ROBSize; i++ {
		e := &m.rob[i]
		if !e.valid || e.state != rsExecuting || e.doneAt > m.cycle {
			continue
		}
		e.state = rsDone
		if e.isBranch {
			taken := e.valA != 0
			m.train(e.pc, e.predIdx, taken)
			if taken != e.predTaken {
				m.mispredict(i, taken)
			}
		}
	}
}

// mispredict squashes everything younger than ROB index i and redirects.
func (m *Machine) mispredict(i int, taken bool) {
	m.res.Mispredicts++
	e := &m.rob[i]
	// Squash younger entries.
	j := m.next(i)
	for m.tail != j {
		m.tail = (m.tail - 1 + m.cfg.ROBSize) % m.cfg.ROBSize
		victim := &m.rob[m.tail]
		if victim.ai.kind == aTIR && victim.ai.inst.Op.WritesDst() {
			if m.regmap[victim.ai.inst.Dst] == m.tail {
				delete(m.regmap, victim.ai.inst.Dst)
			}
		}
		victim.valid = false
		m.count--
	}
	// Rebuild the register map conservatively: point at the youngest
	// surviving producer of each register.
	m.regmap = map[tir.Reg]int{}
	for k, n := m.head, 0; n < m.count; k, n = m.next(k), n+1 {
		v := &m.rob[k]
		if v.valid && v.ai.kind == aTIR && v.ai.inst.Op.WritesDst() {
			m.regmap[v.ai.inst.Dst] = k
		}
	}
	if taken {
		m.pc = e.ai.target
	} else {
		m.pc = e.pc + 1
	}
	// Repair the speculative global history with the actual outcome.
	m.ghr = e.ghrCkpt<<1 | b2u32(taken)
	m.halted = false
	m.fetchStall = m.cycle + int64(m.cfg.Redirect)
}

// predict returns the tournament prediction and the gshare index; the
// global history updates speculatively at fetch and is repaired on
// mispredicts.
func (m *Machine) predict(pc int) (bool, uint32) {
	gidx := (uint32(pc)*2654435761 ^ m.ghr) & 4095
	lidx := uint32(pc) * 2654435761 >> 20 & 4095
	g := m.table[gidx] >= 2
	l := m.local[lidx] >= 2
	taken := l
	if m.chooser[lidx] >= 2 {
		taken = g
	}
	m.ghr = m.ghr<<1 | b2u32(taken)
	return taken, gidx
}

func (m *Machine) train(pc int, gidx uint32, taken bool) {
	lidx := uint32(pc) * 2654435761 >> 20 & 4095
	g := m.table[gidx] >= 2
	l := m.local[lidx] >= 2
	if g != l {
		if g == taken {
			if m.chooser[lidx] < 3 {
				m.chooser[lidx]++
			}
		} else if m.chooser[lidx] > 0 {
			m.chooser[lidx]--
		}
	}
	bump := func(c *uint8) {
		if taken {
			if *c < 3 {
				*c++
			}
		} else if *c > 0 {
			*c--
		}
	}
	bump(&m.table[gidx])
	bump(&m.local[lidx])
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// issue starts execution of ready entries, oldest first, within issue and
// memory-port limits.
func (m *Machine) issue() {
	issued, memIssued := 0, 0
	for k, n := m.head, 0; n < m.count && issued < m.cfg.IssueWidth; k, n = m.next(k), n+1 {
		e := &m.rob[k]
		if !e.valid || e.state != rsWaiting {
			continue
		}
		if !m.srcReady(e.srcA) || !m.srcReady(e.srcB) {
			continue
		}
		valA, valB := m.srcVal(e.srcA, e.valA), m.srcVal(e.srcB, e.valB)
		if e.isLoad || e.isStore {
			if memIssued >= m.cfg.MemPorts {
				continue
			}
			e.addr = valA + uint64(e.ai.inst.Imm)
			e.addrKnown = true
			e.valA, e.valB = valA, valB
			if e.isStore {
				// Stores "execute" once address and data are known; memory
				// is written at commit.
				e.state = rsExecuting
				e.doneAt = m.cycle + 1
				issued++
				memIssued++
				continue
			}
			// Loads: wait until all older store addresses are known, then
			// forward or access the L1.
			stall, fwd, fv := m.disambiguate(k, e)
			if stall {
				e.addrKnown = false // retry next cycle
				continue
			}
			memIssued++
			issued++
			e.state = rsExecuting
			if fwd {
				e.val = m.extend(fv, e.ai.inst)
				e.doneAt = m.cycle + 1
				continue
			}
			e.val, e.doneAt = m.loadAccess(e)
			continue
		}
		e.valA, e.valB = valA, valB
		e.state = rsExecuting
		switch e.ai.kind {
		case aTIR:
			e.val = tir.EvalOp(e.ai.inst.Op, valA, valB, e.ai.inst.Imm)
			e.doneAt = m.cycle + latency(e.ai.inst.Op)
		case aBr:
			e.doneAt = m.cycle + 1
		case aJmp, aRet:
			e.doneAt = m.cycle + 1
		}
		issued++
	}
}

func (m *Machine) srcReady(src int) bool {
	if src < 0 {
		return true
	}
	return m.rob[src].state == rsDone
}

func (m *Machine) srcVal(src int, captured uint64) uint64 {
	if src < 0 {
		return captured
	}
	return m.rob[src].val
}

// disambiguate checks older stores: returns (stall, forwarded, value).
func (m *Machine) disambiguate(k int, e *robEntry) (bool, bool, uint64) {
	var best *robEntry
	for j, n := m.head, 0; n < m.count; j, n = m.next(j), n+1 {
		if j == k {
			break
		}
		s := &m.rob[j]
		if !s.valid || !s.isStore {
			continue
		}
		if !s.addrKnown && s.state == rsWaiting {
			return true, false, 0 // unknown older store address
		}
		if !s.addrKnown {
			return true, false, 0
		}
		w := uint64(s.ai.inst.Width)
		lw := uint64(e.ai.inst.Width)
		if s.addr < e.addr+lw && e.addr < s.addr+w {
			if s.addr <= e.addr && e.addr+lw <= s.addr+w {
				best = s
			} else {
				return true, false, 0 // partial overlap: wait for drain
			}
		}
	}
	if best != nil {
		shift := (e.addr - best.addr) * 8
		v := best.valB >> shift
		if e.ai.inst.Width < 8 {
			v &= 1<<(uint(e.ai.inst.Width)*8) - 1
		}
		return false, true, v
	}
	return false, false, 0
}

// loadAccess reads the L1, modeling hit latency and miss fills.
func (m *Machine) loadAccess(e *robEntry) (uint64, int64) {
	w := e.ai.inst.Width
	if v, ok := m.l1.ReadUint(e.addr, w); ok {
		done := m.cycle + int64(m.cfg.L1Hit)
		// A line installed functionally but still timing-wise in flight
		// delays dependent loads until the fill completes.
		line := m.l1.LineAddr(e.addr)
		if ready, pending := m.fills[line]; pending {
			if ready > done {
				done = ready
			} else {
				delete(m.fills, line)
			}
		}
		return m.extend(v, e.ai.inst), done
	}
	line := m.l1.LineAddr(e.addr)
	ready, pending := m.fills[line]
	if !pending {
		ready = m.cycle + int64(m.cfg.MissLatency)
		m.fills[line] = ready
	}
	// Model the fill: data becomes architecturally visible now (functional
	// correctness), timing charged until the fill completes.
	m.fill(line)
	v, _ := m.l1.ReadUint(e.addr, w)
	if ready <= m.cycle {
		ready = m.cycle + int64(m.cfg.L1Hit)
		delete(m.fills, line)
	}
	return m.extend(v, e.ai.inst), ready
}

func (m *Machine) extend(v uint64, in tir.Inst) uint64 {
	if in.Width == 8 {
		return v
	}
	v &= 1<<(uint(in.Width)*8) - 1
	if in.Signed {
		shift := uint(64 - 8*in.Width)
		v = uint64(int64(v<<shift) >> shift)
	}
	return v
}

// fetch renames up to FetchWidth instructions along the predicted path.
func (m *Machine) fetch() {
	if m.halted || m.cycle < m.fetchStall {
		return
	}
	for n := 0; n < m.cfg.FetchWidth; n++ {
		if m.count >= m.cfg.ROBSize || m.pc >= len(m.code) {
			return
		}
		ai := m.code[m.pc]
		idx := m.tail
		e := &m.rob[idx]
		*e = robEntry{valid: true, seq: m.nextSeq, pc: m.pc, ai: ai, state: rsWaiting, srcA: -1, srcB: -1}
		m.nextSeq++

		capture := func(r tir.Reg) (int, uint64) {
			if p, ok := m.regmap[r]; ok {
				if m.rob[p].state == rsDone {
					return -1, m.rob[p].val
				}
				return p, 0
			}
			return -1, m.regs[r]
		}
		switch ai.kind {
		case aTIR:
			in := ai.inst
			if in.Op.UsesA() {
				e.srcA, e.valA = capture(in.A)
			}
			if in.Op.UsesB() {
				e.srcB, e.valB = capture(in.B)
			}
			e.isLoad = in.Op == tir.Load
			e.isStore = in.Op == tir.Store
			if in.Op.WritesDst() {
				m.regmap[in.Dst] = idx
			}
			m.pc++
		case aJmp:
			e.state = rsDone
			m.pc = ai.target
		case aBr:
			e.srcA, e.valA = capture(ai.inst.A)
			e.isBranch = true
			e.ghrCkpt = m.ghr
			e.predTaken, e.predIdx = m.predict(m.pc)
			if e.predTaken {
				m.pc = ai.target
			} else {
				m.pc++
			}
		case aRet:
			e.state = rsDone
			m.halted = true
		}
		m.tail = m.next(m.tail)
		m.count++
		if ai.kind == aRet {
			return
		}
		if ai.kind == aBr && e.predTaken {
			return // taken-branch fetch break
		}
	}
}
