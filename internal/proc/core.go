package proc

import (
	"fmt"
	"math"

	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
	"trips/internal/obs"
)

// horizonNever marks "no scheduled event" in NextEventCycle results (the
// shared sentinel; see micronet.MinHorizon for the fold helpers).
const horizonNever = micronet.HorizonNever

// DefaultMaxCycles is the cycle limit of a run whose configuration leaves
// MaxCycles (or LagConfig.Limit) at zero.
const DefaultMaxCycles int64 = 200_000_000

// haltAddr is the conventional halt target: a block whose committed exit
// branches to address 0 halts its thread.
const haltAddr = 0

// Config parameterizes one TRIPS core.
type Config struct {
	Program *Program
	Mem     MemBackend
	// Entries holds one entry address per SMT thread (1, 2 or 4 threads).
	Entries []uint64
	// TrackCritPath enables Fields-style critical-path accounting
	// (paper Section 5.4).
	TrackCritPath bool
	// OPNChannels is the number of operand-network channels per link
	// (1 in the prototype; 2 is the paper's proposed bandwidth extension).
	OPNChannels int
	// ConservativeLoads disables the dependence predictor's aggressive
	// issue: every load waits for all prior stores (ablation).
	ConservativeLoads bool
	// SlowOPNRouter adds one cycle of router latency to every OPN
	// delivery, the sensitivity the paper's timing analysis worries about
	// (Section 5.3: "increasing the latency in cycles would have a
	// significant effect on instruction throughput").
	SlowOPNRouter bool
	// MaxCycles bounds the simulation (0 = DefaultMaxCycles).
	MaxCycles int64
	// TraceCommits logs every commit and flush (debugging aid).
	TraceCommits bool
	// ExternalMemTick suppresses the core's own memory-system tick so a
	// chip-level loop that shares one backend between two cores can tick
	// it exactly once per cycle.
	ExternalMemTick bool
	// RecordTimeline captures per-block protocol phase times (dispatch,
	// completion, commit command, commit acknowledgment) — the data behind
	// paper Figure 5b.
	RecordTimeline bool
	// Reference selects the naive oracle instead of the production stepping:
	// Step ticks every tile every cycle (no active gate, no doze) and Run
	// visits every cycle (no warp). Production skips only ticks and cycles
	// that are provably no-ops, so the two are bit-identical by construction;
	// the reference exists solely so tests can prove it on every workload.
	Reference bool
	// Trace, when non-nil, records block-protocol and operand-network
	// events into the ring. Tracing never mutates simulated state, so a
	// traced run's cycle counts are bit-identical to an untraced one.
	Trace *obs.Tracer
	// Metrics, when non-nil, samples core occupancy series (OPN occupancy,
	// LSQ depth, MSHR outstanding, in-flight blocks) once per sample
	// interval of stepped cycles.
	Metrics *obs.Sampler
}

// BlockTime is one block's protocol timeline (Figure 5b's phases).
type BlockTime struct {
	Seq                                  uint64
	Addr                                 uint64
	Dispatch, Complete, CommitCmd, Acked int64
}

// NumTiles is the tile count per core — the GT plus the IT, RT, ET and DT
// arrays (30 on the prototype) — and the denominator of the per-cycle tile
// tick/skip accounting identity.
const NumTiles = 1 + isa.NumITs + isa.NumRTs + isa.NumETs + isa.NumDTs

// Core is one TRIPS processor core.
type Core struct {
	cfg     Config
	program *Program
	mem     MemBackend

	gt  *gtTile
	its [isa.NumITs]*itTile
	rts [isa.NumRTs]*rtTile
	ets [isa.NumETs]*etTile
	dts [isa.NumDTs]*dtTile

	opns  []*micronet.Mesh[*opnMsg]
	gcn   *micronet.Broadcast[gcnMsg]
	gsnRT *micronet.Chain[gsnMsg]
	gsnDT *micronet.Chain[gsnMsg]
	gsnIT *micronet.Chain[gsnMsg]
	dsn   *micronet.BiChain[dsnMsg]

	gcnQueue micronet.Queue[gcnMsg]

	cycle int64
	// wheel is the delta-cycle event wheel behind scheduleEv: slot
	// cycle&wheelMask holds the events for that cycle. Every dispatch/refill
	// delay is far below wheelSize, so schedOverflow is a never-hit safety
	// net. Wheel slices are reused across revolutions, so steady-state
	// scheduling does not allocate.
	wheel         [wheelSize][]schedEvent
	schedOverflow map[int64][]schedEvent
	// dispatches holds what each in-flight GDN dispatch distributes, indexed
	// by seq%NumSlots; wheel events name their payload by block seq alone.
	dispatches [NumSlots]dispatchRec
	// slowOPN parks the messages behind evSlowOPN events (SlowOPNRouter
	// ablation), each delivered at its destination: all fire the cycle after
	// they were parked, then the list resets.
	slowOPN []*opnMsg
	// flushes parks the per-frame sequence numbers of flush commands between
	// issue and the GCN wave's last delivery; the command carries the index.
	flushes []flushRec

	// msgFree pools operand-network messages: the OPN moves one message per
	// dependent instruction pair, making opnMsg the hottest allocation in
	// the simulator. Messages are recycled at their final consumer.
	msgFree []*opnMsg

	// Store-arrival critical-path events per frame (tracked at DT0's view).
	storeEvs [NumSlots]critpath.Event
	storeSeq [NumSlots]uint64

	// Stats.
	CommittedBlocks uint64
	CommittedInsts  uint64
	FlushedBlocks   uint64
	// Warps counts clock-warp jumps; WarpedCycles the dead cycles skipped.
	Warps        uint64
	WarpedCycles int64
	// Per-tile stepping telemetry: across the SteppedCycles cycles this core
	// actually stepped (warped cycles excluded), TileTicks counts tile ticks
	// executed and TileSkips the tile ticks the gating elided (idle or dozing
	// tiles), with TileTicks+TileSkips == NumTiles*SteppedCycles. Host-side
	// observability only — deterministic for a given stepping discipline but
	// different across disciplines, so never part of simulated-state
	// comparisons and never serialized into checkpoints.
	TileTicks     uint64
	TileSkips     uint64
	SteppedCycles int64
	// eventDriven caches !Reference: tiles may doze.
	eventDriven bool
	nonNopCount map[uint64]uint64 // block addr -> useful instruction count

	// Timeline holds per-block protocol phases when RecordTimeline is set.
	Timeline  []BlockTime
	timelineI map[uint64]int // seq -> Timeline index

	// trace and metrics are nil when observability is off; every hot-path
	// hook is a single pointer compare.
	trace   *obs.Tracer
	metrics *obs.Sampler

	// Checkpoint hook: ckptFn fires once at the first block-commit cycle
	// boundary past ckptAt, then disarms. Nil when no checkpoint is armed.
	ckptAt int64
	ckptFn func(cycle int64) error
	// Fault injector forwarded to LagConfig.DeadlinePad by
	// RunLagCheckpointed. Test/debug only.
	lagDeadlinePad int64
}

// NewCore builds a core over the given configuration.
func NewCore(cfg Config) (*Core, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("proc: config needs a program")
	}
	if cfg.Mem == nil {
		return nil, fmt.Errorf("proc: config needs a memory backend")
	}
	if len(cfg.Entries) == 0 {
		cfg.Entries = []uint64{cfg.Program.Entry}
	}
	if n := len(cfg.Entries); n != 1 && n != 2 && n != 4 {
		return nil, fmt.Errorf("proc: %d threads unsupported (1, 2 or 4)", n)
	}
	if cfg.OPNChannels == 0 {
		cfg.OPNChannels = 1
	}
	if cfg.TrackCritPath && cfg.MaxCycles >= math.MaxUint32 {
		return nil, fmt.Errorf("proc: critical-path tracking counts cycles in 32 bits; MaxCycles %d is beyond them", cfg.MaxCycles)
	}
	c := &Core{
		cfg:         cfg,
		program:     cfg.Program,
		mem:         cfg.Mem,
		eventDriven: !cfg.Reference,
		nonNopCount: make(map[uint64]uint64),
		timelineI:   make(map[uint64]int),
		trace:       cfg.Trace,
		metrics:     cfg.Metrics,
	}
	for i := 0; i < cfg.OPNChannels; i++ {
		c.opns = append(c.opns, micronet.NewMesh[*opnMsg](fmt.Sprintf("opn%d", i), 5, 5))
		if i < 2 {
			c.opns[i].Attach(cfg.Trace, obs.NetOPN0+uint8(i))
		}
	}
	c.gcn = micronet.NewBroadcast[gcnMsg]("gcn", 5, 5)
	c.gsnRT = micronet.NewChain[gsnMsg]("gsn-rt", isa.NumRTs+1)
	c.gsnDT = micronet.NewChain[gsnMsg]("gsn-dt", isa.NumDTs+1)
	c.gsnIT = micronet.NewChain[gsnMsg]("gsn-it", isa.NumITs+1)
	c.dsn = micronet.NewBiChain[dsnMsg]("dsn", isa.NumDTs)

	c.gt = newGT(c)
	for i := range c.its {
		c.its[i] = newIT(c, i)
		c.its[i].port = c.mem.Port(fmt.Sprintf("it%d", i))
	}
	for i := range c.rts {
		c.rts[i] = newRT(c, i)
	}
	for i := range c.ets {
		c.ets[i] = newET(c, i)
	}
	for i := range c.dts {
		c.dts[i] = newDT(c, i)
		c.dts[i].port = c.mem.Port(fmt.Sprintf("dt%d", i))
		if cfg.ConservativeLoads {
			// Saturate the dependence predictor: every load stalls.
			for a := uint64(0); a < 1024; a++ {
				c.dts[i].dep.Mispredicted(a << 3)
			}
			c.dts[i].dep.ClearInterval = 1 << 60
		}
	}
	for a, b := range c.program.blocks {
		n := uint64(0)
		for i := range b.Insts {
			if b.Insts[i].Op != isa.NOP {
				n++
			}
		}
		c.nonNopCount[a] = n
	}
	if sm := cfg.Metrics; sm != nil {
		c.registerMetrics(sm)
	}
	for t, entry := range cfg.Entries {
		c.gt.startThread(t, entry)
	}
	return c, nil
}

// registerMetrics wires the core's occupancy series into a sampler. The
// closures read plain core state, so they must be sampled from the core's
// own stepping goroutine (Step calls Sample).
func (c *Core) registerMetrics(sm *obs.Sampler) {
	for i, m := range c.opns {
		m := m
		sm.Register(fmt.Sprintf("opn%d.occupancy", i), func() int64 { return int64(m.Occupancy()) })
		sm.Register(fmt.Sprintf("opn%d.links_busy", i), func() int64 { return int64(m.LinksBusy()) })
	}
	sm.Register("gsn.busy", func() int64 {
		return int64(c.gsnRT.Busy() + c.gsnDT.Busy() + c.gsnIT.Busy())
	})
	sm.Register("gcn.busy", func() int64 { return int64(c.gcn.Busy()) })
	sm.Register("lsq.occupancy", func() int64 {
		n := 0
		for _, d := range c.dts {
			for _, q := range d.lsqs {
				n += q.Len()
			}
		}
		return int64(n)
	})
	sm.Register("mshr.outstanding", func() int64 {
		n := 0
		for _, d := range c.dts {
			n += d.mshr.Outstanding()
		}
		return int64(n)
	})
	sm.Register("blocks.inflight", func() int64 {
		n := 0
		for s := range c.gt.slots {
			if c.gt.slots[s].valid {
				n++
			}
		}
		return int64(n)
	})
	sm.Register("warped.cycles", func() int64 { return c.WarpedCycles })
}

// traceBlock emits one block-protocol lifecycle event (nil-gated; callers
// on the hot path should guard with c.trace != nil themselves when they
// need to avoid computing arguments).
func (c *Core) traceBlock(kind obs.Kind, slot int, seq, addr uint64, cat critpath.Cat) {
	if c.trace == nil {
		return
	}
	var tag uint8
	if c.cfg.TrackCritPath {
		tag = uint8(cat) + 1
	}
	c.trace.Emit(obs.Event{
		Cycle: c.cycle, Seq: seq, Addr: addr,
		Kind: kind, Cat: tag, Slot: int16(slot),
	})
}

func (c *Core) activeThreads() int { return len(c.cfg.Entries) }

// Cycle returns the current cycle number.
func (c *Core) Cycle() int64 { return c.cycle }

// newEvent derives a critical-path event from its last-arriving dependency,
// or returns the zero event when tracking is off.
func (c *Core) newEvent(cycle int64, parent critpath.Event, split critpath.Split, rem critpath.Cat) critpath.Event {
	if !c.cfg.TrackCritPath {
		return critpath.Event{}
	}
	return critpath.New(cycle, parent, split, rem)
}

// The event wheel replaces a map[int64][]func() of closures: GDN/GRN
// delivery delays are all bounded by a couple dozen cycles, so a
// power-of-two ring indexed by cycle&wheelMask covers every real schedule
// without hashing or per-event closure allocation.
const (
	wheelSize = 64
	wheelMask = wheelSize - 1
)

// evKind discriminates wheel events.
type evKind uint8

const (
	evBodyInst   evKind = iota // GDN body beat -> ET reservation station
	evHeaderBeat               // GDN header beat -> RT read/write queues
	evStoreMask                // store mask arrival at a DT
	evRefill                   // GRN refill command at an IT
	evSlowOPN                  // delayed OPN delivery (SlowOPNRouter ablation)
)

// schedEvent is one future delivery: 16 pointer-free bytes naming the tile
// it lands on and, by block seq, the dispatch whose payload it carries.
type schedEvent struct {
	seq  uint64 // block seq; evRefill: the block address; evSlowOPN: index into slowOPN
	kind evKind
	tile uint8 // index of the ET, RT, DT or IT the event lands on
	slot uint8
	idx  uint8 // body: instruction index; header: beat number
}

// dispatchRec is one block's GDN payload: the decoded header and body chunks
// the IT banks held when the dispatch command left the GT (decoded chunks are
// never mutated, so a later eviction or refill cannot change them under the
// beats in flight) and the dispatch's critical-path event. The GDN serializes
// dispatches dispatchBeats cycles apart and every beat lands within
// maxDispatchDelay cycles, so record seq%NumSlots outlives all of its events,
// flushed ones included.
type dispatchRec struct {
	seq    uint64
	hdr    *isa.HeaderInfo
	bodies [isa.NumITs - 1]*[isa.BodyChunkInsts]isa.Inst
	ev     critpath.Event
}

// maxDispatchDelay is the latest beat: the last chunk's IT, beat 7, column 4.
const maxDispatchDelay = gdnCmdToIT + (isa.NumITs - 1) + itBankCycles + (dispatchBeats - 1) + 4 + 1

const (
	_ = uint(wheelSize - 1 - maxDispatchDelay)          // beats never reach the overflow map
	_ = uint(dispatchBeats*NumSlots - maxDispatchDelay) // nor outlive their dispatchRec
)

type flushRec struct {
	live bool
	seqs [NumSlots]uint64
}

// scheduleEv registers an event to run at the start of the given cycle.
func (c *Core) scheduleEv(cycle int64, e schedEvent) {
	if cycle <= c.cycle {
		cycle = c.cycle + 1
	}
	if cycle-c.cycle >= wheelSize {
		if c.schedOverflow == nil {
			c.schedOverflow = make(map[int64][]schedEvent)
		}
		c.schedOverflow[cycle] = append(c.schedOverflow[cycle], e)
		return
	}
	c.wheel[cycle&wheelMask] = append(c.wheel[cycle&wheelMask], e)
}

// runEvents fires the events scheduled for this cycle, in schedule order.
// Handlers never schedule for the current cycle (scheduleEv clamps to
// cycle+1) and never reach delta wheelSize, so the slot cannot grow while
// it runs.
func (c *Core) runEvents(now int64) {
	slot := &c.wheel[now&wheelMask]
	if evs := *slot; len(evs) > 0 {
		*slot = evs[:0]
		for _, e := range evs {
			c.runEvent(now, e)
		}
		c.slowOPN = c.slowOPN[:0]
	}
	if len(c.schedOverflow) > 0 {
		if evs, ok := c.schedOverflow[now]; ok {
			delete(c.schedOverflow, now)
			for _, e := range evs {
				c.runEvent(now, e)
			}
		}
	}
}

func (c *Core) runEvent(now int64, e schedEvent) {
	switch e.kind {
	case evRefill:
		it := c.its[e.tile]
		it.active = true
		it.onRefill(e.seq)
		return
	case evSlowOPN:
		c.routeDelivered(now, c.slowOPN[e.seq].dst, c.slowOPN[e.seq])
		return
	}
	d := &c.dispatches[e.seq%NumSlots]
	if d.seq != e.seq {
		panic(fmt.Sprintf("proc: dispatch record of block %d overwritten by %d with beats in flight", e.seq, d.seq))
	}
	slot := int(e.slot)
	ev := c.newEvent(now, d.ev, critpath.Split{}, critpath.CatIFetch)
	switch e.kind {
	case evBodyInst:
		idx := int(e.idx)
		c.ets[e.tile].deliverInst(slot, e.seq, idx, &d.bodies[idx/isa.BodyChunkInsts][idx%isa.BodyChunkInsts], ev)
	case evHeaderBeat:
		j := int(e.idx)*4 + int(e.tile)
		c.rts[e.tile].deliverHeaderBeat(slot, e.seq, int(e.idx), d.hdr.Reads[j], d.hdr.Writes[j], ev)
	case evStoreMask:
		dt := c.dts[e.tile]
		dt.wake()
		if dt.slotSeq[slot] == e.seq {
			dt.storeMask[slot] = d.hdr.StoreMask
			dt.maskKnown[slot] = true
			if dt.evs != nil {
				dt.evs[slot].bind = ev
			}
			if c.trace != nil {
				c.trace.Emit(obs.Event{
					Cycle: now, Seq: e.seq, Arg: uint64(dt.id),
					Kind: obs.KindStoreMask, Slot: int16(slot),
				})
			}
		}
	}
}

// newOPNMsg takes a message from the pool (or allocates one).
func (c *Core) newOPNMsg() *opnMsg {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &opnMsg{}
}

// freeOPNMsg recycles a message whose final consumer has fully read it. It
// is not cleared: a message holds no pointers and every taker of newOPNMsg
// overwrites the whole struct. Messages dropped on staleness/flush paths are
// deliberately NOT freed: a flushed load's message can still be referenced
// from an MSHR waiter list, and recycling it would hand that waiter another
// block's message; leaking the rare flushed message to the collector is
// cheaper than proving every such path free of aliases.
func (c *Core) freeOPNMsg(m *opnMsg) { c.msgFree = append(c.msgFree, m) }

// opnChannel selects the channel for a message (bandwidth ablation).
// Memory operations hash by cache line only, so accesses that could
// conflict (same line) stay ordered on one channel; operand deliveries
// spread by consumer.
func (c *Core) opnChannel(msg *opnMsg) *micronet.Mesh[*opnMsg] {
	if len(c.opns) == 1 {
		return c.opns[0]
	}
	var h uint64
	if msg.kind == opnLoadReq || msg.kind == opnStoreReq {
		h = msg.addr >> 6
	} else {
		h = uint64(msg.slot) + uint64(msg.target.Index)
	}
	return c.opns[h%uint64(len(c.opns))]
}

// injectOPN offers a message to the operand network.
func (c *Core) injectOPN(at micronet.Coord, msg *opnMsg) bool {
	return c.opnChannel(msg).Inject(at, msg)
}

// deliverOPN pops the next message delivered to a coordinate (GT pull).
func (c *Core) deliverOPN(at micronet.Coord) (*opnMsg, bool) {
	for _, m := range c.opns {
		if msg, ok := m.Deliver(at); ok {
			m.Pop(at)
			return msg, true
		}
	}
	return nil, false
}

// issueGCN queues a control command for broadcast (one launches per cycle;
// the queue is how commit commands pipeline, paper Section 4.4).
func (c *Core) issueGCN(msg gcnMsg) { c.gcnQueue.Push(msg) }

// parkFlush stores a flush command's per-frame sequence numbers and returns
// their handle. A block is flushed at most once, so equal seqs mean the same
// command: a checkpoint restore decodes it once per tree position and gets
// the one record back.
func (c *Core) parkFlush(seqs [NumSlots]uint64) uint64 {
	free := len(c.flushes)
	for i, f := range c.flushes {
		if f.live && f.seqs == seqs {
			return uint64(i)
		} else if !f.live {
			free = i
		}
	}
	if free == len(c.flushes) {
		c.flushes = append(c.flushes, flushRec{})
	}
	c.flushes[free] = flushRec{live: true, seqs: seqs}
	return uint64(free)
}

// issueGRN starts a distributed I-cache refill: the refill address reaches
// IT k after 1+k cycles (paper Section 4.1).
func (c *Core) issueGRN(addr uint64) {
	for k := range c.its {
		c.scheduleEv(c.cycle+1+int64(k), schedEvent{kind: evRefill, tile: uint8(k), seq: addr})
	}
}

// noteStoreEv tracks the last-arriving store event per frame, from DT0's
// DSN-complete view, for completion-phase attribution.
func (c *Core) noteStoreEv(slot int, seq uint64, ev critpath.Event) {
	if c.storeSeq[slot] != seq {
		c.storeEvs[slot] = critpath.Event{}
		c.storeSeq[slot] = seq
	}
	c.storeEvs[slot] = critpath.Latest(c.storeEvs[slot], ev)
}

func (c *Core) storeEv(slot int, seq uint64) critpath.Event {
	if c.storeSeq[slot] != seq {
		return critpath.Event{}
	}
	return c.storeEvs[slot]
}

// onBlockRetired records commit statistics.
func (c *Core) onBlockRetired(addr uint64) {
	c.CommittedBlocks++
	c.CommittedInsts += c.nonNopCount[addr]
}

// markTimeline records one protocol phase for a block.
func (c *Core) markTimeline(seq, addr uint64, phase string) {
	if !c.cfg.RecordTimeline {
		return
	}
	i, ok := c.timelineI[seq]
	if !ok {
		i = len(c.Timeline)
		c.Timeline = append(c.Timeline, BlockTime{Seq: seq, Addr: addr, Dispatch: -1, Complete: -1, CommitCmd: -1, Acked: -1})
		c.timelineI[seq] = i
	}
	bt := &c.Timeline[i]
	switch phase {
	case "dispatch":
		bt.Dispatch = c.cycle
	case "complete":
		bt.Complete = c.cycle
	case "commit":
		bt.CommitCmd = c.cycle
	case "acked":
		bt.Acked = c.cycle
	}
}

// scheduleDispatch plays out the pipelined GDN instruction distribution for
// one block (paper Section 4.1): the GT issues eight beat commands on
// consecutive cycles; ITs read their banks and stream four instructions per
// cycle eastward across their rows.
func (c *Core) scheduleDispatch(now int64, slot int, seq uint64, thread int, addr uint64, hdr *isa.HeaderInfo, dispEv critpath.Event) {
	// The instruction payloads come from the IT banks (refilled over the
	// GRN), not from the program map: the ITs are the architects of what
	// actually executes.
	rec := &c.dispatches[seq%NumSlots]
	*rec = dispatchRec{seq: seq, hdr: hdr, ev: dispEv}
	for chunk := 0; chunk < hdr.BodyChunks; chunk++ {
		insts, err := c.its[chunk+1].bodyOf(addr)
		if err != nil {
			panic(fmt.Sprintf("proc: dispatch without chunk %d: %v", chunk, err))
		}
		rec.bodies[chunk] = insts
	}

	// Control-state binding happens as the dispatch command leaves the GT;
	// per-payload timing below models the pipelined distribution.
	for _, e := range c.ets {
		e.bindSlot(slot, seq, thread)
	}
	for _, r := range c.rts {
		r.bindSlot(slot, seq, thread)
	}
	for _, d := range c.dts {
		d.bindSlot(slot, seq, thread, 0)
		d.maskKnown[slot] = false
	}
	ev := schedEvent{seq: seq, slot: uint8(slot)}
	// The store mask reaches each DT a few cycles into dispatch.
	ev.kind = evStoreMask
	for i := range c.dts {
		ev.tile = uint8(i)
		c.scheduleEv(now+3+int64(i), ev)
	}

	// Header beats: IT0 feeds row 0. Beat b carries read and write queue
	// entries with index b*4+rt for each RT (column rt+1).
	ev.kind = evHeaderBeat
	it0 := gdnCmdToIT + itBankCycles
	for b := 0; b < dispatchBeats; b++ {
		for rt := 0; rt < isa.NumRTs; rt++ {
			ev.tile, ev.idx = uint8(rt), uint8(b)
			c.scheduleEv(now+int64(it0+b+(rt+1)+1), ev)
		}
	}

	// Body beats: IT k+1 feeds ET row k with chunk k. Beat b carries chunk
	// positions b*4..b*4+3, one per column.
	ev.kind = evBodyInst
	for chunk := 0; chunk < hdr.BodyChunks; chunk++ {
		itk := gdnCmdToIT + (chunk + 1) + itBankCycles
		for b := 0; b < dispatchBeats; b++ {
			for col := 0; col < 4; col++ {
				idx := chunk*isa.BodyChunkInsts + b*4 + col
				if idx >= hdr.NumInsts {
					continue
				}
				ev.tile, ev.idx = uint8(isa.ETOf(idx)), uint8(idx)
				c.scheduleEv(now+int64(itk+b+(col+1)+1), ev)
			}
		}
	}
}

// Step advances the core (and its memory system) by one cycle.
//
// The fast-path discipline: a tile ticks only when it has registered work
// (its active flag, set by every delivery/wake path and cleared by the tile
// itself once provably idle) or when its status chain carries traffic the
// tile must forward. Skipped ticks are exactly the ticks that would have
// been no-ops under the original tick-everything loop, so simulated cycle
// counts and all stats are bit-identical; cfg.Reference restores the full
// scan as the oracle the parity tests compare against.
func (c *Core) Step() {
	now := c.cycle
	full := c.cfg.Reference
	// Scheduled GDN/GRN deliveries land first.
	c.runEvents(now)
	// Route the operand network, then hand deliveries to the tiles.
	for _, m := range c.opns {
		m.Tick()
	}
	c.pumpOPNDeliveries(now)
	// Control network wave and command delivery.
	c.gcn.Tick()
	c.pumpGCNDeliveries(now)
	c.dsn.Tick()
	// A tile must tick while its chain carries traffic: chain clients
	// forward and consume chain messages inside their own ticks.
	itBusy := full || !c.gsnIT.Quiet()
	rtBusy := full || !c.gsnRT.Quiet()
	dtBusy := full || !c.gsnDT.Quiet() || !c.dsn.Quiet() || c.dsn.Pending() > 0
	// Tiles. Under event-driven stepping (the per-tile clock-domain split) a
	// tile whose remaining work is provably deadline-held dozes — it skips
	// ticks until its wake cycle or an incoming delivery, whichever is first.
	// A skipped tick is exactly a tick that would have been a no-op, so
	// simulated state stays bit-identical to the tick-active-every-cycle
	// discipline; TileTicks/TileSkips record the split for telemetry.
	ed := c.eventDriven
	if !ed || c.gt.wakeAt <= now || c.gtDeliverable() {
		c.gt.tick(now)
		c.TileTicks++
	} else {
		c.TileSkips++
	}
	for _, it := range c.its {
		if it.active || itBusy {
			it.tick(now)
			c.TileTicks++
		} else {
			c.TileSkips++
		}
	}
	for _, r := range c.rts {
		if r.active || rtBusy {
			r.tick(now)
			c.TileTicks++
		} else {
			c.TileSkips++
		}
	}
	for _, e := range c.ets {
		switch {
		case full:
			e.tick(now)
			c.TileTicks++
		case !e.active || (ed && e.wakeAt > now):
			c.TileSkips++
		default:
			e.tick(now)
			c.TileTicks++
		}
	}
	for _, d := range c.dts {
		switch {
		case dtBusy:
			d.tick(now)
			c.TileTicks++
		case !d.active || (ed && d.wakeAt > now):
			c.TileSkips++
		default:
			d.tick(now)
			c.TileTicks++
		}
	}
	// Launch at most one queued GCN command per cycle.
	if !c.gcnQueue.Empty() && c.gcn.CanInject() {
		if c.gcn.Inject(c.gcnQueue.Front()) {
			c.gcnQueue.Pop()
		}
	}
	// Advance all transports.
	for _, m := range c.opns {
		m.Propagate()
	}
	c.gcn.Propagate()
	c.gsnRT.Propagate()
	c.gsnDT.Propagate()
	c.gsnIT.Propagate()
	c.dsn.Propagate()
	if !c.cfg.ExternalMemTick {
		c.mem.Tick()
	}
	if sm := c.metrics; sm != nil {
		sm.Sample(now)
	}
	c.SteppedCycles++
	c.cycle++
}

// gtDeliverable reports whether a message is waiting for the GT right now:
// a status message at the head of any GSN chain, or an operand-network
// delivery addressed to the GT's node. A dozing GT must tick on any of
// these — its doze horizon (warpIdle) is only valid while no delivery can
// reach it, exactly the contract the whole-core warp gate establishes
// globally and this check establishes per-cycle.
func (c *Core) gtDeliverable() bool {
	for _, ch := range [...]*micronet.Chain[gsnMsg]{c.gsnRT, c.gsnDT, c.gsnIT} {
		if ch.Quiet() {
			continue // Recv copies the message out even when there is none
		}
		if _, ok := ch.Recv(0); ok {
			return true
		}
	}
	for _, m := range c.opns {
		if m.PendingDeliveries() == 0 {
			continue
		}
		if _, ok := m.Deliver(gtCoord()); ok {
			return true
		}
	}
	return false
}

// pumpOPNDeliveries routes delivered operand-network messages into ET and
// RT state (the GT and DTs pull from their own queues).
func (c *Core) pumpOPNDeliveries(now int64) {
	for _, m := range c.opns {
		if m.PendingDeliveries() == 0 {
			continue
		}
		for row := 0; row < 5; row++ {
			for col := 0; col < 5; col++ {
				at := micronet.Coord{Row: row, Col: col}
				if at == gtCoord() {
					continue // the GT pulls in its own tick
				}
				for {
					msg, ok := m.Deliver(at)
					if !ok {
						break
					}
					m.Pop(at)
					if c.cfg.SlowOPNRouter {
						c.scheduleEv(now+1, schedEvent{kind: evSlowOPN, seq: uint64(len(c.slowOPN))})
						c.slowOPN = append(c.slowOPN, msg)
						continue
					}
					c.routeDelivered(now, at, msg)
				}
			}
		}
	}
}

func (c *Core) routeDelivered(now int64, at micronet.Coord, msg *opnMsg) {
	switch {
	case at.Col == 0:
		// DT column: memory requests queue for the one-per-cycle LSQ port.
		c.dts[at.Row-1].enqueue(msg)
	case at.Row == 0:
		// RT row: register write values (and read-to-write copies).
		if msg.kind != opnOperand || !msg.target.IsWrite() {
			panic("proc: RT received non-write OPN message")
		}
		ev := c.newEvent(now, msg.ev, critpath.Split{
			critpath.CatOPNHop:        int64(msg.hops),
			critpath.CatOPNContention: int64(msg.waits),
		}, critpath.CatOPNHop)
		// Write entry j lives at local queue slot j/4 of RT j%4.
		c.rts[at.Col-1].deliverWrite(now, int(msg.slot), msg.seq, isa.RTSlotOf(msg.target.Index), msg.val, ev)
		if c.trace != nil {
			c.traceOperand(now, at, msg)
		}
		c.freeOPNMsg(msg)
	default:
		// ET array: operand deliveries.
		if msg.kind != opnOperand {
			panic("proc: ET received non-operand OPN message")
		}
		ev := c.newEvent(now, msg.ev, critpath.Split{
			critpath.CatOPNHop:        int64(msg.hops),
			critpath.CatOPNContention: int64(msg.waits),
		}, critpath.CatOPNHop)
		et := (at.Row-1)*4 + (at.Col - 1)
		c.ets[et].deliverOperand(int(msg.slot), msg.seq, msg.target, msg.val, ev)
		if c.trace != nil {
			c.traceOperand(now, at, msg)
		}
		c.freeOPNMsg(msg)
	}
}

// traceOperand records one operand delivery with its transport cost (hops
// and contention waits packed into Arg).
func (c *Core) traceOperand(now int64, at micronet.Coord, msg *opnMsg) {
	var tag uint8
	if c.cfg.TrackCritPath {
		tag = uint8(critpath.CatOPNHop) + 1
	}
	c.trace.Emit(obs.Event{
		Cycle: now, Seq: msg.seq, Addr: obs.PackCoord(at.Row, at.Col),
		Arg:  obs.PackPair(int(msg.hops), int(msg.waits)),
		Kind: obs.KindOperand, Cat: tag, Slot: int16(msg.slot),
	})
}

// pumpGCNDeliveries hands arriving control commands to every tile.
func (c *Core) pumpGCNDeliveries(now int64) {
	if c.gcn.Pending() == 0 {
		return
	}
	for row := 0; row < 5; row++ {
		for col := 0; col < 5; col++ {
			at := micronet.Coord{Row: row, Col: col}
			for {
				cmd, ok := c.gcn.Deliver(at)
				if !ok {
					break
				}
				c.gcn.Pop(at)
				c.applyGCN(now, at, cmd)
			}
		}
	}
}

func (c *Core) applyGCN(now int64, at micronet.Coord, cmd gcnMsg) {
	if at == gtCoord() {
		return // the GT issued it
	}
	switch cmd.kind {
	case gcnCommit:
		slot := int(cmd.slot)
		// The frame stays allocated at the GT until the tiles acknowledge
		// this very command, so its commit event is still in place.
		ev := c.gt.slots[slot].commitEv
		switch {
		case at.Row == 0:
			c.rts[at.Col-1].onCommitCommand(now, slot, cmd.seq, ev)
		case at.Col == 0:
			c.dts[at.Row-1].onCommitCommand(now, slot, cmd.seq, ev)
		default:
			et := (at.Row-1)*4 + (at.Col - 1)
			c.ets[et].onCommit(slot, cmd.seq)
		}
	case gcnFlush:
		f := &c.flushes[cmd.seq]
		for s := 0; s < NumSlots; s++ {
			if cmd.mask&(1<<uint(s)) == 0 {
				continue
			}
			switch {
			case at.Row == 0:
				c.rts[at.Col-1].flush(s, f.seqs[s])
			case at.Col == 0:
				c.dts[at.Row-1].flush(s, f.seqs[s])
			default:
				et := (at.Row-1)*4 + (at.Col - 1)
				c.ets[et].flush(s, f.seqs[s])
			}
		}
		// The wave reaches the far corner last (Manhattan distance from the
		// GT, row-major delivery within a cycle): nothing reads the record
		// after this.
		if at == (micronet.Coord{Row: c.gcn.Rows - 1, Col: c.gcn.Cols - 1}) {
			f.live = false
		}
	}
}

// Result summarizes a finished run.
type Result struct {
	Cycles          int64
	CommittedBlocks uint64
	CommittedInsts  uint64
	Flushes         uint64
	Mispredicts     uint64
	Violations      uint64
	IPC             float64
	CritPath        critpath.Report
}

// EventHorizon is optionally implemented by memory backends that can
// fast-forward through idle time. Quiet reports that the backend's next tick
// would do no per-cycle work beyond checking deadline-held completions;
// NextEventCycle returns the earliest backend cycle holding such a
// completion (horizonNever when none is outstanding) — note the backend
// clock runs one ahead of its owner's, so the owner services a backend event
// at cycle R during its own step at cycle R-1; Warp advances the backend
// clock by delta cycles, replaying whatever deterministic state changes the
// skipped ticks would have made (the caller guarantees delta never crosses a
// reported deadline).
//
// Quiet does not mean drained: a backend may report quiet with work in
// flight, as long as every outstanding action resolves at a deadline
// NextEventCycle accounts for — a drain deadline rather than a busy flag.
// nuca.System uses this to let the clock warp across a memory round-trip
// whose only traffic is a single OCN message in transit, whose per-hop
// progress Warp replays exactly.
type EventHorizon interface {
	Quiet() bool
	NextEventCycle() int64
	Warp(delta int64)
}

// Quiescent reports whether the core's next Step would be a pure no-op
// absent scheduled events: every micronet quiet with nothing awaiting
// delivery, no queued GCN command, every tile idle, and the GT in a
// pure-wait state. When the core is quiescent its entire future is a
// function of deadline-held events — the wheel, the GT's fetch-stage
// deadlines, and memory-system completions — so the clock may warp to the
// earliest such horizon (NextEventCycle) without changing any simulated
// outcome.
func (c *Core) Quiescent() bool {
	for _, m := range c.opns {
		if !m.Quiet() {
			return false
		}
	}
	if !c.gcn.Quiet() || c.gcn.Pending() > 0 || !c.gcnQueue.Empty() {
		return false
	}
	if !c.gsnRT.Quiet() || !c.gsnDT.Quiet() || !c.gsnIT.Quiet() {
		return false
	}
	if !c.dsn.Quiet() || c.dsn.Pending() > 0 {
		return false
	}
	for _, it := range c.its {
		if it.active {
			return false
		}
	}
	for _, r := range c.rts {
		if r.active {
			return false
		}
	}
	// A dozing ET or DT counts as quiescent: its remaining work resolves at
	// a wake deadline NextEventCycle folds in, so warping up to that horizon
	// skips only cycles the tile would have skipped anyway. This is how the
	// per-tile clock-domain split generalizes the whole-core warp — a core
	// whose only activity is an ET waiting out a divide or a DT waiting out
	// cache-hit latency can now warp through the wait.
	for _, e := range c.ets {
		if e.active && !(c.eventDriven && e.wakeAt > c.cycle) {
			return false
		}
	}
	for _, d := range c.dts {
		if d.active && !(c.eventDriven && d.wakeAt > c.cycle) {
			return false
		}
	}
	_, ok := c.gt.warpIdle(c.cycle)
	return ok
}

// NextEventCycle returns the earliest future cycle at which a core-internal
// scheduled event fires: the event wheel, its overflow safety map, and the
// GT's deadline-held fetch stages. horizonNever when nothing is scheduled.
// Only meaningful on a Quiescent core (otherwise per-cycle work exists that
// no deadline describes).
func (c *Core) NextEventCycle() int64 {
	h := horizonNever
	for delta := int64(0); delta < wheelSize; delta++ {
		if len(c.wheel[(c.cycle+delta)&wheelMask]) > 0 {
			h = c.cycle + delta
			break
		}
	}
	for cyc := range c.schedOverflow {
		h = micronet.MinHorizon(h, cyc)
	}
	if gh, ok := c.gt.warpIdle(c.cycle); ok {
		h = micronet.MinHorizon(h, gh)
	}
	// Dozing tiles hold deadline-bound work; their wake cycles are events.
	if c.eventDriven {
		for _, e := range c.ets {
			if e.active && e.wakeAt > c.cycle {
				h = micronet.MinHorizon(h, e.wakeAt)
			}
		}
		for _, d := range c.dts {
			if d.active && d.wakeAt > c.cycle {
				h = micronet.MinHorizon(h, d.wakeAt)
			}
		}
	}
	return h
}

// WarpTo jumps the core clock to target. The caller must have established
// quiescence and that no event fires before target: every skipped cycle is
// then exactly a no-op Step, whose only state change — the operand meshes'
// arbitration counters — is replayed here so post-warp arbitration matches
// an unwarped run bit for bit.
func (c *Core) WarpTo(target int64) {
	delta := target - c.cycle
	if delta <= 0 {
		return
	}
	for _, m := range c.opns {
		m.SkipTicks(delta)
	}
	c.cycle = target
}

// drainsIdle reports whether every DT has finished pushing committed
// stores into its bank (the background tail of the commit protocol).
func (c *Core) drainsIdle() bool {
	for _, d := range c.dts {
		if d.drainOrder.Len() > 0 || d.wb.valid || len(d.uncachedSt) > 0 {
			return false
		}
	}
	return true
}

// deadlockWatchdog is how many cycles a core may go without a block commit
// before Run, RunLockstep and RunLagCheckpointed give up on it as
// deadlocked.
const deadlockWatchdog = 200_000

// deadlockErr is the watchdog's error, the same from every run loop.
func deadlockErr(c *Core) error {
	return fmt.Errorf("proc: no commit in %d cycles at cycle %d (%d blocks committed): deadlock", deadlockWatchdog, c.cycle, c.CommittedBlocks)
}

// Run executes until every thread halts and all committed stores have
// drained, returning summary statistics.
func (c *Core) Run() (Result, error) { return c.run(nil) }

// RunLockstep is Run for a core built with ExternalMemTick: the loop ticks
// mem after every Step — the core, then the memory system, in program order,
// the interleave the bounded-lag coordinator is defined to be bit-identical
// to — and visits every cycle.
func (c *Core) RunLockstep(mem MemBackend) (Result, error) { return c.run(mem.Tick) }

// run is the loop behind Run and RunLockstep; memTick, when non-nil, follows
// every Step.
func (c *Core) run(memTick func()) (Result, error) {
	limit := c.cfg.MaxCycles
	if limit == 0 {
		limit = DefaultMaxCycles
	}
	lastCommit := c.cycle
	lastCount := c.CommittedBlocks
	eh, hasEH := c.mem.(EventHorizon)
	warp := hasEH && !c.cfg.Reference && !c.cfg.ExternalMemTick
	for !(c.gt.allRetired() && c.drainsIdle()) {
		// Quiescent() is checked first: it fails O(1) on the first busy
		// operand mesh, which is the common case on a loaded core, while
		// the backend's Quiet() walks its banks and ports.
		if warp && c.Quiescent() && eh.Quiet() {
			h := c.NextEventCycle()
			// The backend clock runs one ahead: its event at cycle R is
			// serviced during our step at R-1.
			h = micronet.FoldBackendHorizon(h, eh.NextEventCycle())
			// Clamp so the limit check and commit watchdog below fire at
			// exactly the cycles an unwarped run would report. The clamps
			// also convert a horizonNever result (deadlock: nothing
			// scheduled anywhere) into a warp straight to the nearer
			// boundary, where the same checks fire as in an unwarped run.
			if h > limit {
				h = limit
			}
			if wl := lastCommit + deadlockWatchdog; h > wl {
				h = wl
			}
			if h > c.cycle {
				c.Warps++
				c.WarpedCycles += h - c.cycle
				eh.Warp(h - c.cycle)
				c.WarpTo(h)
			}
		}
		// The step at cycle == limit still runs (a core retiring during
		// that very cycle succeeds); the error fires only once the clock
		// has passed the limit with blocks outstanding.
		if c.cycle > limit {
			return Result{}, fmt.Errorf("proc: cycle limit %d exceeded (%d blocks committed)", limit, c.CommittedBlocks)
		}
		c.Step()
		if memTick != nil {
			memTick()
		}
		if c.CommittedBlocks != lastCount {
			lastCount = c.CommittedBlocks
			lastCommit = c.cycle
			if c.ckptFn != nil && c.cycle > c.ckptAt {
				fn := c.ckptFn
				c.ckptFn = nil
				if err := fn(c.cycle); err != nil {
					return Result{}, fmt.Errorf("proc: checkpoint at cycle %d: %w", c.cycle, err)
				}
			}
		} else if c.cycle-lastCommit > deadlockWatchdog {
			return Result{}, deadlockErr(c)
		}
	}
	return c.Result(), nil
}

// DebugState summarizes per-tile block state for deadlock diagnosis.
func (c *Core) DebugState() string {
	var b []byte
	app := func(f string, a ...any) { b = fmt.Appendf(b, f, a...) }
	for s := 0; s < NumSlots; s++ {
		bc := &c.gt.slots[s]
		if !bc.valid {
			continue
		}
		app("slot %d seq=%d addr=%#x br=%v w=%v s=%v cs=%v ackR=%v ackS=%v\n",
			s, bc.seq, bc.addr, bc.branchSeen, bc.writesDone, bc.storesDone, bc.commitSent, bc.ackR, bc.ackS)
		for i, d := range c.dts {
			app("  dt%d seen=%x mask=%x known=%v inQ=%d stalled=%d conflict=%d loads=%d stores=%d\n",
				i, d.storeSeen[s], d.storeMask[s], d.maskKnown[s], d.inQ.Len(), len(d.stalled), len(d.conflictLoads), d.Loads, d.Stores)
		}
		for i, e := range c.ets {
			live := 0
			for k := range e.stations[s] {
				st := &e.stations[s][k]
				if st.present && !st.fired {
					live++
				}
			}
			if live > 0 {
				app("  et%d unfired=%d outQ=%d pipe=%d\n", i, live, e.outQ.Len(), len(e.pipe))
			}
		}
	}
	return string(b)
}

// Done reports whether every thread has halted with all blocks retired and
// all committed stores drained.
func (c *Core) Done() bool { return c.gt.allRetired() && c.drainsIdle() }

// SetCheckpointHook arms fn to run once, at the first cycle boundary after
// `at` at which a block committed during the preceding cycle. Committing is
// the quiesce point of the distributed protocols: at that boundary every
// tile's state is a pure function of the architecture, so a checkpoint
// taken there restores bit-identically. fn receives the capture cycle.
func (c *Core) SetCheckpointHook(at int64, fn func(cycle int64) error) {
	c.ckptAt = at
	c.ckptFn = fn
}

// SetLagFaults sets the deadline pad RunLagCheckpointed forwards to the
// coordinator (LagConfig.DeadlinePad): every response deadline overshoots
// by deadlinePad cycles, so the effect gate's horizon assertion fires.
// Never set it outside tests or debugging walkthroughs.
func (c *Core) SetLagFaults(deadlinePad int64) {
	c.lagDeadlinePad = deadlinePad
}

// Result returns the current run statistics: Run's summary, and what
// chip-level loops that step cores manually read instead of calling Run.
func (c *Core) Result() Result {
	res := Result{
		Cycles:          c.cycle,
		CommittedBlocks: c.CommittedBlocks,
		CommittedInsts:  c.CommittedInsts,
		Flushes:         c.gt.Flushes,
		Mispredicts:     c.gt.Mispredicts,
		Violations:      c.gt.ViolationFlushes,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.CommittedInsts) / float64(res.Cycles)
	}
	if c.cfg.TrackCritPath {
		res.CritPath = critpath.Finish(c.gt.lastCommitEv)
	}
	return res
}

// Register reads an architectural register after (or during) a run.
func (c *Core) Register(thread, r int) uint64 {
	return c.rts[r%4].regs[thread][r/4]
}

// SetRegister initializes an architectural register before a run.
func (c *Core) SetRegister(thread, r int, v uint64) {
	c.rts[r%4].regs[thread][r/4] = v
}

// FlushCaches writes all dirty data-cache lines back to memory so final
// results are visible in the backing store, retrying submissions that the
// port backpressures and ticking the memory system until they land. It
// advances the backend the core was built with: on a core whose backend is
// ticked by an owner instead (a chip core), a refused write-back can never
// drain, and the call returns an error rather than retrying for ever.
func (c *Core) FlushCaches() error {
	const maxTicks = 1_000_000
	// Drain the commit pipelines and write buffers into the banks first.
	for i := 0; i < maxTicks; i++ {
		busy := false
		for _, d := range c.dts {
			if d.drainOrder.Len() > 0 || d.wb.valid {
				busy = true
				d.pumpDrain(c.cycle)
				d.pumpFetch()
				d.drainWriteBuffer()
			}
		}
		if !busy {
			break
		}
		c.mem.Tick()
	}
	outstanding := 0
	for _, d := range c.dts {
		dirty := d.bank.DirtyLines()
		for i := range dirty {
			v := &dirty[i]
			req := &MemRequest{Addr: v.Addr, Data: v.Data[:d.bank.LineBytes], IsWrite: true,
				Done: func([]byte) { outstanding-- }}
			outstanding++
			for refused := 0; !d.port.Submit(req); refused++ {
				if refused == maxTicks {
					return fmt.Errorf("proc: FlushCaches: write-back of line %#x refused %d times: ticking the core's backend does not drain its ports (a chip core's memory system is ticked by the chip)", v.Addr, refused)
				}
				c.mem.Tick()
			}
		}
	}
	for i := 0; outstanding > 0 && i < maxTicks; i++ {
		c.mem.Tick()
	}
	if outstanding > 0 {
		return fmt.Errorf("proc: FlushCaches: %d write-backs still in flight after %d backend ticks", outstanding, maxTicks)
	}
	return nil
}
