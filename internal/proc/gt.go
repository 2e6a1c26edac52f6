package proc

import (
	"fmt"

	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/obs"
	"trips/internal/predictor"
)

// blockCtx is the GT's record of one in-flight block (paper Section 3.1:
// "The GT also maintains the state of all eight in-flight blocks").
type blockCtx struct {
	valid  bool
	seq    uint64
	addr   uint64
	thread int
	hdr    *isa.HeaderInfo

	// selfPred is the prediction that selected this block, used for
	// predictor repair when the block is squashed.
	selfPred predictor.Prediction
	// succPred is the prediction this block's fetch made about its own
	// exit, trained at commit.
	succPred      predictor.Prediction
	predictedNext uint64

	// Output tracking (phase one of the commit protocol, Section 4.4).
	branchSeen  bool
	branchNext  uint64
	branchExit  int
	branchKind  predictor.Kind
	branchEv    critpath.Event
	writesDone  bool
	writesEv    critpath.Event
	storesDone  bool
	storesEv    critpath.Event
	mispChecked bool

	// Commit tracking (phases two and three). commitEv is also what the
	// tiles take as the commit command's critical-path dependency.
	commitSent bool
	commitEv   critpath.Event
	ackR, ackS bool
	ackREv     critpath.Event
	ackSEv     critpath.Event
}

func (b *blockCtx) complete() bool { return b.branchSeen && b.writesDone && b.storesDone }

// tagEntry is one entry of the GT's single I-cache tag array.
type tagEntry struct {
	present bool
	lastUse int64
}

// fetchStage tracks the GT's block fetch pipeline: 3 cycles of prediction,
// one of I-TLB/tag access, one of hit/miss detection, then eight pipelined
// dispatch commands (paper Section 4.1).
type fetchStage int

const (
	fetchIdle fetchStage = iota
	fetchPredict
	fetchTag
	fetchHitMiss
	fetchRefill
	fetchDispatch
)

// threadCtx is per-SMT-thread fetch state.
type threadCtx struct {
	active    bool
	nextFetch uint64
	halted    bool
	// lastFetched is the most recently fetched block, whose succPred
	// chained to nextFetch.
	lastSeq uint64

	// pendingPred is the prediction that selected the block about to be
	// dispatched (the previous block's successor prediction).
	pendingPred predictor.Prediction

	// Fetch pipeline state. stageUntil is the absolute cycle at which the
	// current timed stage (predict/tag/hit-miss) completes — a deadline, not
	// a countdown, so a warping clock can jump straight to it.
	stage      fetchStage
	stageUntil int64
	fetchAddr  uint64
	fetchSlot  int
	refillWait bool
	// badFetch holds a speculative next-fetch address that missed the
	// I-TLB (no block mapped there); fetch stalls until a resolved branch
	// redirects the thread.
	badFetch uint64
}

// gtTile is the global control tile: block PCs, the I-cache tag array, the
// I-TLB, the next-block predictor, and the control engines for prediction,
// fetch, dispatch, completion detection, flush and commit (paper
// Section 3.1, Figure 4a).
type gtTile struct {
	core *Core

	pred    *predictor.Predictor
	tags    map[uint64]*tagEntry
	tagCap  int
	slots   [NumSlots]blockCtx
	threads [NumThreads]threadCtx
	nextSeq uint64

	dispatchBusyUntil int64
	rrThread          int // round-robin fetch among active threads

	// wakeAt is the event-driven doze overlay: when nonzero, warpIdle proved
	// the next tick a no-op before this cycle (horizonNever = pure external
	// wait), so Step may skip the GT until wakeAt arrives or a chain/OPN
	// delivery becomes observable (gtDeliverable). Never serialized: restore
	// leaves it zero and the first tick recomputes it.
	wakeAt int64

	// Stats.
	Fetches, Refills, Flushes, Mispredicts, ViolationFlushes, Commits uint64
	lastCommitEv                                                      critpath.Event
}

func newGT(core *Core) *gtTile {
	return &gtTile{
		core:    core,
		pred:    predictor.New(),
		tags:    make(map[uint64]*tagEntry),
		tagCap:  128, // one chunk per block per IT bank (Section 3.2)
		nextSeq: 1,
	}
}

// startThread activates an SMT thread at the given entry address.
func (g *gtTile) startThread(t int, entry uint64) {
	g.threads[t] = threadCtx{active: true, nextFetch: entry}
}

// slotsForThread returns the frame range owned by a thread: with one
// thread, all eight frames (seven speculative); with n threads, 8/n each
// (paper Section 3: "two blocks per thread if four threads are running").
func (g *gtTile) slotsForThread(t int) (lo, hi int) {
	n := g.core.activeThreads()
	per := NumSlots / n
	return t * per, (t + 1) * per
}

func (g *gtTile) freeSlot(t int) (int, bool) {
	lo, hi := g.slotsForThread(t)
	for s := lo; s < hi; s++ {
		if !g.slots[s].valid {
			return s, true
		}
	}
	return 0, false
}

func (g *gtTile) tick(now int64) {
	g.pumpGSN(now)
	g.pumpOPN(now)
	g.checkMispredicts(now)
	g.tryCommit(now)
	g.advanceFetch(now)
	g.reapCommitted(now)
	g.wakeAt = 0
	if g.core.eventDriven {
		// Every condition warpIdle inspects flips only through chain/OPN
		// deliveries (observable via gtDeliverable) or the GT's own tick, so
		// a proven-idle horizon holds until one of those occurs.
		if h, ok := g.warpIdle(now); ok && h > now {
			g.wakeAt = h
		}
	}
}

// pumpOPN consumes branch messages delivered to the GT. Every popped
// message is fully read here, so it returns to the pool (stale ones too:
// nothing else can hold a reference to a GT-delivered branch).
func (g *gtTile) pumpOPN(now int64) {
	for {
		msg, ok := g.core.deliverOPN(gtCoord())
		if !ok {
			return
		}
		if msg.kind != opnBranch {
			panic(fmt.Sprintf("proc: GT received OPN kind %d", msg.kind))
		}
		g.handleBranch(now, msg)
		g.core.freeOPNMsg(msg)
	}
}

func (g *gtTile) handleBranch(now int64, msg *opnMsg) {
	b := &g.slots[msg.slot]
	if !b.valid || b.seq != msg.seq {
		return // stale branch from a flushed block
	}
	if b.branchSeen {
		panic(fmt.Sprintf("proc: block %#x produced two exit branches", b.addr))
	}
	b.branchSeen = true
	b.branchExit = int(msg.brExit)
	b.branchEv = g.core.newEvent(now, msg.ev, critpath.Split{
		critpath.CatOPNHop:        int64(msg.hops),
		critpath.CatOPNContention: int64(msg.waits),
	}, critpath.CatOPNHop)
	switch msg.brOp {
	case isa.BRO:
		b.branchKind = predictor.KindBranch
		b.branchNext = uint64(int64(b.addr) + int64(msg.brOffset)*isa.ChunkBytes)
	case isa.CALLO:
		b.branchKind = predictor.KindCall
		b.branchNext = uint64(int64(b.addr) + int64(msg.brOffset)*isa.ChunkBytes)
	case isa.RET:
		b.branchKind = predictor.KindReturn
		b.branchNext = msg.val.Bits
	case isa.BR:
		b.branchKind = predictor.KindBranch
		b.branchNext = msg.val.Bits
	}
}

// pumpGSN consumes status messages reaching the head of the three chains.
func (g *gtTile) pumpGSN(now int64) {
	if msg, ok := g.core.gsnRT.Recv(0); ok {
		g.core.gsnRT.Pop(0)
		b := &g.slots[msg.slot]
		if b.valid && b.seq == msg.seq {
			switch msg.kind {
			case gsnFinishR:
				b.writesDone = true
				b.writesEv = g.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatComplete)
				g.core.traceBlock(obs.KindWritesDone, int(msg.slot), msg.seq, b.addr, critpath.CatComplete)
			case gsnAckR:
				b.ackR = true
				b.ackREv = g.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatCommit)
				g.core.traceBlock(obs.KindCommitAckR, int(msg.slot), msg.seq, b.addr, critpath.CatCommit)
			}
		}
	}
	if msg, ok := g.core.gsnDT.Recv(0); ok {
		g.core.gsnDT.Pop(0)
		b := &g.slots[msg.slot]
		switch msg.kind {
		case gsnFinishS:
			if b.valid && b.seq == msg.seq {
				b.storesDone = true
				b.storesEv = g.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatComplete)
				g.core.traceBlock(obs.KindStoresDone, int(msg.slot), msg.seq, b.addr, critpath.CatComplete)
			}
		case gsnAckS:
			if b.valid && b.seq == msg.seq {
				b.ackS = true
				b.ackSEv = g.core.newEvent(now, msg.ev, critpath.Split{}, critpath.CatCommit)
				g.core.traceBlock(obs.KindCommitAckS, int(msg.slot), msg.seq, b.addr, critpath.CatCommit)
			}
		case gsnViolation:
			g.onViolation(now, msg)
		}
	}
	if msg, ok := g.core.gsnIT.Recv(0); ok {
		g.core.gsnIT.Pop(0)
		if msg.kind == gsnRefill {
			// seq carries the block address being refilled.
			g.tags[msg.seq] = &tagEntry{present: true, lastUse: now}
			g.evictTags()
		}
	}
}

// onViolation handles a memory-ordering violation: flush the violated
// load's block and everything younger, then refetch (paper Section 4.3).
func (g *gtTile) onViolation(now int64, msg gsnMsg) {
	// Find the violated block; it may already have been flushed by an
	// earlier report.
	var victim *blockCtx
	for s := range g.slots {
		b := &g.slots[s]
		if b.valid && b.seq == msg.violSeq {
			victim = b
			break
		}
	}
	if victim == nil {
		return
	}
	if victim.commitSent {
		panic(fmt.Sprintf("proc: violation reported for committing block %#x", victim.addr))
	}
	g.ViolationFlushes++
	addr := victim.addr
	thread := victim.thread
	g.flushFrom(now, victim.seq)
	g.threads[thread].nextFetch = addr
	g.threads[thread].halted = false
}

// checkMispredicts compares each resolved branch against the prediction
// made when the block was fetched, flushing wrong-path successors and
// steering the fetch engine (paper Section 4.3).
func (g *gtTile) checkMispredicts(now int64) {
	for s := range g.slots {
		b := &g.slots[s]
		if !b.valid || !b.branchSeen || b.mispChecked {
			continue
		}
		b.mispChecked = true
		if b.branchNext == b.predictedNext {
			continue
		}
		g.Mispredicts++
		t := &g.threads[b.thread]
		// Flush any fetched wrong-path successors; flushFrom repairs the
		// predictor and resets the fetch pipeline. If none were fetched
		// yet, repair and squash the in-flight fetch directly. The
		// successor is this THREAD's next block — with SMT, sequence
		// numbers interleave across threads.
		var succSeq uint64
		for s2 := range g.slots {
			o := &g.slots[s2]
			if o.valid && o.thread == b.thread && o.seq > b.seq &&
				(succSeq == 0 || o.seq < succSeq) {
				succSeq = o.seq
			}
		}
		if succSeq != 0 {
			g.flushFrom(now, succSeq)
		} else {
			g.pred.Repair(b.succPred)
			if t.lastSeq == b.seq && t.stage != fetchIdle {
				t.stage = fetchIdle // squash the wrong-path fetch
				t.refillWait = false
			}
		}
		t.nextFetch = b.branchNext
		t.badFetch = 0
		t.halted = b.branchNext == haltAddr
		t.lastSeq = b.seq
		b.predictedNext = b.branchNext
	}
}

// flushFrom squashes every in-flight block with seq >= from (same thread as
// the named block), issuing a GCN flush wave and repairing the predictor.
func (g *gtTile) flushFrom(now int64, from uint64) {
	var mask uint8
	var seqs [NumSlots]uint64
	var oldest *blockCtx
	thread := -1
	for s := range g.slots {
		b := &g.slots[s]
		if b.valid && b.seq == from {
			thread = b.thread
		}
	}
	if thread < 0 {
		return
	}
	for s := range g.slots {
		b := &g.slots[s]
		if !b.valid || b.thread != thread || b.seq < from {
			continue
		}
		if b.commitSent {
			panic(fmt.Sprintf("proc: flushing committing block %#x", b.addr))
		}
		mask |= 1 << uint(s)
		seqs[s] = b.seq
		if oldest == nil || b.seq < oldest.seq {
			oldest = b
		}
	}
	if oldest == nil {
		return
	}
	g.Flushes++
	if g.core.cfg.TraceCommits {
		fmt.Printf("[%d] flush from seq=%d mask=%x\n", now, from, mask)
	}
	if g.core.trace != nil {
		g.core.trace.Emit(obs.Event{
			Cycle: now, Seq: from, Addr: oldest.addr, Arg: uint64(mask),
			Kind: obs.KindFlushWave, Slot: -1,
		})
	}
	g.pred.Repair(oldest.selfPred)
	g.core.issueGCN(gcnMsg{kind: gcnFlush, mask: mask, seq: g.core.parkFlush(seqs)})
	t := &g.threads[thread]
	for s := range g.slots {
		b := &g.slots[s]
		if mask&(1<<uint(s)) != 0 {
			b.valid = false
			g.core.FlushedBlocks++
		}
	}
	// The thread's fetch chain restarts from the oldest surviving block.
	t.lastSeq = from - 1
	if t.stage != fetchIdle {
		t.stage = fetchIdle // squash the in-flight fetch
		t.refillWait = false
	}
	// Younger dispatch schedules die via seq filtering at the tiles — a
	// refetch can never overtake a flush — and the GDN becomes free for the
	// refetch immediately (Section 4.3: the GT may issue a new dispatch as
	// soon as the flush wave is on the GCN).
}

// tryCommit runs phase two of the commit protocol: send pipelined commit
// commands for completed blocks, oldest first (paper Section 4.4).
func (g *gtTile) tryCommit(now int64) {
	for t := 0; t < NumThreads; t++ {
		if !g.threads[t].active {
			continue
		}
		// Oldest uncommitted block of the thread.
		for {
			b := g.oldestUncommitted(t)
			if b == nil || !b.complete() {
				break
			}
			g.core.markTimeline(b.seq, b.addr, "complete")
			g.core.traceBlock(obs.KindBlockComplete, g.slotOf(b), b.seq, b.addr, critpath.CatComplete)
			doneEv := critpath.Latest(critpath.Latest(b.branchEv, b.writesEv), b.storesEv)
			b.commitEv = g.core.newEvent(now, doneEv, critpath.Split{}, critpath.CatComplete)
			g.core.issueGCN(gcnMsg{kind: gcnCommit, slot: uint8(g.slotOf(b)), seq: b.seq})
			b.commitSent = true
			g.core.markTimeline(b.seq, b.addr, "commit")
			g.core.traceBlock(obs.KindCommitCmd, g.slotOf(b), b.seq, b.addr, critpath.CatCommit)
			g.Commits++
			if g.core.cfg.TraceCommits {
				fmt.Printf("[%d] commit cmd seq=%d addr=%#x exit=%d next=%#x\n", now, b.seq, b.addr, b.branchExit, b.branchNext)
			}
			// The commit command updates the block predictor (Section 4.4).
			retAddr := b.addr + uint64(g.core.program.Size(b.addr))
			g.pred.Update(b.addr, b.succPred, b.branchExit, b.branchKind, b.branchNext, retAddr)
		}
	}
}

func (g *gtTile) slotOf(b *blockCtx) int {
	for s := range g.slots {
		if &g.slots[s] == b {
			return s
		}
	}
	panic("proc: blockCtx not in slots")
}

func (g *gtTile) oldestUncommitted(thread int) *blockCtx {
	var best *blockCtx
	for s := range g.slots {
		b := &g.slots[s]
		if !b.valid || b.thread != thread || b.commitSent {
			continue
		}
		if best == nil || b.seq < best.seq {
			best = b
		}
	}
	return best
}

// reapCommitted deallocates blocks whose commit has been acknowledged by
// both the RTs and DTs (phase three, Section 4.4).
func (g *gtTile) reapCommitted(now int64) {
	for s := range g.slots {
		b := &g.slots[s]
		if !b.valid || !b.commitSent || !b.ackR || !b.ackS {
			continue
		}
		g.core.markTimeline(b.seq, b.addr, "acked")
		g.core.traceBlock(obs.KindBlockAcked, s, b.seq, b.addr, critpath.CatCommit)
		ev := g.core.newEvent(now, critpath.Latest(b.ackREv, b.ackSEv), critpath.Split{}, critpath.CatCommit)
		g.lastCommitEv = ev
		t := &g.threads[b.thread]
		if b.branchNext == haltAddr {
			t.halted = true
		}
		b.valid = false
		g.core.onBlockRetired(b.addr)
	}
}

// advanceFetch runs the block fetch pipeline for one thread per cycle
// (round-robin among active threads).
func (g *gtTile) advanceFetch(now int64) {
	n := g.core.activeThreads()
	for i := 0; i < n; i++ {
		t := (g.rrThread + i) % n
		if g.stepThreadFetch(now, t) {
			g.rrThread = (t + 1) % n
			return
		}
	}
}

// stepThreadFetch advances one thread's fetch pipeline; returns true if it
// did work this cycle.
func (g *gtTile) stepThreadFetch(now int64, ti int) bool {
	t := &g.threads[ti]
	if !t.active || t.halted {
		return false
	}
	switch t.stage {
	case fetchIdle:
		if t.nextFetch == haltAddr {
			t.halted = true
			return false
		}
		if t.badFetch != 0 && t.nextFetch == t.badFetch {
			return false // mispredicted into unmapped space; await redirect
		}
		if _, ok := g.freeSlot(ti); !ok {
			return false
		}
		t.fetchAddr = t.nextFetch
		t.stage = fetchPredict
		t.stageUntil = now + predictCycles
		g.core.traceBlock(obs.KindBlockFetch, -1, 0, t.fetchAddr, critpath.CatIFetch)
		return true
	case fetchPredict:
		if now >= t.stageUntil {
			t.stage = fetchTag
			t.stageUntil = now + tagCycles
		}
		return true
	case fetchTag:
		if now >= t.stageUntil {
			t.stage = fetchHitMiss
			t.stageUntil = now + hitMissCycles
		}
		return true
	case fetchHitMiss:
		if now < t.stageUntil {
			return true
		}
		if _, ok := g.core.program.Block(t.fetchAddr); !ok {
			// Speculative fetch into unmapped space (a cold or aliased
			// target prediction): stall until a branch redirects us.
			t.badFetch = t.fetchAddr
			t.stage = fetchIdle
			return true
		}
		if e, ok := g.tags[t.fetchAddr]; ok && e.present {
			e.lastUse = now
			t.stage = fetchDispatch
			return true
		}
		// I-cache miss: distributed refill over the GRN (Section 4.1).
		g.Refills++
		t.stage = fetchRefill
		t.refillWait = true
		g.core.issueGRN(t.fetchAddr)
		return true
	case fetchRefill:
		if e, ok := g.tags[t.fetchAddr]; ok && e.present {
			t.refillWait = false
			t.stage = fetchDispatch
			return true
		}
		return true
	case fetchDispatch:
		// The GDN serializes dispatches: one block's eight beat commands
		// occupy it for eight cycles.
		if g.dispatchBusyUntil > now {
			return false
		}
		slot, ok := g.freeSlot(ti)
		if !ok {
			return false
		}
		g.beginDispatch(now, ti, slot, t.fetchAddr)
		t.stage = fetchIdle
		return true
	}
	return false
}

// beginDispatch allocates the frame, predicts the successor, and schedules
// the GDN instruction distribution.
func (g *gtTile) beginDispatch(now int64, ti, slot int, addr uint64) {
	if g.core.cfg.TraceCommits {
		fmt.Printf("[%d] dispatch slot=%d addr=%#x seq=%d\n", now, slot, addr, g.nextSeq)
	}
	t := &g.threads[ti]
	seq := g.nextSeq
	g.nextSeq++
	g.Fetches++

	hdr, err := g.core.its[0].headerOf(addr)
	if err != nil {
		panic(fmt.Sprintf("proc: dispatch without header: %v", err))
	}
	seqNext := addr + uint64(g.core.program.Size(addr))
	succPred := g.pred.Predict(addr, seqNext)

	b := &g.slots[slot]
	*b = blockCtx{
		valid: true, seq: seq, addr: addr, thread: ti, hdr: hdr,
		selfPred:      t.pendingSelfPred(),
		succPred:      succPred,
		predictedNext: succPred.Next,
	}
	// A block with no register writes has writesDone trivially; same for
	// stores — but completion still requires the GSN round trip, which the
	// RT/DT chains produce immediately. Here we only special-case the
	// degenerate empty header (never produced by the compiler).
	g.dispatchBusyUntil = now + dispatchBeats
	g.core.markTimeline(seq, addr, "dispatch")
	g.core.traceBlock(obs.KindBlockDispatch, slot, seq, addr, critpath.CatIFetch)
	dispEv := g.core.newEvent(now, g.lastCommitEv, critpath.Split{}, critpath.CatIFetch)
	g.core.scheduleDispatch(now, slot, seq, ti, addr, hdr, dispEv)
	t.nextFetch = succPred.Next
	t.lastSeq = seq
	t.pendingPred = succPred
	if succPred.Next == haltAddr {
		// Never predict into the halt address; fetch stalls until the
		// branch resolves (or confirms the halt).
	}
}

// pendingSelfPred returns the prediction that chose the block about to be
// dispatched (the previous block's successor prediction).
func (t *threadCtx) pendingSelfPred() predictor.Prediction { return t.pendingPred }

func (g *gtTile) evictTags() {
	for len(g.tags) > g.tagCap {
		var victim uint64
		var oldest int64 = 1 << 62
		for a, e := range g.tags {
			if e.lastUse < oldest {
				oldest, victim = e.lastUse, a
			}
		}
		delete(g.tags, victim)
		for _, it := range g.core.its {
			it.evict(victim)
		}
	}
}

// warpIdle reports whether the GT's next tick would do no work beyond
// waiting on deadline-held fetch stages, and if so the earliest cycle at
// which such a deadline fires (horizonNever when the GT waits purely on
// external wakeups — refill completions, commit acks, branch deliveries —
// all of which arrive via micronet traffic that separately defeats
// quiescence). Callers must already have established that every micronet is
// quiet: with no deliveries possible, pumpGSN and pumpOPN are no-ops, and
// the checks below cover the remaining tick phases (mispredict checks,
// commit issue, fetch advance, block reap).
func (g *gtTile) warpIdle(now int64) (int64, bool) {
	for s := range g.slots {
		b := &g.slots[s]
		if !b.valid {
			continue
		}
		if b.branchSeen && !b.mispChecked {
			return 0, false // checkMispredicts would act
		}
		if b.commitSent && b.ackR && b.ackS {
			return 0, false // reapCommitted would act
		}
	}
	n := g.core.activeThreads()
	for t := 0; t < n; t++ {
		if !g.threads[t].active {
			continue
		}
		if b := g.oldestUncommitted(t); b != nil && b.complete() {
			return 0, false // tryCommit would act
		}
	}
	horizon := horizonNever
	single := n == 1
	for ti := 0; ti < n; ti++ {
		t := &g.threads[ti]
		if !t.active || t.halted {
			continue
		}
		switch t.stage {
		case fetchIdle:
			if t.nextFetch == haltAddr {
				return 0, false // tick would halt the thread
			}
			if t.badFetch != 0 && t.nextFetch == t.badFetch {
				continue // stalled until a branch redirects; pure wait
			}
			if _, ok := g.freeSlot(ti); ok {
				return 0, false // tick would start a fetch
			}
			// No free frame; a commit ack (chain traffic) frees one.
		case fetchPredict, fetchTag, fetchHitMiss:
			// Timed stages consume the one-thread-per-cycle fetch slot
			// (stepThreadFetch reports them as work), so their wait cycles
			// advance the round-robin pointer — skippable only when a single
			// thread makes the rotation degenerate.
			if !single {
				return 0, false
			}
			if t.stageUntil < horizon {
				horizon = t.stageUntil
			}
		case fetchRefill:
			if e, ok := g.tags[t.fetchAddr]; ok && e.present {
				return 0, false // refill landed; tick would move to dispatch
			}
			// Waiting on the GSN-IT refill chain; pure wait.
		case fetchDispatch:
			if g.dispatchBusyUntil > now {
				if g.dispatchBusyUntil < horizon {
					horizon = g.dispatchBusyUntil
				}
				continue
			}
			if _, ok := g.freeSlot(ti); ok {
				return 0, false // tick would begin dispatch
			}
			// No free frame; pure wait on commit acks.
		}
	}
	return horizon, true
}

// allRetired reports whether every thread has halted with no blocks in
// flight.
func (g *gtTile) allRetired() bool {
	for ti := range g.threads {
		t := &g.threads[ti]
		if t.active && !t.halted {
			return false
		}
	}
	for s := range g.slots {
		if g.slots[s].valid {
			return false
		}
	}
	return true
}
