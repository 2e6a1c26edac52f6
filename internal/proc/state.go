package proc

import (
	"fmt"
	"sort"

	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/lsq"
	"trips/internal/micronet"
	"trips/internal/predictor"
)

// Checkpoint support. SaveState serializes every piece of mutable simulated
// state — tiles, micronets, the event wheel, in-flight messages — into a
// ckpt.Writer at a cycle boundary; LoadState restores it into a core freshly
// constructed with an identical Config. Critical-path events are host-side
// observability the wire format has no fields for: SaveState refuses when
// TrackCritPath is enabled. Pools (opnMsg, dtFetch) restore empty, and the
// parking records behind wheel events and flush commands (dispatches,
// slowOPN, flushes) are written out inline where the format always had their
// contents and rebuilt from there — both are invisible to simulated state.

// ---------------------------------------------------------------------------
// Value / isa codecs
// ---------------------------------------------------------------------------

func encValue(w *ckpt.Writer, v Value) {
	w.U64(v.Bits)
	w.Bool(v.Null)
}

func decValue(r *ckpt.Reader) Value {
	return Value{Bits: r.U64(), Null: r.Bool()}
}

func encTarget(w *ckpt.Writer, t isa.Target) {
	w.Int(t.Index)
	w.U8(uint8(t.Kind))
}

func decTarget(r *ckpt.Reader) isa.Target {
	return isa.Target{Index: r.Int(), Kind: isa.OperandKind(r.U8())}
}

func encInst(w *ckpt.Writer, in *isa.Inst) {
	w.U8(uint8(in.Op))
	w.U8(uint8(in.Pred))
	encTarget(w, in.T0)
	encTarget(w, in.T1)
	w.I64(in.Imm)
	w.Int(in.LSID)
	w.Int(in.Exit)
	w.I64(int64(in.Offset))
}

func decInst(r *ckpt.Reader) isa.Inst {
	var in isa.Inst
	in.Op = isa.Opcode(r.U8())
	in.Pred = isa.PredMode(r.U8())
	in.T0 = decTarget(r)
	in.T1 = decTarget(r)
	in.Imm = r.I64()
	in.LSID = r.Int()
	in.Exit = r.Int()
	in.Offset = int32(r.I64())
	return in
}

func encReadInst(w *ckpt.Writer, rd isa.ReadInst) {
	w.Bool(rd.Valid)
	w.Int(rd.GR)
	encTarget(w, rd.RT0)
	encTarget(w, rd.RT1)
}

func decReadInst(r *ckpt.Reader) isa.ReadInst {
	var rd isa.ReadInst
	rd.Valid = r.Bool()
	rd.GR = r.Int()
	rd.RT0 = decTarget(r)
	rd.RT1 = decTarget(r)
	return rd
}

func encWriteInst(w *ckpt.Writer, wr isa.WriteInst) {
	w.Bool(wr.Valid)
	w.Int(wr.GR)
}

func decWriteInst(r *ckpt.Reader) isa.WriteInst {
	return isa.WriteInst{Valid: r.Bool(), GR: r.Int()}
}

func encHeaderInfo(w *ckpt.Writer, h *isa.HeaderInfo) {
	w.Bool(h != nil)
	if h == nil {
		return
	}
	w.U32(h.StoreMask)
	w.U8(uint8(h.Flags))
	w.Int(h.BodyChunks)
	w.Int(h.NumInsts)
	for i := range h.Reads {
		encReadInst(w, h.Reads[i])
	}
	for i := range h.Writes {
		encWriteInst(w, h.Writes[i])
	}
}

func decHeaderInfo(r *ckpt.Reader) *isa.HeaderInfo {
	if !r.Bool() {
		return nil
	}
	h := &isa.HeaderInfo{}
	h.StoreMask = r.U32()
	h.Flags = isa.BlockFlags(r.U8())
	h.BodyChunks = r.Int()
	h.NumInsts = r.Int()
	for i := range h.Reads {
		h.Reads[i] = decReadInst(r)
	}
	for i := range h.Writes {
		h.Writes[i] = decWriteInst(r)
	}
	return h
}

// ---------------------------------------------------------------------------
// Message codecs. The narrow fields keep their original integer encodings;
// critical-path event fields restore as zero (SaveState refuses under
// TrackCritPath).
// ---------------------------------------------------------------------------

func encCoord(w *ckpt.Writer, at micronet.Coord) {
	w.Int(at.Row)
	w.Int(at.Col)
}

func decCoord(r *ckpt.Reader) micronet.Coord {
	return micronet.Coord{Row: r.Int(), Col: r.Int()}
}

func encOPNMsg(w *ckpt.Writer, m *opnMsg) {
	encCoord(w, m.dst)
	w.U8(uint8(m.kind))
	w.Int(int(m.slot))
	w.U64(m.seq)
	w.Int(int(m.thread))
	encTarget(w, m.target)
	encValue(w, m.val)
	w.U8(uint8(m.brOp))
	w.Int(int(m.brExit))
	w.I64(int64(m.brOffset))
	w.Int(int(m.lsid))
	w.U8(uint8(m.memOp))
	w.U64(m.addr)
	encValue(w, m.data)
	encTarget(w, m.ldT0)
	encTarget(w, m.ldT1)
	w.Int(int(m.hops))
	w.Int(int(m.waits))
	w.U64(m.tid)
}

func decOPNMsg(r *ckpt.Reader) *opnMsg {
	m := &opnMsg{}
	m.dst = decCoord(r)
	m.kind = opnKind(r.U8())
	m.slot = uint8(r.Int())
	m.seq = r.U64()
	m.thread = uint8(r.Int())
	m.target = decTarget(r)
	m.val = decValue(r)
	m.brOp = isa.Opcode(r.U8())
	m.brExit = uint8(r.Int())
	m.brOffset = int32(r.I64())
	m.lsid = uint8(r.Int())
	m.memOp = isa.Opcode(r.U8())
	m.addr = r.U64()
	m.data = decValue(r)
	m.ldT0 = decTarget(r)
	m.ldT1 = decTarget(r)
	m.hops = int32(r.Int())
	m.waits = int32(r.Int())
	m.tid = r.U64()
	r.NoteID(m.tid)
	return m
}

func encGSNMsg(w *ckpt.Writer, m gsnMsg) {
	w.U8(uint8(m.kind))
	w.Int(int(m.slot))
	w.U64(m.seq)
	w.U64(m.violSeq)
	w.U64(m.violAddr)
}

func decGSNMsg(r *ckpt.Reader) gsnMsg {
	var m gsnMsg
	m.kind = gsnKind(r.U8())
	m.slot = uint8(r.Int())
	m.seq = r.U64()
	m.violSeq = r.U64()
	m.violAddr = r.U64()
	return m
}

// encGCNMsg writes a command with its parked flush sequence numbers inline
// (and no handle), as the format always carried them.
func (c *Core) encGCNMsg(w *ckpt.Writer, m gcnMsg) {
	var seqs [NumSlots]uint64
	if m.kind == gcnFlush {
		seqs, m.seq = c.flushes[m.seq].seqs, 0
	}
	w.U8(uint8(m.kind))
	w.Int(int(m.slot))
	w.U64(m.seq)
	w.U8(m.mask)
	for _, s := range seqs {
		w.U64(s)
	}
}

func (c *Core) decGCNMsg(r *ckpt.Reader) gcnMsg {
	m := gcnMsg{kind: gcnKind(r.U8()), slot: uint8(r.Int()), seq: r.U64(), mask: r.U8()}
	var seqs [NumSlots]uint64
	for i := range seqs {
		seqs[i] = r.U64()
	}
	if m.kind == gcnFlush {
		m.seq = c.parkFlush(seqs)
	}
	return m
}

func encDSNMsg(w *ckpt.Writer, m dsnMsg) {
	w.Int(int(m.slot))
	w.U64(m.seq)
	w.Int(int(m.thread))
	w.Int(int(m.lsid))
}

func decDSNMsg(r *ckpt.Reader) dsnMsg {
	return dsnMsg{slot: uint8(r.Int()), seq: r.U64(), thread: uint8(r.Int()), lsid: uint8(r.Int())}
}

// ---------------------------------------------------------------------------
// MemRequest codec. Exported because memory backends (FixedLatencyMem, the
// NUCA system) hold queued *MemRequests and must serialize them.
// ---------------------------------------------------------------------------

// EncodeMemRequest serializes one in-flight memory transaction, including
// the origin descriptor that lets a resolver rebuild its Done callback.
func EncodeMemRequest(w *ckpt.Writer, req *MemRequest) {
	w.U64(req.Addr)
	w.Int(req.N)
	w.Bool(req.IsWrite)
	w.Bool(req.Data != nil)
	if req.Data != nil {
		w.Bytes(req.Data)
	}
	w.U8(uint8(req.Origin.Kind))
	w.Int(req.Origin.Tile)
	if req.Origin.Kind == OriginDTUncachedLoad {
		encOPNMsg(w, req.Origin.msg)
	}
}

// DecodeMemRequest reverses EncodeMemRequest and, when res is non-nil,
// rebuilds the request's Done callback from its origin.
func DecodeMemRequest(r *ckpt.Reader, res OriginResolver) *MemRequest {
	req := &MemRequest{}
	req.Addr = r.U64()
	req.N = r.Int()
	req.IsWrite = r.Bool()
	if r.Bool() {
		req.Data = r.Bytes()
	}
	req.Origin.Kind = OriginKind(r.U8())
	req.Origin.Tile = r.Int()
	if req.Origin.Kind == OriginDTUncachedLoad {
		req.Origin.msg = decOPNMsg(r)
	}
	if res != nil && req.Origin.Kind != OriginNone {
		res.ResolveOrigin(req)
	}
	return req
}

// ResolveOrigin implements OriginResolver for tile-issued requests: it
// rebuilds the Done callback a live request would carry, referencing the
// restored tile state. DMA origins are resolved by the chip's wrapper.
func (c *Core) ResolveOrigin(req *MemRequest) {
	switch req.Origin.Kind {
	case OriginDTFetch:
		d := c.dts[req.Origin.Tile]
		line := req.Addr
		req.Done = func(data []byte) {
			d.wake()
			d.fillLine(line, data)
		}
	case OriginDTUncachedLoad:
		d := c.dts[req.Origin.Tile]
		msg := req.Origin.msg
		req.Done = func(data []byte) {
			d.wake()
			if d.slotSeq[msg.slot] != msg.seq {
				return
			}
			var v uint64
			for i := len(data) - 1; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			d.replyLoad(&pendingLoad{msg: msg}, Value{Bits: extendValue(v, msg.memOp)}, critpath.Event{})
		}
	case OriginDTUncachedStore:
		d := c.dts[req.Origin.Tile]
		if d.drainOrder.Len() == 0 || len(d.drains[d.drainOrder.Front()]) == 0 {
			panic("proc: restore: uncached-store request with no head drain entry")
		}
		st := d.drains[d.drainOrder.Front()][0]
		req.Done = func([]byte) {
			d.wake()
			d.uncachedSt[st] = 2
		}
	case OriginITRefill:
		it := c.its[req.Origin.Tile]
		blockAddr := req.Addr - uint64(it.id)*isa.ChunkBytes
		req.Done = func(data []byte) { it.chunkArrived(blockAddr, data) }
	}
}

// ---------------------------------------------------------------------------
// pendingLoad codec (DT queues and MSHR waiters).
// ---------------------------------------------------------------------------

func encPendingLoad(w *ckpt.Writer, pl *pendingLoad) {
	encOPNMsg(w, pl.msg)
	w.I64(pl.readyAt)
	w.Bool(pl.waiting)
}

func decPendingLoad(r *ckpt.Reader) *pendingLoad {
	return &pendingLoad{msg: decOPNMsg(r), readyAt: r.I64(), waiting: r.Bool()}
}

func encPendingLoads(w *ckpt.Writer, s []*pendingLoad) {
	w.Int(len(s))
	for _, pl := range s {
		encPendingLoad(w, pl)
	}
}

func decPendingLoads(r *ckpt.Reader) []*pendingLoad {
	n := r.Int()
	if r.Err() != nil || n == 0 {
		return nil
	}
	s := make([]*pendingLoad, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, decPendingLoad(r))
	}
	return s
}

// ---------------------------------------------------------------------------
// Event wheel
// ---------------------------------------------------------------------------

// encSchedEvent writes an event with the payload it names — the dispatched
// instruction, header entries or store mask from its dispatchRec, the parked
// slow delivery — inline, as the format always carried them.
func (c *Core) encSchedEvent(w *ckpt.Writer, e schedEvent) {
	w.U8(uint8(e.kind))
	w.Int(int(e.slot))
	if e.kind == evSlowOPN {
		w.U64(0)
		w.Int(0)
		encCoord(w, c.slowOPN[e.seq].dst)
		encOPNMsg(w, c.slowOPN[e.seq])
		return
	}
	w.U64(e.seq)
	w.Int(int(e.idx))
	w.Int(int(e.tile))
	d, idx := &c.dispatches[e.seq%NumSlots], int(e.idx)
	switch e.kind {
	case evBodyInst:
		encInst(w, &d.bodies[idx/isa.BodyChunkInsts][idx%isa.BodyChunkInsts])
	case evHeaderBeat:
		encReadInst(w, d.hdr.Reads[idx*4+int(e.tile)])
		encWriteInst(w, d.hdr.Writes[idx*4+int(e.tile)])
	case evStoreMask:
		w.U32(d.hdr.StoreMask)
	}
}

// decSchedEvent reads an event and files its payload: into the dispatchRec
// of its block, which holds just the entries with beats still in flight, or
// the slow-delivery list.
func (c *Core) decSchedEvent(r *ckpt.Reader) (schedEvent, bool) {
	kind, slot, seq, idx := evKind(r.U8()), r.Int(), r.U64(), r.Int()
	e := schedEvent{kind: kind, slot: uint8(slot), seq: seq, idx: uint8(idx)}
	if kind == evSlowOPN {
		e.seq = uint64(len(c.slowOPN))
		decCoord(r) // the delivery node: the message's own destination
		c.slowOPN = append(c.slowOPN, decOPNMsg(r))
		return e, r.Err() == nil
	}
	tiles := [...]int{evBodyInst: len(c.ets), evHeaderBeat: len(c.rts), evStoreMask: len(c.dts), evRefill: len(c.its)}
	if int(kind) >= len(tiles) {
		r.Failf("sched event kind %d unknown", kind)
		return e, false
	}
	tile := r.Int()
	if tile < 0 || tile >= tiles[kind] || slot < 0 || slot >= NumSlots || idx < 0 || idx >= isa.MaxBlockInsts ||
		(kind == evHeaderBeat && idx >= dispatchBeats) {
		r.Failf("sched event kind %d: tile %d, slot %d or index %d out of range", kind, tile, slot, idx)
		return e, false
	}
	e.tile = uint8(tile)
	d := &c.dispatches[seq%NumSlots]
	if kind != evRefill && (d.seq != seq || d.hdr == nil) {
		*d = dispatchRec{seq: seq, hdr: &isa.HeaderInfo{}}
	}
	switch kind {
	case evBodyInst:
		chunk := &d.bodies[idx/isa.BodyChunkInsts]
		if *chunk == nil {
			*chunk = new([isa.BodyChunkInsts]isa.Inst)
		}
		(*chunk)[idx%isa.BodyChunkInsts] = decInst(r)
	case evHeaderBeat:
		d.hdr.Reads[idx*4+tile] = decReadInst(r)
		d.hdr.Writes[idx*4+tile] = decWriteInst(r)
	case evStoreMask:
		d.hdr.StoreMask = r.U32()
	}
	return e, r.Err() == nil
}

func (c *Core) saveWheel(w *ckpt.Writer) {
	w.Section("wheel")
	// At a cycle boundary every wheel slot holds events for cycles
	// c.cycle..c.cycle+wheelSize-1; serialize by delta so the restore is
	// independent of the absolute slot indices.
	for delta := int64(0); delta < wheelSize; delta++ {
		evs := c.wheel[(c.cycle+delta)&wheelMask]
		w.Int(len(evs))
		for i := range evs {
			c.encSchedEvent(w, evs[i])
		}
	}
	cycles := make([]int64, 0, len(c.schedOverflow))
	for cyc := range c.schedOverflow {
		cycles = append(cycles, cyc)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	w.Int(len(cycles))
	for _, cyc := range cycles {
		w.I64(cyc)
		evs := c.schedOverflow[cyc]
		w.Int(len(evs))
		for i := range evs {
			c.encSchedEvent(w, evs[i])
		}
	}
}

func (c *Core) loadWheel(r *ckpt.Reader) {
	r.Section("wheel")
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	c.dispatches = [NumSlots]dispatchRec{}
	c.slowOPN = c.slowOPN[:0]
	for delta := int64(0); delta < wheelSize; delta++ {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		slot := &c.wheel[(c.cycle+delta)&wheelMask]
		for i := 0; i < n; i++ {
			e, ok := c.decSchedEvent(r)
			if !ok {
				return
			}
			*slot = append(*slot, e)
		}
	}
	c.schedOverflow = nil
	no := r.Int()
	if r.Err() != nil {
		return
	}
	if no > 0 {
		c.schedOverflow = make(map[int64][]schedEvent, no)
		for i := 0; i < no; i++ {
			cyc := r.I64()
			n := r.Int()
			if r.Err() != nil {
				return
			}
			evs := make([]schedEvent, 0, n)
			for j := 0; j < n; j++ {
				e, ok := c.decSchedEvent(r)
				if !ok {
					return
				}
				evs = append(evs, e)
			}
			c.schedOverflow[cyc] = evs
		}
	}
}

// ---------------------------------------------------------------------------
// ET
// ---------------------------------------------------------------------------

func encOperand(w *ckpt.Writer, op *operand) {
	w.Bool(op.have)
	encValue(w, op.v)
}

func decOperand(r *ckpt.Reader) operand {
	return operand{have: r.Bool(), v: decValue(r)}
}

func (e *etTile) saveState(w *ckpt.Writer) {
	w.Section("et")
	w.Int(e.id)
	for s := 0; s < NumSlots; s++ {
		for i := range e.stations[s] {
			st := &e.stations[s][i]
			w.Bool(st.present)
			w.Bool(st.fired)
			encInst(w, &st.inst)
			w.Int(st.index)
			encOperand(w, &st.left)
			encOperand(w, &st.right)
			encOperand(w, &st.pred)
		}
		w.U64(e.slotSeq[s])
		w.Int(e.slotThread[s])
		w.U8(uint8(e.pending[s]))
		w.U8(e.readyMask[s])
	}
	w.I64(e.divBusyUntil)
	w.Int(len(e.pipe))
	for i := range e.pipe {
		f := &e.pipe[i]
		w.I64(f.doneAt)
		w.Int(int(f.slot))
		w.U64(f.seq)
		w.Int(int(f.thread))
		w.Int(int(f.st))
		encValue(w, f.result)
	}
	e.outQ.SaveState(w, encOPNMsg)
	w.Bool(e.active)
	w.U64(e.Issued)
	w.U64(e.LocalBypass)
	w.U64(e.Remote)
	w.U64(e.DeadPred)
	w.U64(e.DroppedStale)
}

func (e *etTile) loadState(r *ckpt.Reader) {
	r.Section("et")
	if id := r.Int(); id != e.id && r.Err() == nil {
		r.Failf("ET id mismatch: saved %d, live %d", id, e.id)
		return
	}
	for s := 0; s < NumSlots; s++ {
		for i := range e.stations[s] {
			st := &e.stations[s][i]
			*st = station{}
			st.present = r.Bool()
			st.fired = r.Bool()
			st.inst = decInst(r)
			st.index = r.Int()
			st.left = decOperand(r)
			st.right = decOperand(r)
			st.pred = decOperand(r)
		}
		e.slotSeq[s] = r.U64()
		e.slotThread[s] = r.Int()
		e.pending[s] = int8(r.U8())
		e.readyMask[s] = r.U8()
	}
	e.divBusyUntil = r.I64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	e.pipe = e.pipe[:0]
	for i := 0; i < n; i++ {
		doneAt, slot, seq, thread, pos := r.I64(), r.Int(), r.U64(), r.Int(), r.Int()
		if r.Err() != nil {
			return
		}
		if slot < 0 || slot >= NumSlots || pos < 0 || pos >= isa.SlotsPerET {
			r.Failf("ET pipe entry slot %d pos %d out of range", slot, pos)
			return
		}
		e.pipe = append(e.pipe, inflight{doneAt: doneAt, slot: uint8(slot), seq: seq,
			thread: uint8(thread), st: uint8(pos), result: decValue(r)})
	}
	e.outQ.LoadState(r, decOPNMsg)
	e.active = r.Bool()
	e.Issued = r.U64()
	e.LocalBypass = r.U64()
	e.Remote = r.U64()
	e.DeadPred = r.U64()
	e.DroppedStale = r.U64()
}

// ---------------------------------------------------------------------------
// RT
// ---------------------------------------------------------------------------

func (t *rtTile) saveState(w *ckpt.Writer) {
	w.Section("rt")
	w.Int(t.id)
	for th := range t.regs {
		for i := range t.regs[th] {
			w.U64(t.regs[th][i])
		}
	}
	for s := 0; s < NumSlots; s++ {
		for i := range t.readQ[s] {
			e := &t.readQ[s][i]
			w.Bool(e.valid)
			w.Bool(e.done)
			w.Int(e.gr)
			encTarget(w, e.rt0)
			encTarget(w, e.rt1)
			w.Bool(e.waiting)
			w.Int(e.waitSlot)
			w.U64(e.waitSeq)
			w.Int(e.waitIdx)
			w.Bool(e.unresolved)
		}
		for i := range t.writeQ[s] {
			we := &t.writeQ[s][i]
			w.Bool(we.valid)
			w.Int(we.gr)
			w.Bool(we.have)
			encValue(w, we.val)
		}
		w.U64(t.slotSeq[s])
		w.Int(t.slotThread[s])
		w.U8(t.hdrBeats[s])
		w.Bool(t.finishOwn[s])
		w.Bool(t.finishEast[s])
		w.Bool(t.finishSent[s])
		w.Bool(t.committing[s])
		w.Int(t.drainIdx[s])
		w.Bool(t.ackOwn[s])
		w.Bool(t.ackEast[s])
		w.Bool(t.ackSent[s])
		w.Int(t.missingWrites[s])
	}
	t.outQ.SaveState(w, encOPNMsg)
	w.Int(t.unresolved)
	w.Bool(t.active)
	w.U64(t.ReadsForwarded)
	w.U64(t.ReadsFromFile)
	w.U64(t.ReadsBuffered)
	w.U64(t.NullWrites)
}

func (t *rtTile) loadState(r *ckpt.Reader) {
	r.Section("rt")
	if id := r.Int(); id != t.id && r.Err() == nil {
		r.Failf("RT id mismatch: saved %d, live %d", id, t.id)
		return
	}
	for th := range t.regs {
		for i := range t.regs[th] {
			t.regs[th][i] = r.U64()
		}
	}
	for s := 0; s < NumSlots; s++ {
		for i := range t.readQ[s] {
			e := &t.readQ[s][i]
			*e = readEntry{}
			e.valid = r.Bool()
			e.done = r.Bool()
			e.gr = r.Int()
			e.rt0 = decTarget(r)
			e.rt1 = decTarget(r)
			e.waiting = r.Bool()
			e.waitSlot = r.Int()
			e.waitSeq = r.U64()
			e.waitIdx = r.Int()
			e.unresolved = r.Bool()
		}
		for i := range t.writeQ[s] {
			we := &t.writeQ[s][i]
			*we = writeEntry{}
			we.valid = r.Bool()
			we.gr = r.Int()
			we.have = r.Bool()
			we.val = decValue(r)
		}
		t.slotSeq[s] = r.U64()
		t.slotThread[s] = r.Int()
		t.hdrBeats[s] = r.U8()
		t.finishOwn[s] = r.Bool()
		t.finishEast[s] = r.Bool()
		t.finishSent[s] = r.Bool()
		t.committing[s] = r.Bool()
		t.drainIdx[s] = r.Int()
		t.ackOwn[s] = r.Bool()
		t.ackEast[s] = r.Bool()
		t.ackSent[s] = r.Bool()
		t.missingWrites[s] = r.Int()
	}
	t.outQ.LoadState(r, decOPNMsg)
	t.unresolved = r.Int()
	t.active = r.Bool()
	t.ReadsForwarded = r.U64()
	t.ReadsFromFile = r.U64()
	t.ReadsBuffered = r.U64()
	t.NullWrites = r.U64()
}

// ---------------------------------------------------------------------------
// IT
// ---------------------------------------------------------------------------

func (it *itTile) saveState(w *ckpt.Writer) {
	w.Section("it")
	w.Int(it.id)
	addrs := make([]uint64, 0, len(it.chunks))
	for a := range it.chunks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		w.U64(a)
		// Only the raw chunk bytes are state; the decoded forms are lazy,
		// deterministic derivations.
		w.Bytes(it.chunks[a].raw)
	}
	w.Int(len(it.refillOrder))
	for _, a := range it.refillOrder {
		st := it.refills[a]
		w.U64(a)
		w.Bool(st.ownDone)
		w.Bool(st.southDone)
	}
	it.pending.SaveState(w, func(w *ckpt.Writer, a uint64) { w.U64(a) })
	w.Bool(it.active)
	w.U64(it.Refills)
}

func (it *itTile) loadState(r *ckpt.Reader) {
	r.Section("it")
	if id := r.Int(); id != it.id && r.Err() == nil {
		r.Failf("IT id mismatch: saved %d, live %d", id, it.id)
		return
	}
	n := r.Int()
	if r.Err() != nil {
		return
	}
	it.chunks = make(map[uint64]*itChunk, n)
	for i := 0; i < n; i++ {
		a := r.U64()
		raw := r.Bytes()
		if r.Err() != nil {
			return
		}
		it.chunks[a] = &itChunk{raw: raw}
	}
	nr := r.Int()
	if r.Err() != nil {
		return
	}
	it.refills = make(map[uint64]*itRefill, nr)
	it.refillOrder = it.refillOrder[:0]
	for i := 0; i < nr; i++ {
		a := r.U64()
		st := &itRefill{ownDone: r.Bool(), southDone: r.Bool()}
		it.refills[a] = st
		it.refillOrder = append(it.refillOrder, a)
	}
	it.pending.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	it.active = r.Bool()
	it.Refills = r.U64()
}

// ---------------------------------------------------------------------------
// GT
// ---------------------------------------------------------------------------

func (g *gtTile) saveState(w *ckpt.Writer) {
	w.Section("gt")
	g.pred.SaveState(w)
	addrs := make([]uint64, 0, len(g.tags))
	for a := range g.tags {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		e := g.tags[a]
		w.U64(a)
		w.Bool(e.present)
		w.I64(e.lastUse)
	}
	for s := range g.slots {
		b := &g.slots[s]
		w.Bool(b.valid)
		w.U64(b.seq)
		w.U64(b.addr)
		w.Int(b.thread)
		encHeaderInfo(w, b.hdr)
		predictor.EncodePrediction(w, b.selfPred)
		predictor.EncodePrediction(w, b.succPred)
		w.U64(b.predictedNext)
		w.Bool(b.branchSeen)
		w.U64(b.branchNext)
		w.Int(b.branchExit)
		w.U8(uint8(b.branchKind))
		w.Bool(b.writesDone)
		w.Bool(b.storesDone)
		w.Bool(b.mispChecked)
		w.Bool(b.commitSent)
		w.Bool(b.ackR)
		w.Bool(b.ackS)
	}
	for t := range g.threads {
		tc := &g.threads[t]
		w.Bool(tc.active)
		w.U64(tc.nextFetch)
		w.Bool(tc.halted)
		w.U64(tc.lastSeq)
		predictor.EncodePrediction(w, tc.pendingPred)
		w.U8(uint8(tc.stage))
		w.I64(tc.stageUntil)
		w.U64(tc.fetchAddr)
		w.Int(tc.fetchSlot)
		w.Bool(tc.refillWait)
		w.U64(tc.badFetch)
	}
	w.U64(g.nextSeq)
	w.I64(g.dispatchBusyUntil)
	w.Int(g.rrThread)
	w.U64(g.Fetches)
	w.U64(g.Refills)
	w.U64(g.Flushes)
	w.U64(g.Mispredicts)
	w.U64(g.ViolationFlushes)
	w.U64(g.Commits)
}

func (g *gtTile) loadState(r *ckpt.Reader) {
	r.Section("gt")
	g.pred.LoadState(r)
	n := r.Int()
	if r.Err() != nil {
		return
	}
	g.tags = make(map[uint64]*tagEntry, n)
	for i := 0; i < n; i++ {
		a := r.U64()
		g.tags[a] = &tagEntry{present: r.Bool(), lastUse: r.I64()}
	}
	for s := range g.slots {
		b := &g.slots[s]
		*b = blockCtx{}
		b.valid = r.Bool()
		b.seq = r.U64()
		b.addr = r.U64()
		b.thread = r.Int()
		b.hdr = decHeaderInfo(r)
		b.selfPred = predictor.DecodePrediction(r)
		b.succPred = predictor.DecodePrediction(r)
		b.predictedNext = r.U64()
		b.branchSeen = r.Bool()
		b.branchNext = r.U64()
		b.branchExit = r.Int()
		b.branchKind = predictor.Kind(r.U8())
		b.writesDone = r.Bool()
		b.storesDone = r.Bool()
		b.mispChecked = r.Bool()
		b.commitSent = r.Bool()
		b.ackR = r.Bool()
		b.ackS = r.Bool()
	}
	for t := range g.threads {
		tc := &g.threads[t]
		*tc = threadCtx{}
		tc.active = r.Bool()
		tc.nextFetch = r.U64()
		tc.halted = r.Bool()
		tc.lastSeq = r.U64()
		tc.pendingPred = predictor.DecodePrediction(r)
		tc.stage = fetchStage(r.U8())
		tc.stageUntil = r.I64()
		tc.fetchAddr = r.U64()
		tc.fetchSlot = r.Int()
		tc.refillWait = r.Bool()
		tc.badFetch = r.U64()
	}
	g.nextSeq = r.U64()
	g.dispatchBusyUntil = r.I64()
	g.rrThread = r.Int()
	g.Fetches = r.U64()
	g.Refills = r.U64()
	g.Flushes = r.U64()
	g.Mispredicts = r.U64()
	g.ViolationFlushes = r.U64()
	g.Commits = r.U64()
}

// ---------------------------------------------------------------------------
// DT
// ---------------------------------------------------------------------------

func encMSHRWaiter(w *ckpt.Writer, waiter any) {
	pl, _ := waiter.(*pendingLoad)
	w.Bool(pl != nil)
	if pl != nil {
		encPendingLoad(w, pl)
	}
}

func decMSHRWaiter(r *ckpt.Reader) any {
	if r.Bool() {
		return decPendingLoad(r)
	}
	// Write-allocate fetches register a nil waiter.
	return (*pendingLoad)(nil)
}

func (d *dtTile) saveState(w *ckpt.Writer) {
	w.Section("dt")
	w.Int(d.id)
	d.bank.SaveState(w)
	d.mshr.SaveState(w, encMSHRWaiter)
	for t := range d.lsqs {
		d.lsqs[t].SaveState(w)
	}
	d.dep.SaveState(w)
	for s := 0; s < NumSlots; s++ {
		w.U64(d.slotSeq[s])
		w.Int(d.slotThread[s])
		w.U32(d.storeMask[s])
		w.U32(d.storeSeen[s])
		w.Bool(d.maskKnown[s])
		w.Bool(d.finishSent[s])
		w.Bool(d.ackOwn[s])
		w.Bool(d.ackEast[s])
		w.Bool(d.ackSent[s])
		w.Bool(d.committing[s])
	}
	d.inQ.SaveState(w, encOPNMsg)
	encPendingLoads(w, d.stalled)
	d.uncachedQ.SaveState(w, encPendingLoad)
	encPendingLoads(w, d.hitQ)
	encPendingLoads(w, d.conflictLoads)
	encPendingLoads(w, d.cacheRetry)
	w.Bool(d.mshrFreed)
	d.pendingFetch.SaveState(w, func(w *ckpt.Writer, a uint64) { w.U64(a) })
	d.gsnOut.SaveState(w, encGSNMsg)
	// Commit drains, in drain order (the map is keyed 1:1 with the queue).
	d.drainOrder.SaveState(w, func(w *ckpt.Writer, seq uint64) { w.U64(seq) })
	for i := 0; i < d.drainOrder.Len(); i++ {
		stores := d.drains[d.drainOrder.At(i)]
		w.Int(len(stores))
		for _, st := range stores {
			lsq.EncodeEntry(w, st)
		}
	}
	// The uncached-store state machine holds at most one entry, always the
	// head of the head drain list; only the state value needs saving.
	if len(d.uncachedSt) > 1 {
		panic("proc: checkpoint: more than one uncached store in flight")
	}
	ust := 0
	for _, v := range d.uncachedSt {
		ust = v
	}
	w.Int(ust)
	w.Bool(d.wb.valid)
	if d.wb.valid {
		w.Bool(d.wb.fetched)
		lsq.EncodeEntry(w, d.wb.st)
	}
	d.outQ.SaveState(w, encOPNMsg)
	d.dsnQ.SaveState(w, encDSNMsg)
	w.Bool(d.active)
	w.U64(d.Loads)
	w.U64(d.Stores)
	w.U64(d.NullStores)
	w.U64(d.Hits)
	w.U64(d.MissesStat)
	w.U64(d.StallsDep)
	w.U64(d.ViolationsStat)
}

func (d *dtTile) loadState(r *ckpt.Reader) {
	r.Section("dt")
	if id := r.Int(); id != d.id && r.Err() == nil {
		r.Failf("DT id mismatch: saved %d, live %d", id, d.id)
		return
	}
	d.bank.LoadState(r)
	d.mshr.LoadState(r, decMSHRWaiter)
	for t := range d.lsqs {
		d.lsqs[t].LoadState(r)
	}
	d.dep.LoadState(r)
	for s := 0; s < NumSlots; s++ {
		d.slotSeq[s] = r.U64()
		d.slotThread[s] = r.Int()
		d.storeMask[s] = r.U32()
		d.storeSeen[s] = r.U32()
		d.maskKnown[s] = r.Bool()
		d.finishSent[s] = r.Bool()
		d.ackOwn[s] = r.Bool()
		d.ackEast[s] = r.Bool()
		d.ackSent[s] = r.Bool()
		d.committing[s] = r.Bool()
	}
	d.inQ.LoadState(r, decOPNMsg)
	d.stalled = decPendingLoads(r)
	d.uncachedQ.LoadState(r, decPendingLoad)
	d.hitQ = decPendingLoads(r)
	d.conflictLoads = decPendingLoads(r)
	d.cacheRetry = decPendingLoads(r)
	d.mshrFreed = r.Bool()
	d.pendingFetch.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	d.gsnOut.LoadState(r, decGSNMsg)
	d.drainOrder.LoadState(r, func(r *ckpt.Reader) uint64 { return r.U64() })
	d.drains = make(map[uint64][]*lsq.Entry, d.drainOrder.Len())
	for i := 0; i < d.drainOrder.Len(); i++ {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		stores := make([]*lsq.Entry, 0, n)
		for j := 0; j < n; j++ {
			stores = append(stores, lsq.DecodeEntry(r))
		}
		d.drains[d.drainOrder.At(i)] = stores
	}
	ust := r.Int()
	d.uncachedSt = make(map[*lsq.Entry]int)
	if ust != 0 {
		if d.drainOrder.Len() == 0 || len(d.drains[d.drainOrder.Front()]) == 0 {
			r.Failf("uncached-store state %d with no head drain entry", ust)
			return
		}
		d.uncachedSt[d.drains[d.drainOrder.Front()][0]] = ust
	}
	d.wb.valid = r.Bool()
	d.wb.fetched = false
	d.wb.st = nil
	if d.wb.valid {
		d.wb.fetched = r.Bool()
		d.wb.st = lsq.DecodeEntry(r)
	}
	d.outQ.LoadState(r, decOPNMsg)
	d.dsnQ.LoadState(r, decDSNMsg)
	d.active = r.Bool()
	d.Loads = r.U64()
	d.Stores = r.U64()
	d.NullStores = r.U64()
	d.Hits = r.U64()
	d.MissesStat = r.U64()
	d.StallsDep = r.U64()
	d.ViolationsStat = r.U64()
}

// ---------------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------------

// SaveState serializes the core's complete mutable state at a cycle
// boundary. It fails when critical-path tracking is enabled: the format
// carries no critical-path events.
func (c *Core) SaveState(w *ckpt.Writer) error {
	if c.cfg.TrackCritPath {
		return fmt.Errorf("proc: cannot checkpoint with critical-path tracking enabled")
	}
	w.Section("core")
	w.I64(c.cycle)
	for _, m := range c.opns {
		m.SaveState(w, encOPNMsg)
	}
	c.gcn.SaveState(w, c.encGCNMsg)
	c.gsnRT.SaveState(w, encGSNMsg)
	c.gsnDT.SaveState(w, encGSNMsg)
	c.gsnIT.SaveState(w, encGSNMsg)
	c.dsn.SaveState(w, encDSNMsg)
	c.gcnQueue.SaveState(w, c.encGCNMsg)
	c.saveWheel(w)
	for s := 0; s < NumSlots; s++ {
		w.U64(c.storeSeq[s])
	}
	w.U64(c.CommittedBlocks)
	w.U64(c.CommittedInsts)
	w.U64(c.FlushedBlocks)
	w.U64(c.Warps)
	w.I64(c.WarpedCycles)
	w.Int(len(c.Timeline))
	for i := range c.Timeline {
		bt := &c.Timeline[i]
		w.U64(bt.Seq)
		w.U64(bt.Addr)
		w.I64(bt.Dispatch)
		w.I64(bt.Complete)
		w.I64(bt.CommitCmd)
		w.I64(bt.Acked)
	}
	c.gt.saveState(w)
	for _, it := range c.its {
		it.saveState(w)
	}
	for _, t := range c.rts {
		t.saveState(w)
	}
	for _, e := range c.ets {
		e.saveState(w)
	}
	for _, d := range c.dts {
		d.saveState(w)
	}
	return nil
}

// LoadState restores a checkpoint into a core built with an identical
// Config, overwriting all mutable state. The memory backend is restored
// separately by the caller (after this returns, so origin resolution sees
// the restored tile state).
func (c *Core) LoadState(r *ckpt.Reader) error {
	if c.cfg.TrackCritPath {
		return fmt.Errorf("proc: cannot restore with critical-path tracking enabled")
	}
	r.Section("core")
	c.cycle = r.I64()
	for _, m := range c.opns {
		m.LoadState(r, decOPNMsg)
	}
	c.flushes = c.flushes[:0]
	c.gcn.LoadState(r, c.decGCNMsg)
	c.gsnRT.LoadState(r, decGSNMsg)
	c.gsnDT.LoadState(r, decGSNMsg)
	c.gsnIT.LoadState(r, decGSNMsg)
	c.dsn.LoadState(r, decDSNMsg)
	c.gcnQueue.LoadState(r, c.decGCNMsg)
	c.loadWheel(r)
	for s := 0; s < NumSlots; s++ {
		c.storeSeq[s] = r.U64()
	}
	c.CommittedBlocks = r.U64()
	c.CommittedInsts = r.U64()
	c.FlushedBlocks = r.U64()
	c.Warps = r.U64()
	c.WarpedCycles = r.I64()
	nt := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	c.Timeline = c.Timeline[:0]
	c.timelineI = make(map[uint64]int, nt)
	for i := 0; i < nt; i++ {
		var bt BlockTime
		bt.Seq = r.U64()
		bt.Addr = r.U64()
		bt.Dispatch = r.I64()
		bt.Complete = r.I64()
		bt.CommitCmd = r.I64()
		bt.Acked = r.I64()
		c.Timeline = append(c.Timeline, bt)
		c.timelineI[bt.Seq] = i
	}
	c.gt.loadState(r)
	for _, it := range c.its {
		it.loadState(r)
	}
	for _, t := range c.rts {
		t.loadState(r)
	}
	for _, e := range c.ets {
		e.loadState(r)
	}
	for _, d := range c.dts {
		d.loadState(r)
	}
	// The doze overlay is never serialized: clear any stale horizons (this
	// Core may be rewinding) so the first post-restore tick recomputes them
	// from the restored state.
	c.gt.wakeAt = 0
	for _, e := range c.ets {
		e.wakeAt = 0
	}
	for _, d := range c.dts {
		d.wakeAt = 0
	}
	// Resume the trace-id allocator past every restored in-flight message so
	// post-restore allocations never collide with checkpointed ids.
	c.cfg.Trace.ReserveIDs(r.MaxID())
	return r.Err()
}

// ---------------------------------------------------------------------------
// FixedLatencyMem
// ---------------------------------------------------------------------------

// SaveState serializes the backing memory, clock, and per-port in-flight
// queues (ports in creation order, which NewCore makes deterministic).
func (f *FixedLatencyMem) SaveState(w *ckpt.Writer) {
	w.Section("flm")
	f.Mem.SaveState(w)
	w.I64(f.cycle)
	w.Int(len(f.order))
	for _, p := range f.order {
		w.I64(p.lastSub)
		p.queue.SaveState(w, func(w *ckpt.Writer, pr pendingReq) {
			req := *pr.req
			if req.IsWrite {
				req.Data = pr.data // the payload as submitted
			}
			EncodeMemRequest(w, &req)
			w.I64(pr.when)
		})
	}
}

// LoadState restores the backend; res rebuilds each queued request's Done
// callback, so the owning core must be restored first.
func (f *FixedLatencyMem) LoadState(r *ckpt.Reader, res OriginResolver) {
	r.Section("flm")
	f.Mem.LoadState(r)
	f.cycle = r.I64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(f.order) {
		r.Failf("backend port count mismatch: saved %d, live %d", n, len(f.order))
		return
	}
	f.pending = 0
	for _, p := range f.order {
		p.lastSub = r.I64()
		p.queue.LoadState(r, func(r *ckpt.Reader) pendingReq {
			req := DecodeMemRequest(r, res)
			pr := pendingReq{req: req, when: r.I64()}
			if req.IsWrite {
				pr.data = req.Data
			}
			return pr
		})
		f.pending += p.queue.Len()
	}
}
