package nuca

import (
	"sort"

	"trips/internal/ckpt"
	"trips/internal/micronet"
	"trips/internal/proc"
)

// Checkpoint serialization for the secondary memory system.
//
// Aliasing is the whole difficulty here: a split client request shares one
// *pending across several pendSplit ids and any still-staged outItems, and
// one *proc.MemRequest is referenced by every part of its split plus the
// pending tables. SaveState therefore collects the distinct requests and
// split-assembly records into local tables (in deterministic order: port
// queues in port order, then the pending tables by ascending id) and
// serializes references as table indices, so a restore rebuilds the exact
// sharing structure.
//
// ocnMsg instances, by contrast, are singly owned — each lives in exactly
// one container (mesh resident, delayed queue, SDC queue, MT waiter list,
// MT output queue, or a staged outItem) — so they are encoded in place.

func encCoord(w *ckpt.Writer, c micronet.Coord) {
	w.Int(c.Row)
	w.Int(c.Col)
}

func decCoord(r *ckpt.Reader) micronet.Coord {
	return micronet.Coord{Row: r.Int(), Col: r.Int()}
}

func encOCNMsg(w *ckpt.Writer, m *ocnMsg) {
	encCoord(w, m.dst)
	w.U8(uint8(m.kind))
	w.U64(m.addr)
	w.Int(m.n)
	w.Bool(m.hasData)
	if m.hasData {
		w.Bytes(m.data())
	}
	w.Bool(m.write)
	w.Int(m.id)
	encCoord(w, m.origin)
	encCoord(w, m.mt)
	w.Int(m.flits)
	w.Int(m.hops)
	w.Int(m.waits)
	w.U64(m.tid)
}

func decOCNMsg(r *ckpt.Reader) *ocnMsg {
	m := &ocnMsg{}
	m.dst = decCoord(r)
	m.kind = msgKind(r.U8())
	m.addr = r.U64()
	m.n = r.Int()
	if r.Bool() {
		if b := r.Bytes(); len(b) > LineBytes {
			r.Failf("nuca: message payload of %d bytes exceeds a %d-byte line", len(b), LineBytes)
		} else {
			m.setData(b)
		}
	}
	m.write = r.Bool()
	m.id = r.Int()
	m.origin = decCoord(r)
	m.mt = decCoord(r)
	m.flits = r.Int()
	m.hops = r.Int()
	m.waits = r.Int()
	m.tid = r.U64()
	r.NoteID(m.tid)
	return m
}

func sortedPendingIDs(m map[int]pending) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func sortedSplitIDs(m map[int]*pending) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SaveState serializes the system's complete mutable state at a backend
// cycle boundary (between Ticks): the backing SDRAM, the OCN mesh, every
// MT bank and MSHR, the SDC and delay queues, the staged port queues, and
// the pending-transaction tables with their sharing structure intact.
// Memoized horizon/deadline scans and the message recycle pool are derived
// or transient state and are recomputed on load.
func (s *System) SaveState(w *ckpt.Writer) {
	w.Section("nuca")
	w.I64(s.cycle)
	w.Int(s.nextID)

	// Port roster: names in creation order. Lazily created ports (the DMA
	// controllers') get their mesh coordinates from their position in this
	// order, so a restore replays any missing names through Port().
	w.Int(len(s.order))
	for _, p := range s.order {
		w.String(p.name)
	}
	portIdx := make(map[*ntPort]int, len(s.order))
	for i, p := range s.order {
		portIdx[p] = i
	}

	// Shared-object tables (see the package comment above).
	var reqs []*proc.MemRequest
	var reqPort []int
	reqIdx := make(map[*proc.MemRequest]int)
	addReq := func(rq *proc.MemRequest, port int) {
		if _, ok := reqIdx[rq]; ok {
			return
		}
		reqIdx[rq] = len(reqs)
		reqs = append(reqs, rq)
		reqPort = append(reqPort, port)
	}
	var pds []*pending
	pdIdx := make(map[*pending]int)
	addPd := func(pd *pending) {
		if _, ok := pdIdx[pd]; ok {
			return
		}
		pdIdx[pd] = len(pds)
		pds = append(pds, pd)
		addReq(pd.req, portIdx[pd.port])
	}
	for pi, p := range s.order {
		for i := 0; i < p.outQ.Len(); i++ {
			it := p.outQ.At(i)
			addReq(it.req, pi)
			if it.pd != nil {
				addPd(it.pd)
			}
		}
	}
	pendIDs := sortedPendingIDs(s.pending)
	for _, id := range pendIDs {
		pd := s.pending[id]
		addReq(pd.req, portIdx[pd.port])
	}
	splitIDs := sortedSplitIDs(s.pendSplit)
	for _, id := range splitIDs {
		addPd(s.pendSplit[id])
	}

	w.Int(len(reqs))
	for i, rq := range reqs {
		w.Int(reqPort[i])
		proc.EncodeMemRequest(w, rq)
	}
	w.Int(len(pds))
	for _, pd := range pds {
		w.Int(reqIdx[pd.req])
		w.Int(portIdx[pd.port])
		w.Int(pd.left)
		w.U64(pd.base)
		w.Bool(pd.buf != nil)
		if pd.buf != nil {
			w.Bytes(pd.buf)
		}
		ids := make([]int, 0, len(pd.parts))
		for id := range pd.parts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		w.Int(len(ids))
		for _, id := range ids {
			pt := pd.parts[id]
			w.Int(id)
			w.Int(pt.off)
			w.Int(pt.n)
		}
	}

	s.cfg.Backing.SaveState(w)
	s.mesh.SaveState(w, encOCNMsg)

	w.Int(len(s.delayed))
	for _, d := range s.delayed {
		encOCNMsg(w, d.msg)
		w.I64(d.readyAt)
	}
	for sdc := 0; sdc < 2; sdc++ {
		w.Int(len(s.sdcQ[sdc]))
		for _, j := range s.sdcQ[sdc] {
			encOCNMsg(w, j.msg)
			w.I64(j.readyAt)
		}
	}
	for _, mt := range s.mts {
		mt.bank.SaveState(w)
		w.Bool(mt.busy)
		w.U64(mt.waitLine)
		w.I64(mt.fillDeadline)
		w.Int(len(mt.waiters))
		for _, m := range mt.waiters {
			encOCNMsg(w, m)
		}
		mt.outQ.SaveState(w, encOCNMsg)
		w.U64(mt.Hits)
		w.U64(mt.Misses)
		w.U64(mt.MSHRCoalesced)
		w.U64(mt.MSHRBlocked)
	}

	w.Int(len(pendIDs))
	for _, id := range pendIDs {
		p := s.pending[id]
		w.Int(id)
		w.Int(reqIdx[p.req])
		w.Int(portIdx[p.port])
	}
	w.Int(len(splitIDs))
	for _, id := range splitIDs {
		w.Int(id)
		w.Int(pdIdx[s.pendSplit[id]])
	}
	rdIDs := make([]int, 0, len(s.respDeadline))
	for id := range s.respDeadline {
		rdIDs = append(rdIDs, id)
	}
	sort.Ints(rdIDs)
	w.Int(len(rdIDs))
	for _, id := range rdIDs {
		e := s.respDeadline[id]
		w.Int(id)
		w.I64(e.at)
		w.Int(portIdx[e.port])
	}

	for _, p := range s.order {
		p.outQ.SaveState(w, func(w *ckpt.Writer, it outItem) {
			encOCNMsg(w, it.msg)
			w.Int(reqIdx[it.req])
			if it.pd != nil {
				w.Int(pdIdx[it.pd])
			} else {
				w.Int(-1)
			}
			w.Int(it.off)
			w.Int(it.n)
			w.I64(it.stamp)
		})
	}

	w.U64(s.Requests)
	w.U64(s.LineTransfers)
	w.U64(s.SDRAMReads)
	w.U64(s.SDRAMWrites)
}

// LoadState restores a checkpoint into a system built with an identical
// Config, after the client cores have been restored (origin resolution
// reads their tile state). res maps a port name to the resolver that
// rebuilds Done callbacks for requests submitted on that port — the port is
// the only record of which client a request belongs to.
//
// Ports the clients create at construction must already exist, in the same
// order; ports created lazily during the checkpointed run (DMA) are
// re-created here by replaying the saved name order, which reproduces their
// mesh coordinates.
func (s *System) LoadState(r *ckpt.Reader, res func(portName string) proc.OriginResolver) {
	r.Section("nuca")
	s.cycle = r.I64()
	s.nextID = r.Int()

	np := r.Int()
	if r.Err() != nil {
		return
	}
	for i := 0; i < np; i++ {
		name := r.String()
		if i < len(s.order) {
			if s.order[i].name != name {
				r.Failf("nuca: port %d is %q, checkpoint has %q", i, s.order[i].name, name)
				return
			}
		} else {
			s.Port(name)
		}
	}
	if np != len(s.order) {
		r.Failf("nuca: checkpoint has %d ports, live system %d", np, len(s.order))
		return
	}

	nr := r.Int()
	if r.Err() != nil {
		return
	}
	reqs := make([]*proc.MemRequest, nr)
	for i := range reqs {
		pi := r.Int()
		if pi < 0 || pi >= len(s.order) {
			r.Failf("nuca: request %d has port index %d of %d", i, pi, len(s.order))
			return
		}
		var resolver proc.OriginResolver
		if res != nil {
			resolver = res(s.order[pi].name)
		}
		reqs[i] = proc.DecodeMemRequest(r, resolver)
	}
	npd := r.Int()
	if r.Err() != nil {
		return
	}
	pds := make([]*pending, npd)
	for i := range pds {
		pd := &pending{}
		ri, pi := r.Int(), r.Int()
		if ri < 0 || ri >= len(reqs) || pi < 0 || pi >= len(s.order) {
			r.Failf("nuca: split record %d has bad indices (req %d, port %d)", i, ri, pi)
			return
		}
		pd.req = reqs[ri]
		pd.port = s.order[pi]
		pd.left = r.Int()
		pd.base = r.U64()
		if r.Bool() {
			pd.buf = r.Bytes()
		}
		nparts := r.Int()
		if r.Err() != nil {
			return
		}
		pd.parts = make(map[int]part, nparts)
		for j := 0; j < nparts; j++ {
			id := r.Int()
			pd.parts[id] = part{off: r.Int(), n: r.Int()}
		}
		pds[i] = pd
	}

	s.cfg.Backing.LoadState(r)
	s.mesh.LoadState(r, decOCNMsg)

	nd := r.Int()
	if r.Err() != nil {
		return
	}
	s.delayed = s.delayed[:0]
	for i := 0; i < nd; i++ {
		m := decOCNMsg(r)
		s.delayed = append(s.delayed, delayedMsg{msg: m, readyAt: r.I64()})
	}
	for sdc := 0; sdc < 2; sdc++ {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		s.sdcQ[sdc] = s.sdcQ[sdc][:0]
		for i := 0; i < n; i++ {
			m := decOCNMsg(r)
			s.sdcQ[sdc] = append(s.sdcQ[sdc], sdcJob{msg: m, readyAt: r.I64()})
		}
	}
	s.mtStaged = 0
	for _, mt := range s.mts {
		mt.bank.LoadState(r)
		mt.busy = r.Bool()
		mt.waitLine = r.U64()
		mt.fillDeadline = r.I64()
		nw := r.Int()
		if r.Err() != nil {
			return
		}
		mt.waiters = mt.waiters[:0]
		for i := 0; i < nw; i++ {
			mt.waiters = append(mt.waiters, decOCNMsg(r))
		}
		mt.outQ.LoadState(r, decOCNMsg)
		s.mtStaged += mt.outQ.Len()
		mt.Hits = r.U64()
		mt.Misses = r.U64()
		mt.MSHRCoalesced = r.U64()
		mt.MSHRBlocked = r.U64()
	}

	n := r.Int()
	if r.Err() != nil {
		return
	}
	s.pending = make(map[int]pending, n)
	for i := 0; i < n; i++ {
		id, ri, pi := r.Int(), r.Int(), r.Int()
		if ri < 0 || ri >= len(reqs) || pi < 0 || pi >= len(s.order) {
			r.Failf("nuca: pending %d has bad indices (req %d, port %d)", id, ri, pi)
			return
		}
		s.pending[id] = pending{req: reqs[ri], port: s.order[pi]}
	}
	n = r.Int()
	if r.Err() != nil {
		return
	}
	s.pendSplit = make(map[int]*pending, n)
	for i := 0; i < n; i++ {
		id, di := r.Int(), r.Int()
		if di < 0 || di >= len(pds) {
			r.Failf("nuca: split id %d has bad record index %d", id, di)
			return
		}
		s.pendSplit[id] = pds[di]
	}
	n = r.Int()
	if r.Err() != nil {
		return
	}
	s.respDeadline = make(map[int]*rdEntry, n)
	s.rdByOwner, s.rdFree = [maxOwners][]*rdEntry{}, nil
	for i := 0; i < n; i++ {
		id := r.Int()
		at := r.I64()
		pi := r.Int()
		if pi < 0 || pi >= len(s.order) {
			r.Failf("nuca: deadline %d has bad port index %d", id, pi)
			return
		}
		if s.respDeadline[id] != nil {
			r.Failf("nuca: deadline %d appears twice", id)
			return
		}
		s.trackDeadline(id, at, s.order[pi])
	}

	s.stagedUnowned = 0
	for i := range s.stagedByOwner {
		s.stagedByOwner[i] = 0
	}
	for _, p := range s.order {
		p.outQ.LoadState(r, func(r *ckpt.Reader) outItem {
			var it outItem
			it.msg = decOCNMsg(r)
			ri := r.Int()
			if ri >= 0 && ri < len(reqs) {
				it.req = reqs[ri]
			} else {
				r.Failf("nuca: staged item has bad request index %d", ri)
			}
			di := r.Int()
			if di >= 0 {
				if di < len(pds) {
					it.pd = pds[di]
				} else {
					r.Failf("nuca: staged item has bad split index %d", di)
				}
			}
			it.off = r.Int()
			it.n = r.Int()
			it.stamp = r.I64()
			return it
		})
		if p.owner >= 0 {
			s.stagedByOwner[p.owner] += int64(p.outQ.Len())
		} else {
			s.stagedUnowned += int64(p.outQ.Len())
		}
	}

	s.Requests = r.U64()
	s.LineTransfers = r.U64()
	s.SDRAMReads = r.U64()
	s.SDRAMWrites = r.U64()

	// Derived and transient state: per-owner in-flight counts fall out of
	// the restored pending tables; the memo caches and the recycle pool
	// restart cold.
	for i := range s.pendingByOwner {
		s.pendingByOwner[i] = 0
	}
	for _, p := range s.pending {
		if p.port.owner >= 0 {
			s.pendingByOwner[p.port.owner]++
		}
	}
	for _, pd := range s.pendSplit {
		if pd.port.owner >= 0 {
			s.pendingByOwner[pd.port.owner]++
		}
	}
	s.free = nil
	s.inTick = false
	s.lagCache = 0
	s.meshAt, s.tightenedAt = -1, -1
	// Resume the trace-id allocator past every restored in-flight message so
	// post-restore allocations never collide with checkpointed ids.
	s.cfg.Trace.ReserveIDs(r.MaxID())
}
