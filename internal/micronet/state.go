package micronet

import "trips/internal/ckpt"

// Checkpoint support: every micronet component can serialize its mutable
// state into a ckpt.Writer and load it back from a ckpt.Reader. Payload
// types are opaque to this package, so callers pass an encoder/decoder pair
// for T. LoadState never allocates new network topology — it overwrites the
// state of an identically-constructed component — and rebuilds all derived
// bookkeeping (occupancy counters, busy-edge and occupied-router lists)
// from the canonical construction order, which is sound because Tick and
// Propagate are order-insensitive across routers and edges (each claims
// disjoint state; see the comments on Mesh.busyEdges/occRouters).

// SaveState serializes the queue contents.
func (q *Queue[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Int(q.Len())
	for i := 0; i < q.Len(); i++ {
		enc(w, q.At(i))
	}
}

// LoadState replaces the queue contents with the serialized ones.
func (q *Queue[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	q.Reset()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	for i := 0; i < n; i++ {
		q.Push(dec(r))
	}
}

// SaveState serializes the link registers and lifetime counters.
func (l *Link[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Bool(l.hasIn)
	if l.hasIn {
		enc(w, l.in)
	}
	w.Bool(l.hasOut)
	if l.hasOut {
		enc(w, l.out)
	}
	w.U64(l.sent)
	w.U64(l.stalled)
}

// LoadState restores the link registers and lifetime counters.
func (l *Link[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	var zero T
	l.in, l.out = zero, zero
	l.hasIn = r.Bool()
	if l.hasIn {
		l.in = dec(r)
	}
	l.hasOut = r.Bool()
	if l.hasOut {
		l.out = dec(r)
	}
	l.sent = r.U64()
	l.stalled = r.U64()
}

// SaveState serializes the mesh: arbitration clock, counters, every router
// buffer and delivery queue, and every link register.
func (m *Mesh[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Section("mesh:" + m.Name)
	w.Int(m.tickCount)
	w.U64(m.delivered)
	w.U64(m.injected)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			rt := &m.routers[r][c]
			for d := North; d < numDirs; d++ {
				w.Bool(rt.inFull[d])
				if rt.inFull[d] {
					enc(w, rt.inBuf[d])
				}
			}
			rt.outQ.SaveState(w, enc)
		}
	}
	for d := North; d < Local; d++ {
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if l := m.links[d][r][c]; l != nil {
					l.SaveState(w, enc)
				}
			}
		}
	}
}

// LoadState restores the mesh into an identically-shaped instance and
// rebuilds the derived occupancy bookkeeping.
func (m *Mesh[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	r.Section("mesh:" + m.Name)
	m.tickCount = r.Int()
	m.delivered = r.U64()
	m.injected = r.U64()
	m.bufOcc, m.linkBusy, m.pendingDeliv = 0, 0, 0
	m.busyEdges = m.busyEdges[:0]
	m.occRouters = m.occRouters[:0]
	m.transit = nil
	var zero T
	for row := 0; row < m.Rows; row++ {
		for c := 0; c < m.Cols; c++ {
			rt := &m.routers[row][c]
			rt.occ = 0
			rt.listed = false
			for d := North; d < numDirs; d++ {
				rt.inBuf[d] = zero
				rt.inFull[d] = r.Bool()
				if rt.inFull[d] {
					rt.inBuf[d] = dec(r)
					rt.occ++
					m.bufOcc++
				}
			}
			rt.outQ.LoadState(r, dec)
			m.pendingDeliv += rt.outQ.Len()
			if rt.occ > 0 || !rt.outQ.Empty() {
				m.noteOcc(rt)
			}
		}
	}
	for d := North; d < Local; d++ {
		for row := 0; row < m.Rows; row++ {
			for c := 0; c < m.Cols; c++ {
				if l := m.links[d][row][c]; l != nil {
					l.LoadState(r, dec)
					if l.hasIn {
						m.linkBusy++
					}
					if l.hasOut {
						m.linkBusy++
					}
					if l.Busy() {
						m.busyEdges = append(m.busyEdges, m.edgeOf[d][row][c])
					}
				}
			}
		}
	}
}

// SaveState serializes the chain links and counters.
func (c *Chain[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Section("chain:" + c.Name)
	w.U64(c.sent)
	for _, l := range c.links {
		l.SaveState(w, enc)
	}
}

// LoadState restores the chain and recomputes link residency.
func (c *Chain[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	r.Section("chain:" + c.Name)
	c.sent = r.U64()
	c.busy = 0
	for _, l := range c.links {
		l.LoadState(r, dec)
		if l.hasIn {
			c.busy++
		}
		if l.hasOut {
			c.busy++
		}
	}
}

// SaveState serializes the bidirectional chain.
func (b *BiChain[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Section("bichain:" + b.Name)
	w.U64(b.sent)
	for i := 0; i < b.N-1; i++ {
		b.up[i].SaveState(w, enc)
		b.down[i].SaveState(w, enc)
	}
	for i := range b.outQ {
		b.outQ[i].SaveState(w, enc)
	}
}

// LoadState restores the bidirectional chain and recomputes residency.
func (b *BiChain[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	r.Section("bichain:" + b.Name)
	b.sent = r.U64()
	b.busy = 0
	b.pendingDeliv = 0
	for i := 0; i < b.N-1; i++ {
		b.up[i].LoadState(r, dec)
		b.down[i].LoadState(r, dec)
		for _, l := range [2]*Link[T]{b.up[i], b.down[i]} {
			if l.hasIn {
				b.busy++
			}
			if l.hasOut {
				b.busy++
			}
		}
	}
	for i := range b.outQ {
		b.outQ[i].LoadState(r, dec)
		b.pendingDeliv += b.outQ[i].Len()
	}
}

// SaveState serializes the broadcast tree.
func (b *Broadcast[T]) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, T)) {
	w.Section("bcast:" + b.Name)
	w.U64(b.injected)
	for _, l := range b.east {
		l.SaveState(w, enc)
	}
	for _, row := range b.south {
		for _, l := range row {
			l.SaveState(w, enc)
		}
	}
	for r := range b.outQ {
		for c := range b.outQ[r] {
			b.outQ[r][c].SaveState(w, enc)
		}
	}
}

// LoadState restores the broadcast tree and recomputes residency.
func (b *Broadcast[T]) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) T) {
	r.Section("bcast:" + b.Name)
	b.injected = r.U64()
	b.linkBusy = 0
	b.pendingDeliv = 0
	count := func(l *Link[T]) {
		l.LoadState(r, dec)
		if l.hasIn {
			b.linkBusy++
		}
		if l.hasOut {
			b.linkBusy++
		}
	}
	for _, l := range b.east {
		count(l)
	}
	for _, row := range b.south {
		for _, l := range row {
			count(l)
		}
	}
	for row := range b.outQ {
		for c := range b.outQ[row] {
			b.outQ[row][c].LoadState(r, dec)
			b.pendingDeliv += b.outQ[row][c].Len()
		}
	}
}
