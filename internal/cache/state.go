package cache

import (
	"sort"

	"trips/internal/ckpt"
)

// SaveState serializes the bank: LRU clock, stats, and each (set, way)
// slot in place. Way positions matter — Fill's victim scan prefers the last
// invalid way in set order — so lines are written per-slot with a validity
// bit rather than as a compacted list.
func (b *Bank) SaveState(w *ckpt.Writer) {
	w.Section("bank")
	w.U64(b.clock)
	w.U64(b.Hits)
	w.U64(b.Misses)
	w.U64(b.Evictions)
	w.U64(b.Writebacks)
	for i := range b.lines {
		ln := &b.lines[i]
		w.Bool(ln.valid)
		if !ln.valid {
			continue
		}
		w.Bool(ln.dirty)
		w.U64(ln.tag)
		w.U64(ln.lastUse)
		w.Bytes(ln.data[:b.LineBytes])
	}
}

// LoadState restores a bank saved from an identically-shaped instance.
func (b *Bank) LoadState(r *ckpt.Reader) {
	r.Section("bank")
	b.clock = r.U64()
	b.Hits = r.U64()
	b.Misses = r.U64()
	b.Evictions = r.U64()
	b.Writebacks = r.U64()
	for i := range b.lines {
		ln := &b.lines[i]
		*ln = line{data: ln.data}
		ln.valid = r.Bool()
		if !ln.valid {
			continue
		}
		ln.dirty = r.Bool()
		ln.tag = r.U64()
		ln.lastUse = r.U64()
		data := r.Bytes()
		if r.Err() != nil {
			return
		}
		if len(data) != b.LineBytes {
			r.Failf("cache: line %#x has %d bytes, bank lines are %d", ln.tag, len(data), b.LineBytes)
			return
		}
		if ln.data == nil {
			ln.data = new([LineBytes]byte)
		}
		copy(ln.data[:], data)
	}
}

// SaveState serializes the MSHR. Waiters are opaque to this package, so the
// caller supplies an encoder invoked once per waiter; lines are written in
// ascending line-address order for determinism. Waiter order within a line
// is preserved (it is the service order on fill).
func (m *MSHR) SaveState(w *ckpt.Writer, enc func(*ckpt.Writer, any)) {
	w.Section("mshr")
	live := make([]*mshrEntry, 0, m.lines)
	for i := range m.entries {
		if m.entries[i].valid {
			live = append(live, &m.entries[i])
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].line < live[j].line })
	w.Int(len(live))
	for _, e := range live {
		w.U64(e.line)
		w.Int(len(e.waiters))
		for _, waiter := range e.waiters {
			enc(w, waiter)
		}
	}
}

// LoadState restores the MSHR, decoding each waiter with dec.
func (m *MSHR) LoadState(r *ckpt.Reader, dec func(*ckpt.Reader) any) {
	r.Section("mshr")
	for i := range m.entries {
		m.entries[i].valid = false
		clear(m.entries[i].waiters)
		m.entries[i].waiters = m.entries[i].waiters[:0]
	}
	m.lines, m.requests = 0, 0
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n > len(m.entries) {
		r.Failf("cache: MSHR checkpoint has %d lines, capacity %d", n, len(m.entries))
		return
	}
	for i := 0; i < n; i++ {
		e := &m.entries[i]
		e.line = r.U64()
		cnt := r.Int()
		if r.Err() != nil {
			return
		}
		for j := 0; j < cnt; j++ {
			e.waiters = append(e.waiters, dec(r))
		}
		e.valid = true
		m.lines++
		m.requests += cnt
	}
}
