package nuca

import (
	"math/rand"
	"testing"

	"trips/internal/mem"
	"trips/internal/proc"
)

// allocRig drives one client port with reused request records, so what a
// transaction allocates is the memory system's own doing.
type allocRig struct {
	t    *testing.T
	s    *System
	p    proc.MemPort
	req  proc.MemRequest
	done bool
	buf  [2 * LineBytes]byte
	peak int // most messages in flight seen between ticks
}

// setSpan is the address distance between consecutive lines that share an
// MT and a set: 256 sets of 64-byte lines, interleaved over 16 MTs.
const setSpan = 256 * LineBytes

// newAllocRig builds a system whose backing store already has pages for
// [0, span), so write-backs into it do not allocate pages.
func newAllocRig(t *testing.T, span uint64) *allocRig {
	backing := mem.New()
	for a := uint64(0); a < span; a += 4096 {
		backing.Write(a, 1, 0)
	}
	r := &allocRig{t: t, s: New(Config{Backing: backing})}
	r.p = r.s.Port("dt0")
	r.req.Done = func([]byte) { r.done = true }
	return r
}

// inFlight counts the messages the system holds: in the mesh, in
// multi-flit serialization, at the SDCs, waiting in an MT's MSHR, or staged
// on an MT or port output queue.
func (r *allocRig) inFlight() int {
	s := r.s
	n := int(s.mesh.Injected()-s.mesh.Delivered()) + len(s.delayed) + len(s.sdcQ[0]) + len(s.sdcQ[1])
	for _, mt := range s.mts {
		n += len(mt.waiters) + mt.outQ.Len()
	}
	for _, p := range s.order {
		n += p.outQ.Len()
	}
	return n
}

func (r *allocRig) tick() {
	r.s.Tick()
	r.peak = max(r.peak, r.inFlight())
}

// run submits one request and ticks until it completes and every message
// it caused (a write-back to SDRAM included) has drained.
func (r *allocRig) run(addr uint64, n int, write bool) {
	r.req.Addr, r.req.N, r.req.IsWrite, r.req.Data = addr, n, write, nil
	if write {
		r.req.Data = r.buf[:n]
	}
	r.done = false
	for !r.p.Submit(&r.req) {
		r.tick()
	}
	r.peak = max(r.peak, r.inFlight())
	for i := 0; !r.done || r.inFlight() > 0; i++ {
		if i > 5000 {
			r.t.Fatalf("request at %#x never drained", addr)
		}
		r.tick()
	}
}

// TestTransactionAllocs pins the memory path's steady state: once the
// message pool, the MT queues and the bank's ways are warm, an L2 read hit,
// a read miss that fills from SDRAM and evicts a dirty line, and a write
// allocate nothing. (A read split across two lines still allocates its
// reassembly record.)
func TestTransactionAllocs(t *testing.T) {
	const base = 0x100000
	r := newAllocRig(t, base+200*setSpan)
	r.run(base, 8, false) // miss: fills the line
	if a := testing.AllocsPerRun(100, func() { r.run(base+8, 8, false) }); a != 0 {
		t.Errorf("L2 read hit: %.1f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { r.run(base+16, 8, true) }); a != 0 {
		t.Errorf("L2 write: %.1f allocs, want 0", a)
	}

	// Every line of the set is written right after it is filled, so each
	// fresh read misses, fills from SDRAM and evicts a dirty line.
	next := uint64(base)
	missEvict := func() {
		next += setSpan
		r.run(next, 8, false)
		r.run(next, 8, true)
	}
	for i := 0; i < 8; i++ {
		missEvict()
	}
	before := r.s.Report()
	const runs = 50
	if a := testing.AllocsPerRun(runs, missEvict); a != 0 {
		t.Errorf("read miss with dirty eviction: %.1f allocs, want 0", a)
	}
	after := r.s.Report()
	if got := after.SDRAMWrites - before.SDRAMWrites; got != runs+1 {
		t.Errorf("read misses wrote back %d dirty lines, want one per miss (%d)", got, runs+1)
	}
	if got := after.LineTransfers - before.LineTransfers; got != runs+1 {
		t.Errorf("%d line fills, want one per miss (%d)", got, runs+1)
	}
}

// TestMessagePoolBounded checks that the message recycle list holds no more
// shells than were ever in flight at once: requests take their shells from
// the pool, so it does not grow with the number of requests served.
func TestMessagePoolBounded(t *testing.T) {
	const span = 2 << 20 // twice the L2: misses and dirty evictions
	r := newAllocRig(t, span)
	rng := rand.New(rand.NewSource(1))
	var at1000 int
	for i := 1; i <= 4000; i++ {
		r.run(uint64(rng.Intn(span/8))*8, 8, rng.Intn(2) == 0)
		if i == 1000 {
			at1000 = len(r.s.free)
		}
	}
	t.Logf("recycle list: %d shells after 1000 requests, %d after 4000; peak in flight between ticks %d", at1000, len(r.s.free), r.peak)
	// An SDC completion takes its response's shell before it frees the
	// request's (a refused injection retries the request), so the true peak
	// can exceed the between-tick count by one.
	if got := len(r.s.free); got > r.peak+1 {
		t.Errorf("recycle list holds %d shells after 4000 requests; at most %d were in flight", got, r.peak+1)
	}
	if got := len(r.s.free); got != at1000 {
		t.Errorf("recycle list grew from %d shells after 1000 requests to %d after 4000", at1000, got)
	}
}
