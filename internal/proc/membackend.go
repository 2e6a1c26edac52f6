package proc

import (
	"trips/internal/mem"
	"trips/internal/micronet"
)

// MemRequest is one secondary-memory transaction issued by a DT (L1 miss,
// writeback) or IT (I-cache refill) through its private port into the
// on-chip network (paper Section 3.6: "each IT/DT pair has its own private
// port into the secondary memory system").
type MemRequest struct {
	Addr    uint64
	N       int
	Data    []byte // write payload
	IsWrite bool
	// Done is invoked when the transaction completes; for reads it carries
	// the data.
	//
	// Buffers are lent, never handed over: a read's Done(data) may use data
	// only for the duration of the call (the backend reuses the buffer, so a
	// caller that keeps the bytes copies them), and Submit copies a write's
	// Data before it returns.
	Done func(data []byte)
	// Origin identifies the requester and carries enough context to rebuild
	// Done after a checkpoint restore (closures cannot be serialized). A
	// request with OriginNone has no completion side effects beyond the
	// write itself, so its Done restores as nil.
	Origin Origin
}

// OriginKind discriminates the issuers of MemRequests for checkpointing.
type OriginKind uint8

const (
	OriginNone            OriginKind = iota // writeback: no Done callback
	OriginDTFetch                           // DT line fetch (miss or write-allocate)
	OriginDTUncachedLoad                    // DT uncacheable load
	OriginDTUncachedStore                   // DT uncacheable committed store
	OriginITRefill                          // IT distributed I-cache refill chunk
	OriginDMARead                           // chip DMA engine read
	OriginDMAWrite                          // chip DMA engine write
)

// Origin describes who issued a request. Tile is the DT/IT index (or DMA
// engine id); msg carries the uncacheable load's request message, which the
// in-flight closure solely owns.
type Origin struct {
	Kind OriginKind
	Tile int
	msg  *opnMsg
}

// OriginResolver rebuilds a decoded MemRequest's Done callback from its
// Origin. The Core resolves tile-issued requests; the chip wraps it to also
// resolve DMA-issued ones.
type OriginResolver interface {
	ResolveOrigin(req *MemRequest)
}

// ResolverFunc adapts a function to OriginResolver (the chip composes the
// two cores' resolvers and its own DMA resolution this way).
type ResolverFunc func(req *MemRequest)

func (f ResolverFunc) ResolveOrigin(req *MemRequest) { f(req) }

// MemPort accepts transactions from one tile. Submit returns false when the
// port cannot accept a request this cycle (backpressure).
type MemPort interface {
	Submit(req *MemRequest) bool
}

// MemBackend is the secondary memory system behind the core's ports: the
// NUCA L2 + SDRAM in the full chip, or a fixed-latency model in unit tests.
type MemBackend interface {
	// Port returns the private port for the named client. Names are of the
	// form "dt0".."dt3" and "it0".."it4".
	Port(name string) MemPort
	// Tick advances the memory system one cycle.
	Tick()
}

// FixedLatencyMem is a simple MemBackend: every transaction completes a
// fixed number of cycles after submission, one new transaction per port per
// cycle, backed by a flat memory. Used for unit tests and as the paper's
// "perfect L2" configuration (Section 5.4 normalizes the secondary memory
// system out of the TRIPS/Alpha comparison).
type FixedLatencyMem struct {
	Mem     *mem.Memory
	Latency int
	ports   map[string]*fixedPort
	order   []*fixedPort // deterministic tick order
	cycle   int64
	pending int // outstanding transactions across all ports (fast idle tick)
	// rbuf is the buffer every read completion lends to its Done.
	rbuf []byte
}

// NewFixedLatencyMem builds the backend over m with the given latency.
func NewFixedLatencyMem(m *mem.Memory, latency int) *FixedLatencyMem {
	return &FixedLatencyMem{Mem: m, Latency: latency, ports: make(map[string]*fixedPort)}
}

type fixedPort struct {
	parent  *FixedLatencyMem
	lastSub int64
	queue   micronet.Queue[pendingReq]
	// free recycles the write-payload copies of completed writes.
	free [][]byte
}

// pendingReq is a queued transaction; data is the backend's own copy of a
// write's payload, taken at Submit.
type pendingReq struct {
	req  *MemRequest
	when int64
	data []byte
}

// Port implements MemBackend.
func (f *FixedLatencyMem) Port(name string) MemPort {
	p, ok := f.ports[name]
	if !ok {
		p = &fixedPort{parent: f, lastSub: -1}
		f.ports[name] = p
		f.order = append(f.order, p)
	}
	return p
}

// Submit implements MemPort: at most one request per cycle per port.
func (p *fixedPort) Submit(req *MemRequest) bool {
	if p.lastSub == p.parent.cycle {
		return false
	}
	p.lastSub = p.parent.cycle
	pr := pendingReq{req: req, when: p.parent.cycle + int64(p.parent.Latency)}
	if req.IsWrite && req.Data != nil {
		buf := []byte{}
		if n := len(p.free); n > 0 {
			buf, p.free = p.free[n-1], p.free[:n-1]
		}
		pr.data = append(buf[:0], req.Data...)
	}
	p.queue.Push(pr)
	p.parent.pending++
	return true
}

// Quiet implements EventHorizon: a FixedLatencyMem tick does no per-cycle
// work beyond draining deadline-held completions, so it is always warpable.
func (f *FixedLatencyMem) Quiet() bool { return true }

// NextEventCycle implements EventHorizon: the earliest completion deadline
// across all ports, or horizonNever when nothing is outstanding.
func (f *FixedLatencyMem) NextEventCycle() int64 {
	if f.pending == 0 {
		return horizonNever
	}
	h := horizonNever
	for _, p := range f.order {
		if p.queue.Len() > 0 && p.queue.Front().when < h {
			h = p.queue.Front().when
		}
	}
	return h
}

// Warp implements EventHorizon: every skipped tick would only have
// incremented the clock (no deadline within delta), so advancing the clock
// is the complete state change.
func (f *FixedLatencyMem) Warp(delta int64) { f.cycle += delta }

// Tick implements MemBackend.
func (f *FixedLatencyMem) Tick() {
	f.cycle++
	if f.pending == 0 {
		return
	}
	for _, p := range f.order {
		for p.queue.Len() > 0 && p.queue.Front().when <= f.cycle {
			pr := p.queue.Pop()
			f.pending--
			if pr.req.IsWrite {
				f.Mem.WriteBytes(pr.req.Addr, pr.data)
				if pr.data != nil {
					p.free = append(p.free, pr.data)
				}
				if pr.req.Done != nil {
					pr.req.Done(nil)
				}
			} else {
				if cap(f.rbuf) < pr.req.N {
					f.rbuf = make([]byte, pr.req.N)
				}
				data := f.rbuf[:pr.req.N]
				f.Mem.ReadInto(pr.req.Addr, data)
				if pr.req.Done != nil {
					pr.req.Done(data)
				}
			}
		}
	}
}
