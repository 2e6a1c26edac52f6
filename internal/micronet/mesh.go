package micronet

import (
	"fmt"

	"trips/internal/obs"
)

// Coord is a (row, column) position on a mesh.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Manhattan returns the hop distance between two coordinates on a mesh.
func (c Coord) Manhattan(o Coord) int {
	return abs(c.Row-o.Row) + abs(c.Col-o.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Dir is a router port direction.
type Dir int

const (
	North Dir = iota
	South
	East
	West
	Local
	numDirs
)

func (d Dir) String() string {
	return [...]string{"N", "S", "E", "W", "L"}[d]
}

// Routable is a message that a Mesh can deliver.
type Routable interface {
	Dest() Coord
}

// Tracked is optionally implemented by messages that want per-hop
// accounting: NoteHop is called once per link traversal, NoteWait once per
// cycle the message loses arbitration or is blocked by a busy link. The
// critical-path analyzer uses these to separate OPN hop latency from OPN
// contention (paper Table 3).
type Tracked interface {
	NoteHop()
	NoteWait()
}

// TraceIdent is optionally implemented by messages that can carry a trace
// identity: Attach-ed meshes stamp a fresh id at injection so the event
// tracer can correlate a message's inject/hop/deliver events.
type TraceIdent interface {
	SetTraceID(uint64)
	TraceID() uint64
}

func traceIDOf[T Routable](msg T) uint64 {
	if ti, ok := any(msg).(TraceIdent); ok {
		return ti.TraceID()
	}
	return 0
}

// router is one mesh node: per-input-port single-entry buffers plus a local
// injection register and a local delivery queue.
type router[T Routable] struct {
	at     Coord
	inBuf  [numDirs]T
	inFull [numDirs]bool
	occ    int8 // occupied entries of inBuf (fast skip for idle routers)
	// listed marks membership in the mesh's resident-router list (see
	// Mesh.occRouters); it may lag the router emptying until the next Tick
	// compacts the list.
	listed bool
	outQ   Queue[T] // delivered messages awaiting the tile
}

// Mesh is a dimension-ordered (X then Y) wormhole mesh of single-flit
// messages: one message per link per cycle, round-robin arbitration per
// output port, one hop per cycle. The TRIPS operand network is a 5x5
// instance (paper Section 3); the on-chip network a 4x10 instance with
// wider payloads (Section 3.6).
type Mesh[T Routable] struct {
	Name       string
	Rows, Cols int
	routers    [][]router[T]
	// links[d][r][c] is the link leaving node (r,c) in direction d.
	links [numDirs][][]*Link[T]
	// edges flattens the existing links in (direction, row, column) order —
	// the exact order the nested Propagate scan visited them — so the
	// per-cycle link walk touches only real links, with the destination
	// router and input port precomputed.
	edges []meshEdge[T]
	// busyEdges tracks edges whose link currently holds a message, so
	// Propagate walks only those. Each edge latches into its own dedicated
	// (router, input-port) buffer, so the walk order cannot affect state.
	busyEdges []*meshEdge[T]
	// occRouters tracks routers holding a message — an occupied input buffer
	// or a delivery awaiting Pop — so Tick and the horizon queries visit only
	// those instead of scanning the grid; with busyEdges it is the mesh's
	// resident index. Routing decisions, claims, and delivery caps are all
	// per-router, and each output link has exactly one source router, so the
	// visit order cannot affect state (the same argument as busyEdges). Stale
	// entries (emptied since) are skipped by readers and dropped at the next
	// Tick.
	occRouters []*router[T]
	// transit memoizes the last transitSet, keyed on (tickCount, injected):
	// in the fully latched state it describes, only Tick, SkipTicks and
	// Inject can change the mesh (Propagate and Pop have nothing to move),
	// and each of them moves one of the two counters. A horizon query and
	// the SkipTicks that acts on it therefore share one resident walk and one
	// window simulation. LoadState drops it explicitly. Only a
	// mesh that is asked for a transit bound carries one (the OCN, not the
	// core's operand networks).
	transit *transitMemo[T]
	// edgeOf[d][r][c] locates the edge record for links[d][r][c].
	edgeOf [numDirs][][]*meshEdge[T]
	// DeliveryCap bounds messages delivered to one tile per cycle
	// (default 1).
	DeliveryCap int

	delivered uint64
	injected  uint64

	// Quiescence accounting: together these make Quiet() O(1) so the core
	// can skip routing and delivery scans on idle cycles. tickCount replaces
	// the per-router round-robin offset — every router used to advance its
	// offset once per Tick in lockstep, so a single mesh-wide counter
	// (advanced even on skipped idle ticks) yields bit-identical arbitration.
	tickCount    int
	bufOcc       int // occupied router input buffers
	linkBusy     int // messages resident on links (sent, not yet latched)
	pendingDeliv int // delivered messages awaiting Pop

	// trace is the optional event tracer (nil = off; see Attach). Every
	// hot-path emission site is gated on one nil check, and emission never
	// mutates routing state, so a traced run is cycle-identical.
	trace *obs.Tracer
	netID uint8
}

// meshEdge is one physical link plus its latch target.
type meshEdge[T Routable] struct {
	link *Link[T]
	dst  *router[T] // receiving router
	in   Dir        // input port at the receiver (opposite of the link's direction)
}

// NewMesh builds a Rows x Cols mesh.
func NewMesh[T Routable](name string, rows, cols int) *Mesh[T] {
	m := &Mesh[T]{Name: name, Rows: rows, Cols: cols, DeliveryCap: 1}
	m.routers = make([][]router[T], rows)
	for r := range m.routers {
		m.routers[r] = make([]router[T], cols)
		for c := range m.routers[r] {
			m.routers[r][c] = router[T]{at: Coord{r, c}}
		}
	}
	for d := North; d < Local; d++ {
		m.links[d] = make([][]*Link[T], rows)
		for r := 0; r < rows; r++ {
			m.links[d][r] = make([]*Link[T], cols)
			for c := 0; c < cols; c++ {
				if nr, nc, ok := step(r, c, d, rows, cols); ok {
					l := NewLink[T](fmt.Sprintf("%s %v->%v", name, Coord{r, c}, Coord{nr, nc}))
					m.links[d][r][c] = l
					m.edges = append(m.edges, meshEdge[T]{link: l, dst: &m.routers[nr][nc], in: opposite(d)})
				}
			}
		}
	}
	// Second pass (edges is fully grown, pointers are stable): index the
	// edge records by (direction, row, column) for the busy-edge tracking.
	for d := North; d < Local; d++ {
		m.edgeOf[d] = make([][]*meshEdge[T], rows)
		for r := 0; r < rows; r++ {
			m.edgeOf[d][r] = make([]*meshEdge[T], cols)
		}
	}
	i := 0
	for d := North; d < Local; d++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if m.links[d][r][c] != nil {
					m.edgeOf[d][r][c] = &m.edges[i]
					i++
				}
			}
		}
	}
	return m
}

func step(r, c int, d Dir, rows, cols int) (int, int, bool) {
	switch d {
	case North:
		r--
	case South:
		r++
	case East:
		c++
	case West:
		c--
	}
	if r < 0 || r >= rows || c < 0 || c >= cols {
		return 0, 0, false
	}
	return r, c, true
}

// route returns the output direction for a message at (r,c): X (columns)
// first, then Y (rows) — deterministic and deadlock-free.
func route(at, dest Coord) Dir {
	switch {
	case dest.Col > at.Col:
		return East
	case dest.Col < at.Col:
		return West
	case dest.Row > at.Row:
		return South
	case dest.Row < at.Row:
		return North
	default:
		return Local
	}
}

// CanInject reports whether node at can accept a new message this cycle.
func (m *Mesh[T]) CanInject(at Coord) bool {
	return !m.routers[at.Row][at.Col].inFull[Local]
}

// Inject offers a message into the network at the given node. It returns
// false if the node's injection register is busy.
func (m *Mesh[T]) Inject(at Coord, msg T) bool {
	rt := &m.routers[at.Row][at.Col]
	if rt.inFull[Local] {
		if tr, ok := any(msg).(Tracked); ok {
			tr.NoteWait()
		}
		return false
	}
	rt.inBuf[Local] = msg
	rt.inFull[Local] = true
	rt.occ++
	m.noteOcc(rt)
	m.bufOcc++
	m.injected++
	if m.trace != nil {
		m.traceInject(at, msg)
	}
	return true
}

// Attach connects an event tracer (nil detaches). net identifies the mesh
// in trace output (obs.NetOPN0, obs.NetOCN, ...).
func (m *Mesh[T]) Attach(tr *obs.Tracer, net uint8) {
	m.trace = tr
	m.netID = net
}

// traceInject stamps a fresh trace id on the message (when it can carry
// one) and records the injection. Tick advances tickCount before tiles
// inject, so the current cycle is tickCount-1.
func (m *Mesh[T]) traceInject(at Coord, msg T) {
	var id uint64
	if ti, ok := any(msg).(TraceIdent); ok {
		id = m.trace.NextID()
		ti.SetTraceID(id)
	}
	m.trace.Emit(obs.Event{
		Cycle: int64(m.tickCount) - 1, Kind: obs.KindNetInject, Net: m.netID,
		Seq: id, Addr: obs.PackCoord(at.Row, at.Col),
		Arg: obs.PackCoord(msg.Dest().Row, msg.Dest().Col),
	})
}

// Deliver peeks at the oldest message delivered to the given node.
func (m *Mesh[T]) Deliver(at Coord) (T, bool) {
	rt := &m.routers[at.Row][at.Col]
	if rt.outQ.Empty() {
		var zero T
		return zero, false
	}
	return rt.outQ.Front(), true
}

// Pop consumes the oldest delivered message at the node.
func (m *Mesh[T]) Pop(at Coord) {
	rt := &m.routers[at.Row][at.Col]
	if !rt.outQ.Empty() {
		rt.outQ.Pop()
		m.pendingDeliv--
	}
}

// PopDelivery consumes the oldest delivered message at the first node, in
// row-major order, that holds one: a client that owns every node drains the
// mesh with it in the order a grid scan of Deliver/Pop would, at the cost of
// the resident routers only.
func (m *Mesh[T]) PopDelivery() (msg T, ok bool) {
	if m.pendingDeliv == 0 {
		return msg, false
	}
	var first *router[T]
	for _, rt := range m.occRouters {
		if !rt.outQ.Empty() && (first == nil || rt.at.Row < first.at.Row ||
			rt.at.Row == first.at.Row && rt.at.Col < first.at.Col) {
			first = rt
		}
	}
	m.pendingDeliv--
	return first.outQ.Pop(), true
}

// Tick runs one routing cycle: every router arbitrates its buffered
// messages onto output links (or local delivery), round-robin per output
// port. Call once per cycle before Propagate. An idle mesh (no buffered
// messages) advances only the arbitration counter.
func (m *Mesh[T]) Tick() {
	off := m.tickCount
	m.tickCount++
	if m.bufOcc == 0 {
		return
	}
	kept := m.occRouters[:0]
	for _, rt := range m.occRouters {
		if rt.occ > 0 {
			m.tickRouter(rt, off)
		}
		if rt.occ > 0 || !rt.outQ.Empty() {
			kept = append(kept, rt)
		} else {
			rt.listed = false
		}
	}
	tail := m.occRouters[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	m.occRouters = kept
}

// noteOcc registers a router in the occupied list when a buffer fills. A
// router already listed (possibly as a stale entry from a previous cycle)
// is not re-added; Tick compacts entries whose buffers have drained.
func (m *Mesh[T]) noteOcc(rt *router[T]) {
	if !rt.listed {
		rt.listed = true
		m.occRouters = append(m.occRouters, rt)
	}
}

func (m *Mesh[T]) tickRouter(rt *router[T], off int) {
	// Collect claims: for each output direction, the input ports wanting it.
	var claimed [numDirs]bool
	delivered := 0
	for k := 0; k < int(numDirs); k++ {
		// Rotate the starting input port each cycle for fairness.
		in := Dir((k + off) % int(numDirs))
		if !rt.inFull[in] {
			continue
		}
		msg := rt.inBuf[in]
		out := route(rt.at, msg.Dest())
		if out == Local {
			if delivered < m.DeliveryCap {
				rt.outQ.Push(msg)
				var zero T
				rt.inBuf[in] = zero
				rt.inFull[in] = false
				rt.occ--
				m.bufOcc--
				m.pendingDeliv++
				delivered++
				m.delivered++
				if m.trace != nil {
					m.trace.Emit(obs.Event{
						Cycle: int64(off), Kind: obs.KindNetDeliver, Net: m.netID,
						Seq: traceIDOf(msg), Addr: obs.PackCoord(rt.at.Row, rt.at.Col),
					})
				}
			} else if tr, ok := any(msg).(Tracked); ok {
				tr.NoteWait()
			}
			continue
		}
		link := m.links[out][rt.at.Row][rt.at.Col]
		if link == nil {
			// Message routed off the edge: drop loudly. Should be
			// impossible for in-range destinations.
			panic(fmt.Sprintf("micronet: %s: message at %v routed %v off mesh (dest %v)", m.Name, rt.at, out, msg.Dest()))
		}
		if claimed[out] || !link.CanSend() {
			if tr, ok := any(msg).(Tracked); ok {
				tr.NoteWait()
			}
			continue
		}
		if !link.Busy() {
			m.busyEdges = append(m.busyEdges, m.edgeOf[out][rt.at.Row][rt.at.Col])
		}
		link.Send(msg)
		claimed[out] = true
		m.linkBusy++
		if tr, ok := any(msg).(Tracked); ok {
			tr.NoteHop()
		}
		if m.trace != nil {
			m.trace.Emit(obs.Event{
				Cycle: int64(off), Kind: obs.KindNetHop, Net: m.netID,
				Seq: traceIDOf(msg), Addr: obs.PackCoord(rt.at.Row, rt.at.Col),
			})
		}
		var zero T
		rt.inBuf[in] = zero
		rt.inFull[in] = false
		rt.occ--
		m.bufOcc--
	}
}

// Propagate advances all busy links one cycle and latches arriving messages
// into router input buffers. Call once per cycle after Tick. Only edges
// whose link holds a message are visited; since every edge latches into its
// own dedicated (router, input-port) buffer, the visit order cannot change
// any outcome.
func (m *Mesh[T]) Propagate() {
	if len(m.busyEdges) == 0 {
		return
	}
	kept := m.busyEdges[:0]
	for _, e := range m.busyEdges {
		e.link.Propagate()
		if msg, ok := e.link.Recv(); ok {
			rt := e.dst
			if rt.inFull[e.in] {
				// Backpressure: the message stays on the link.
				if tr, okt := any(msg).(Tracked); okt {
					tr.NoteWait()
				}
			} else {
				rt.inBuf[e.in] = msg
				rt.inFull[e.in] = true
				rt.occ++
				m.noteOcc(rt)
				m.bufOcc++
				m.linkBusy--
				e.link.Pop()
			}
		}
		if e.link.Busy() {
			kept = append(kept, e)
		}
	}
	tail := m.busyEdges[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	m.busyEdges = kept
}

func opposite(d Dir) Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// soloTransit locates the single in-transit message when the mesh holds
// exactly one: one occupied input buffer, nothing resident on a link, and no
// delivered messages awaiting Pop. Between Propagate and the next Tick a lone
// message is always latched in some router's input buffer (backpressure needs
// a second message), so this is the complete "exactly one message" state.
func (m *Mesh[T]) soloTransit() (*router[T], Dir, bool) {
	if m.bufOcc != 1 || m.linkBusy != 0 || m.pendingDeliv != 0 {
		return nil, Local, false
	}
	for _, rt := range m.occRouters {
		if rt.occ == 0 {
			continue
		}
		for d := North; d < numDirs; d++ {
			if rt.inFull[d] {
				return rt, d, true
			}
		}
	}
	return nil, Local, false
}

// TransitBound returns the exact number of future Ticks after which the
// mesh's single in-transit message is delivered to its destination's output
// queue (its drain deadline), and ok=false when no such bound is computable:
// the mesh is empty, holds more than one message (future arbitration depends
// on interleaving), or has an unpopped delivery. A solo message never loses
// arbitration and never sees backpressure, so it moves exactly one hop per
// Tick — remaining Manhattan distance plus one delivery Tick.
func (m *Mesh[T]) TransitBound() (int64, bool) {
	rt, in, ok := m.soloTransit()
	if !ok {
		return 0, false
	}
	return int64(rt.at.Manhattan(rt.inBuf[in].Dest())) + 1, true
}

// maxTransitSet caps how many co-resident messages the multi-message transit
// analysis considers. Beyond a handful the window is almost always conflict
// limited anyway, and the per-call scan cost grows with k².
const maxTransitSet = 6

// transitMsg is one resident message located during a multi-message transit
// scan: its current router input buffer and destination.
type transitMsg[T Routable] struct {
	msg  T
	pos  Coord
	in   Dir
	dest Coord
}

// transitMemo is a transit set with its window and the (tickCount, injected)
// it was computed at; see Mesh.transit.
type transitMemo[T Routable] struct {
	tick     int
	injected uint64
	set      [maxTransitSet]transitMsg[T]
	n        int
	window   int64
}

// Latched reports, in O(1), whether every resident message sits in a router
// input buffer — nothing on links, nothing awaiting Pop — and there are
// between 1 and maxTransitSet of them: exactly the states TransitBoundMulti
// can bound and SkipTicks can replay.
func (m *Mesh[T]) Latched() bool {
	return m.linkBusy == 0 && m.pendingDeliv == 0 && m.bufOcc > 0 && m.bufOcc <= maxTransitSet
}

// transitSet collects every resident message of a Latched mesh, with the
// set's conflict-free window (transitWindow). In that state each message's
// future is governed only by dimension-ordered routing and arbitration
// between the collected messages themselves. The result is served from the
// memo when the mesh has not moved since the last call (see Mesh.transit).
func (m *Mesh[T]) transitSet() (set []transitMsg[T], window int64, ok bool) {
	if !m.Latched() {
		return nil, 0, false
	}
	t := m.transit
	if t == nil || t.tick != m.tickCount || t.injected != m.injected {
		if t == nil {
			t = &transitMemo[T]{}
			m.transit = t
		}
		t.n = 0
		for _, rt := range m.occRouters {
			if rt.occ == 0 {
				continue
			}
			for d := North; d <= Local; d++ {
				if rt.inFull[d] {
					t.set[t.n] = transitMsg[T]{msg: rt.inBuf[d], pos: rt.at, in: d, dest: rt.inBuf[d].Dest()}
					t.n++
				}
			}
		}
		t.window = transitWindow(t.set[:t.n], m.Rows, m.Cols)
		t.tick, t.injected = m.tickCount, m.injected
	}
	return t.set[:t.n], t.window, true
}

// transitWindow returns the number of future Ticks over which every message
// in the set provably advances exactly one hop per Tick: no two messages
// claim the same output link on the same Tick (link-disjoint trajectories
// under deterministic X-then-Y routing), and no message reaches its
// destination inside the window (delivery arbitration is excluded, so the
// window is also capped at the minimum remaining Manhattan distance).
// Within such a window no arbitration loss, link stall, or buffer
// backpressure can occur, so the mesh evolution is a pure per-hop replay.
func transitWindow[T Routable](set []transitMsg[T], rows, cols int) int64 {
	w := -1
	for _, t := range set {
		if d := t.pos.Manhattan(t.dest); w < 0 || d < w {
			w = d
		}
	}
	if w <= 0 {
		return 0
	}
	if len(set) == 1 {
		return int64(w) // a solo message has nobody to contend with
	}
	var pos [maxTransitSet]Coord
	for i, t := range set {
		pos[i] = t.pos
	}
	for tick := 0; tick < w; tick++ {
		var outs [8]Dir
		for i := range set {
			out := route(pos[i], set[i].dest)
			outs[i] = out
			for j := 0; j < i; j++ {
				if pos[j] == pos[i] && outs[j] == out {
					return int64(tick) // two messages claim the same link this Tick
				}
			}
		}
		for i := range set {
			nr, nc, _ := step(pos[i].Row, pos[i].Col, outs[i], rows, cols)
			pos[i] = Coord{Row: nr, Col: nc}
		}
	}
	return int64(w)
}

// TransitBoundMulti generalizes TransitBound to up to maxTransitSet resident
// messages: it returns the next Tick (counted from now) at which the mesh's
// evolution stops being a pure one-hop-per-message replay — either the
// nearest message's delivery Tick or the first Tick where two trajectories
// contend for a link. Warping callers may SkipTicks up to bound-1 cycles and
// must step the bound-th Tick. ok=false when the mesh is empty, a message is
// mid-link or awaiting Pop, or more than maxTransitSet messages are resident.
func (m *Mesh[T]) TransitBoundMulti() (int64, bool) {
	_, w, ok := m.transitSet()
	return w + 1, ok
}

// SkipTicks advances the mesh by n cycles without per-cycle routing, replaying
// exactly the state n Ticks would have produced. On an empty mesh that is just
// the round-robin arbitration counter. With a single message in transit the
// message is teleported n hops along its dimension-ordered route (n must not
// exceed its remaining hop count — callers bound the warp by TransitBound),
// replaying the per-hop accounting a stepped run would have made: one NoteHop
// and one link send per traversed link, and the latch into the next router's
// opposite input port. A solo message can neither lose arbitration nor stall,
// so no NoteWait and no link stall can occur on the skipped cycles.
// Clock-warping callers rely on this replay being bit-exact.
func (m *Mesh[T]) SkipTicks(n int64) {
	start := int64(m.tickCount)
	if n <= 0 || m.Quiet() {
		m.tickCount += int(n)
		return
	}
	set, w, ok := m.transitSet()
	if !ok {
		panic(fmt.Sprintf("micronet: %s: SkipTicks(%d) on a mesh that is not fully buffer-latched (bufOcc=%d linkBusy=%d pendingDeliv=%d)",
			m.Name, n, m.bufOcc, m.linkBusy, m.pendingDeliv))
	}
	if w < n {
		panic(fmt.Sprintf("micronet: %s: SkipTicks(%d) exceeds the %d-message conflict-free transit window (%d)",
			m.Name, n, len(set), w))
	}
	m.tickCount += int(n)
	// Lift every message out of its buffer, then replay each trajectory n
	// hops. The window check above guarantees the trajectories are
	// link-disjoint per Tick and deliver nothing, so per-message replay in
	// any order reproduces exactly the state n stepped Ticks would build.
	var zero T
	for _, t := range set {
		rt := &m.routers[t.pos.Row][t.pos.Col]
		rt.inBuf[t.in] = zero
		rt.inFull[t.in] = false
		rt.occ--
	}
	for k, t := range set {
		msg, pos, in := t.msg, t.pos, t.in
		tr, tracked := any(msg).(Tracked)
		for i := int64(0); i < n; i++ {
			out := route(pos, t.dest)
			m.links[out][pos.Row][pos.Col].sent++
			if tracked {
				tr.NoteHop()
			}
			if m.trace != nil {
				// Replay the hop trace a stepped run would have emitted: the
				// i-th skipped tick would have stamped cycle start+i, keeping
				// per-message hop timestamps monotone across warps.
				m.trace.Emit(obs.Event{
					Cycle: start + i, Kind: obs.KindNetHop, Net: m.netID,
					Seq: traceIDOf(msg), Addr: obs.PackCoord(pos.Row, pos.Col),
				})
			}
			nr, nc, _ := step(pos.Row, pos.Col, out, m.Rows, m.Cols)
			pos = Coord{Row: nr, Col: nc}
			in = opposite(out)
		}
		nrt := &m.routers[pos.Row][pos.Col]
		nrt.inBuf[in] = msg
		nrt.inFull[in] = true
		nrt.occ++
		m.noteOcc(nrt)
		set[k].pos, set[k].in = pos, in
	}
	// The moved set is the memo's own storage: n hops along a conflict-free
	// window leave the same messages with exactly n Ticks less of it, so the
	// horizon query that follows a warp needs no new walk either.
	m.transit.tick, m.transit.window = m.tickCount, w-n
}

// MinTransit returns a lower bound on the number of Ticks a message injected
// at from needs before it can be delivered at to: the Manhattan distance (one
// hop per cycle is the mesh's maximum speed) plus the delivery Tick. The bound
// holds under arbitrary contention — arbitration losses, link stalls, and
// buffer backpressure only delay a message, never accelerate it — which is
// what makes it usable as a response-deadline term: it can be computed from
// endpoint coordinates alone, before the message is even injected.
func (m *Mesh[T]) MinTransit(from, to Coord) int64 {
	return int64(from.Manhattan(to)) + 1
}

// VisitResidents calls fn once for every message currently resident in the
// mesh, extending the solo-transit bound toward multi-message earliest-arrival
// analysis: at reports a position the message must still traverse from, chosen
// so that at.Manhattan(msg.Dest()) is a sound lower bound on the Ticks
// remaining before the message can be delivered — its router for buffered
// messages and delivered-awaiting-Pop messages, and the receiving router for
// messages resident on a link (the link crossing itself is not counted, which
// only weakens the bound). Unlike TransitBoundMulti this never fails on
// contended states: contention delays messages, so per-message Manhattan
// remainders stay valid lower bounds no matter how arbitration resolves.
func (m *Mesh[T]) VisitResidents(fn func(msg T, at Coord)) {
	if m.bufOcc > 0 || m.pendingDeliv > 0 {
		for _, rt := range m.occRouters {
			if rt.occ > 0 {
				for d := North; d <= Local; d++ {
					if rt.inFull[d] {
						fn(rt.inBuf[d], rt.at)
					}
				}
			}
			for i := 0; i < rt.outQ.Len(); i++ {
				fn(rt.outQ.At(i), rt.at)
			}
		}
	}
	for _, e := range m.busyEdges {
		if e.link.hasIn {
			fn(e.link.in, e.dst.at)
		}
		if e.link.hasOut {
			fn(e.link.out, e.dst.at)
		}
	}
}

// EarliestArrival returns a lower bound on the number of future Ticks before
// any resident message can be delivered: zero when a delivery is already
// awaiting Pop, otherwise the minimum over resident messages of the
// per-message Manhattan remainder plus the delivery Tick (the VisitResidents
// bound), and HorizonNever on an empty mesh. Unlike TransitBoundMulti the
// bound never fails on contended multi-message states — contention only
// delays messages — but it is correspondingly weaker: it bounds when the
// next delivery CAN happen, not when the mesh state stops needing per-cycle
// routing, so it must never be used to SkipTicks. Callers use it as a
// next-event floor while Quiet stays false.
func (m *Mesh[T]) EarliestArrival() int64 {
	if m.pendingDeliv > 0 {
		return 0
	}
	h := HorizonNever
	m.VisitResidents(func(msg T, at Coord) {
		if b := int64(at.Manhattan(msg.Dest())) + 1; b < h {
			h = b
		}
	})
	return h
}

// Quiet reports whether no messages are anywhere in the network: no occupied
// router buffers, nothing resident on a link, and no delivered messages
// awaiting Pop. O(1) via the quiescence counters.
func (m *Mesh[T]) Quiet() bool {
	return m.bufOcc == 0 && m.linkBusy == 0 && m.pendingDeliv == 0
}

// PendingDeliveries returns the number of delivered messages that tiles have
// not yet popped. The core's delivery pump skips its grid scan when zero.
func (m *Mesh[T]) PendingDeliveries() int { return m.pendingDeliv }

// Injected and Delivered return lifetime message counts.
func (m *Mesh[T]) Injected() uint64  { return m.injected }
func (m *Mesh[T]) Delivered() uint64 { return m.delivered }

// Occupancy returns the number of messages currently resident in the mesh
// (router buffers plus links), a cheap O(1) sampling source.
func (m *Mesh[T]) Occupancy() int { return m.bufOcc + m.linkBusy }

// LinksBusy returns the number of links currently carrying a message.
func (m *Mesh[T]) LinksBusy() int { return m.linkBusy }

// NumLinks returns the number of physical links in the mesh.
func (m *Mesh[T]) NumLinks() int { return len(m.edges) }
