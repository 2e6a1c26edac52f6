package nuca

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/proc"
)

// ocnResident is one message found in the OCN by gridResidents, at the
// position VisitResidents would report it.
type ocnResident struct {
	msg *ocnMsg
	at  micronet.Coord
}

// gridResidents is the full-grid reference for Mesh.VisitResidents from
// outside the micronet package: it decodes the mesh's checkpoint image, which
// SaveState writes by walking every router, port, delivery queue and link in
// grid order with no resident index involved. Link-resident messages are
// placed at the receiving router, as VisitResidents places them.
func gridResidents(t *testing.T, s *System) []ocnResident {
	t.Helper()
	w := &ckpt.Writer{}
	s.mesh.SaveState(w, encOCNMsg)
	r := ckpt.NewReader(w.Payload())
	r.Section("mesh:ocn")
	r.Int()
	r.U64()
	r.U64()
	var out []ocnResident
	for row := 0; row < Rows; row++ {
		for col := 0; col < Cols; col++ {
			at := micronet.Coord{Row: row, Col: col}
			for d := micronet.North; d <= micronet.Local; d++ {
				if r.Bool() {
					out = append(out, ocnResident{decOCNMsg(r), at})
				}
			}
			for n := r.Int(); n > 0; n-- {
				out = append(out, ocnResident{decOCNMsg(r), at})
			}
		}
	}
	for d := micronet.North; d < micronet.Local; d++ {
		for row := 0; row < Rows; row++ {
			for col := 0; col < Cols; col++ {
				to := micronet.Coord{Row: row, Col: col}
				switch d {
				case micronet.North:
					to.Row--
				case micronet.South:
					to.Row++
				case micronet.East:
					to.Col++
				case micronet.West:
					to.Col--
				}
				if to.Row < 0 || to.Row >= Rows || to.Col < 0 || to.Col >= Cols {
					continue // no such link
				}
				for reg := 0; reg < 2; reg++ {
					if r.Bool() {
						out = append(out, ocnResident{decOCNMsg(r), to})
					}
				}
				r.U64()
				r.U64()
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("decoding the mesh image: %v", err)
	}
	return out
}

// refResponseDeadlines is the computation ResponseDeadlineFor replaced, kept
// as its oracle: copy every tracked deadline out of the id map, ratchet the
// copies from a full-grid scan of the mesh and from the serialization queue,
// fold the per-owner minimum by iterating the map, then price the staged
// port transactions. It never writes to the book.
func refResponseDeadlines(t *testing.T, s *System) [maxOwners]int64 {
	t.Helper()
	at := make(map[int]int64, len(s.respDeadline))
	for id, e := range s.respDeadline {
		at[id] = e.at
	}
	raise := func(id int, nd int64) {
		if old, ok := at[id]; ok && nd > old {
			at[id] = nd
		}
	}
	for _, res := range gridResidents(t, s) {
		if res.msg.kind == mkResp {
			raise(res.msg.id, s.cycle+int64(res.at.Manhattan(res.msg.dst)))
		}
	}
	for _, d := range s.delayed {
		if d.msg.kind == mkResp {
			raise(d.msg.id, d.readyAt)
		}
	}
	var min [maxOwners]int64
	for i := range min {
		min[i] = horizonNever
	}
	for id, d := range at {
		if o := s.respDeadline[id].port.owner; o >= 0 && d < min[o] {
			min[o] = d
		}
	}
	for _, p := range s.order {
		if p.owner < 0 {
			continue
		}
		for i := 0; i < p.outQ.Len(); i++ {
			it := p.outQ.At(i)
			st := it.stamp
			if st < s.cycle {
				st = s.cycle
			}
			mt := s.mtGrid[it.msg.dst.Row][it.msg.dst.Col]
			if d := st + 1 + 2*p.mtDist[mt.index]; d < min[p.owner] {
				min[p.owner] = d
			}
		}
	}
	return min
}

// refHorizon is the one-scan Quiet/NextEventCycle computation that System.Quiet
// (now the mesh's occupancy counters alone) and System.NextEventCycle (now
// the mesh asked last, or not at all) replaced, kept as their oracle.
func refHorizon(s *System) (bool, int64) {
	quiet := true
	h := horizonNever
	if !s.mesh.Quiet() {
		if tb, ok := s.mesh.TransitBoundMulti(); ok {
			h = micronet.MinHorizon(h, s.cycle+tb)
		} else {
			quiet = false
			if ea := s.mesh.EarliestArrival(); ea != micronet.HorizonNever {
				h = micronet.MinHorizon(h, s.cycle+ea)
			}
		}
	}
	for _, d := range s.delayed {
		h = micronet.MinHorizon(h, d.readyAt)
	}
	for sdc := 0; sdc < 2; sdc++ {
		for _, j := range s.sdcQ[sdc] {
			h = micronet.MinHorizon(h, j.readyAt)
		}
	}
	if s.mtStaged > 0 {
		h = micronet.MinHorizon(h, s.cycle+1)
	}
	for _, p := range s.order {
		if !p.outQ.Empty() {
			d := p.outQ.Front().stamp + 1
			if d < s.cycle+1 {
				d = s.cycle + 1
			}
			h = micronet.MinHorizon(h, d)
		}
	}
	return quiet, h
}

// auditDeadlineBook checks that the id lookup and the dense per-owner lists
// of the deadline book hold exactly the same entries, each at its recorded
// slot, and that no live entry sits in the recycle pool.
func auditDeadlineBook(t *testing.T, s *System) {
	t.Helper()
	listed := 0
	for owner := range s.rdByOwner {
		for slot, e := range s.rdByOwner[owner] {
			if e.slot != slot || e.port.owner != owner || s.respDeadline[e.id] != e {
				t.Fatalf("cycle %d: owner %d slot %d holds entry %+v, id lookup %p", s.cycle, owner, slot, *e, s.respDeadline[e.id])
			}
			listed++
		}
	}
	unowned := 0
	for _, e := range s.respDeadline {
		if e.port.owner < 0 {
			unowned++
		}
	}
	if listed+unowned != len(s.respDeadline) {
		t.Fatalf("cycle %d: %d entries listed per owner + %d unowned, id lookup has %d", s.cycle, listed, unowned, len(s.respDeadline))
	}
	for _, e := range s.rdFree {
		if s.respDeadline[e.id] == e {
			t.Fatalf("cycle %d: live entry %d is in the recycle pool", s.cycle, e.id)
		}
	}
}

// TestCrossCoreLagPropertyFuzz validates the visibility horizon L that the
// bounded-lag coordinator builds its strides on: a core submitting a request
// at local cycle t can never observe the response's effects before backend
// cycle t+L. The test fuzzes the placement inputs L is derived from — port
// count (which moves the NT rows), partitioning (which restricts reachable
// MTs), scratchpad mode, and a random request mix including line-splitting
// sizes — and asserts the bound on every completed transaction. If a future
// change shortens the OCN round trip (fewer hops, faster banks) without
// CrossCoreLag tracking it, this fails before the coordinator's effect gate
// starts panicking on real workloads.
func TestCrossCoreLagPropertyFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			partition := seed%2 == 0
			scratch := seed%3 == 0
			sys := New(Config{Backing: mem.New(), Partition: partition, Scratchpad: scratch})
			nPorts := 1 + rng.Intn(5)
			var ports []proc.MemPort
			for i := 0; i < nPorts; i++ {
				name := fmt.Sprintf("fz%d", i)
				if partition && i%2 == 1 {
					name = "p1:" + name
				}
				ports = append(ports, sys.Port(name))
			}
			sys.AssignOwners(func(name string) int {
				if strings.HasPrefix(name, "p1:") {
					return 1
				}
				return 0
			})
			var clock [2]int64
			sys.BindClock(0, func() int64 { return clock[0] })
			sys.BindClock(1, func() int64 { return clock[1] })
			L := sys.CrossCoreLag()
			if L < 5 {
				t.Fatalf("CrossCoreLag = %d, below the geometric minimum 5 (ports on col 3, MTs on cols 0-1)", L)
			}

			checked := 0
			observe := func(submitCycle int64) func([]byte) {
				return func([]byte) {
					if got := sys.Cycle() - submitCycle; got < L {
						t.Errorf("response effect %d cycles after submit, horizon promises >= %d", got, L)
					}
					checked++
				}
			}
			for cyc := int64(0); cyc < 600; cyc++ {
				clock[0], clock[1] = cyc, cyc
				for _, p := range ports {
					if rng.Intn(4) != 0 {
						continue
					}
					addr := uint64(rng.Intn(1 << 18))
					n := 1 + rng.Intn(2*LineBytes)
					req := &proc.MemRequest{Addr: addr, Done: observe(cyc)}
					if rng.Intn(2) == 0 {
						data := make([]byte, n)
						rng.Read(data)
						req.IsWrite = true
						req.Data = data
					} else {
						req.N = n
					}
					p.Submit(req) // refusals (full port queue) just drop the probe
				}
				sys.Tick()
			}
			for i := 0; i < 100_000 && sys.Outstanding() > 0; i++ {
				sys.Tick()
			}
			if n := sys.Outstanding(); n != 0 {
				t.Fatalf("%d transactions never completed", n)
			}
			if checked < 100 {
				t.Fatalf("only %d transactions observed — fuzz mix too thin to trust", checked)
			}
		})
	}
}

// TestResponseDeadlinePropertyFuzz validates the per-transaction response
// deadlines the bounded-lag coordinator strides on: no response may ever
// dispatch at a port before any deadline the system reported for it — not
// just the final value, but every intermediate ratchet (drain seed, MSHR
// fetch, SDC acceptance, in-mesh tightening), since the coordinator may have
// built a stride on any of them. The test fuzzes the inputs the deadlines
// are derived from — port count and rows, partitioning, scratchpad mode,
// SDRAM latency, and a request mix with line-splitting sizes — and, after
// every tick, ratchets a shadow copy of the live per-id deadlines; an id
// leaving the table means its response dispatched this very tick, which must
// be at or after the shadow bound. It also pins the aggregation contract:
// an owner with outstanding work always has a finite deadline, and every
// ResponseDeadlineFor value equals the map-and-grid computation the dense
// deadline book replaced (refResponseDeadlines), while the book's id lookup
// and its per-owner lists hold the same entries (auditDeadlineBook).
func TestResponseDeadlinePropertyFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			partition := seed%2 == 0
			scratch := seed%3 == 0
			lat := 1 + rng.Intn(90)
			sys := New(Config{Backing: mem.New(), Partition: partition, Scratchpad: scratch, SDRAMLatency: lat})
			nPorts := 1 + rng.Intn(5)
			var ports []proc.MemPort
			for i := 0; i < nPorts; i++ {
				name := fmt.Sprintf("fz%d", i)
				if partition && i%2 == 1 {
					name = "p1:" + name
				}
				ports = append(ports, sys.Port(name))
			}
			sys.AssignOwners(func(name string) int {
				if strings.HasPrefix(name, "p1:") {
					return 1
				}
				return 0
			})
			var clock [2]int64
			sys.BindClock(0, func() int64 { return clock[0] })
			sys.BindClock(1, func() int64 { return clock[1] })

			shadow := make(map[int]int64) // id -> max deadline ever reported
			checked := 0
			peak := 0
			audit := func() {
				auditDeadlineBook(t, sys)
				if n := len(sys.respDeadline); n > peak {
					peak = n
				}
				want := refResponseDeadlines(t, sys)
				for owner := 0; owner < maxOwners; owner++ {
					if got := sys.ResponseDeadlineFor(owner); got != want[owner] {
						t.Fatalf("cycle %d: ResponseDeadlineFor(%d) = %d, map-and-grid reference %d", sys.cycle, owner, got, want[owner])
					}
				}
				if q, h := refHorizon(sys); sys.Quiet() != q || sys.NextEventCycle() != h {
					t.Fatalf("cycle %d: Quiet/NextEventCycle = (%v, %d), one-scan reference (%v, %d)", sys.cycle, sys.Quiet(), sys.NextEventCycle(), q, h)
				}
				for id, e := range sys.respDeadline {
					if e.at > shadow[id] {
						shadow[id] = e.at
					}
				}
				for id, dl := range shadow {
					if _, live := sys.respDeadline[id]; live {
						continue
					}
					// The id left the table: its response dispatched during
					// the tick that just ran, i.e. at the current cycle.
					if sys.cycle < dl {
						t.Errorf("response %d dispatched at cycle %d, before its reported deadline %d", id, sys.cycle, dl)
					}
					delete(shadow, id)
					checked++
				}
				for owner := 0; owner < maxOwners; owner++ {
					if sys.OutstandingFor(owner) > 0 && sys.ResponseDeadlineFor(owner) == horizonNever {
						t.Fatalf("owner %d has %d outstanding transactions but no finite response deadline", owner, sys.OutstandingFor(owner))
					}
				}
			}
			drive := func(cyc int64) {
				clock[0], clock[1] = cyc, cyc
				for _, p := range ports {
					if rng.Intn(4) != 0 {
						continue
					}
					addr := uint64(rng.Intn(1 << 18))
					n := 1 + rng.Intn(2*LineBytes)
					req := &proc.MemRequest{Addr: addr}
					if rng.Intn(2) == 0 {
						data := make([]byte, n)
						rng.Read(data)
						req.IsWrite = true
						req.Data = data
					} else {
						req.N = n
					}
					p.Submit(req) // refusals (full port queue) just drop the probe
				}
			}
			for cyc := int64(0); cyc < 800; cyc++ {
				drive(cyc)
				sys.Tick()
				audit()
			}
			for i := 0; i < 100_000 && sys.Outstanding() > 0; i++ {
				sys.Tick()
				audit()
			}
			if n := sys.Outstanding(); n != 0 {
				t.Fatalf("%d transactions never completed", n)
			}
			if len(sys.respDeadline) != 0 {
				t.Fatalf("%d deadline entries leaked past their responses", len(sys.respDeadline))
			}
			if n := len(sys.rdFree); n != peak {
				t.Fatalf("%d deadline entries allocated for a peak of %d live ones over %d transactions: not recycling", n, peak, checked)
			}
			if checked < 100 {
				t.Fatalf("only %d transactions audited — fuzz mix too thin to trust", checked)
			}
		})
	}
}
