package micronet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"trips/internal/ckpt"
)

// The horizon queries answer from the mesh's resident index (occRouters,
// busyEdges and the transit memo). The references below are the full-grid
// scans those queries replaced, kept here as the oracle: every router, every
// port, every link, no index and no memo.

func encTestMsg(w *ckpt.Writer, msg *testMsg) {
	w.Int(msg.id)
	w.Int(msg.dest.Row)
	w.Int(msg.dest.Col)
}

func decTestMsg(r *ckpt.Reader) *testMsg {
	return &testMsg{id: r.Int(), dest: Coord{r.Int(), r.Int()}}
}

type residentRec struct {
	id       int
	at, dest Coord
}

func gridResidents(m *Mesh[*testMsg]) []residentRec {
	var out []residentRec
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			rt := &m.routers[r][c]
			for d := North; d <= Local; d++ {
				if rt.inFull[d] {
					out = append(out, residentRec{rt.inBuf[d].id, rt.at, rt.inBuf[d].dest})
				}
			}
			for i := 0; i < rt.outQ.Len(); i++ {
				out = append(out, residentRec{rt.outQ.At(i).id, rt.at, rt.outQ.At(i).dest})
			}
		}
	}
	for i := range m.edges {
		e := &m.edges[i]
		if e.link.hasIn {
			out = append(out, residentRec{e.link.in.id, e.dst.at, e.link.in.dest})
		}
		if e.link.hasOut {
			out = append(out, residentRec{e.link.out.id, e.dst.at, e.link.out.dest})
		}
	}
	return out
}

func sortResidents(rs []residentRec) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].id < rs[j].id })
}

func gridSoloTransit(m *Mesh[*testMsg]) (Coord, Dir, bool) {
	if m.bufOcc != 1 || m.linkBusy != 0 || m.pendingDeliv != 0 {
		return Coord{}, Local, false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			rt := &m.routers[r][c]
			for d := North; d < numDirs; d++ {
				if rt.inFull[d] {
					return rt.at, d, true
				}
			}
		}
	}
	return Coord{}, Local, false
}

func gridTransitSet(m *Mesh[*testMsg]) (set []transitMsg[*testMsg], window int64, ok bool) {
	if m.linkBusy != 0 || m.pendingDeliv != 0 || m.bufOcc == 0 || m.bufOcc > maxTransitSet {
		return nil, 0, false
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			rt := &m.routers[r][c]
			for d := North; d <= Local; d++ {
				if rt.inFull[d] {
					set = append(set, transitMsg[*testMsg]{msg: rt.inBuf[d], pos: rt.at, in: d, dest: rt.inBuf[d].Dest()})
				}
			}
		}
	}
	return set, transitWindow(set, m.Rows, m.Cols), true
}

func sortTransit(set []transitMsg[*testMsg]) []transitMsg[*testMsg] {
	out := append([]transitMsg[*testMsg](nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i].msg.id < out[j].msg.id })
	return out
}

func gridEarliestArrival(m *Mesh[*testMsg]) int64 {
	if m.pendingDeliv > 0 {
		return 0
	}
	h := HorizonNever
	for _, r := range gridResidents(m) {
		h = MinHorizon(h, int64(r.at.Manhattan(r.dest))+1)
	}
	return h
}

// checkResidentQueries compares every resident-indexed query with its
// full-grid reference on the mesh's current state.
func checkResidentQueries(t *testing.T, m *Mesh[*testMsg], when string) {
	t.Helper()
	var got []residentRec
	m.VisitResidents(func(msg *testMsg, at Coord) { got = append(got, residentRec{msg.id, at, msg.dest}) })
	want := gridResidents(m)
	sortResidents(got)
	sortResidents(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: VisitResidents = %v, grid scan %v", when, got, want)
	}
	if n := m.bufOcc + m.linkBusy + m.pendingDeliv; n != len(want) {
		t.Fatalf("%s: occupancy counters say %d residents, grid scan found %d", when, n, len(want))
	}

	rt, in, ok := m.soloTransit()
	wantAt, wantIn, wantOK := gridSoloTransit(m)
	if ok != wantOK || ok && (rt.at != wantAt || in != wantIn) {
		t.Fatalf("%s: soloTransit = (%v, %v, %v), grid scan (%v, %v, %v)", when, rt, in, ok, wantAt, wantIn, wantOK)
	}

	set, w, ok := m.transitSet()
	wantSet, wantW, wantOK := gridTransitSet(m)
	if ok != wantOK || w != wantW || fmt.Sprint(sortTransit(set)) != fmt.Sprint(sortTransit(wantSet)) {
		t.Fatalf("%s: transitSet = (%v, %d, %v), grid scan (%v, %d, %v)", when, sortTransit(set), w, ok, sortTransit(wantSet), wantW, wantOK)
	}
	if b, okb := m.TransitBoundMulti(); okb != wantOK || okb && b != wantW+1 {
		t.Fatalf("%s: TransitBoundMulti = (%d, %v), grid scan window %d ok %v", when, b, okb, wantW, wantOK)
	}
	if ok != m.Latched() {
		t.Fatalf("%s: Latched = %v but transitSet ok = %v", when, m.Latched(), ok)
	}

	if ea, want := m.EarliestArrival(), gridEarliestArrival(m); ea != want {
		t.Fatalf("%s: EarliestArrival = %d, grid scan %d", when, ea, want)
	}
}

// TestResidentIndexMatchesGridScanFuzz drives random interleavings of every
// operation that moves a message — Inject, Tick, Propagate, Pop, PopDelivery,
// SkipTicks, and a SaveState/LoadState round trip into a fresh mesh — on
// the OPN and OCN geometries, and after every
// single operation holds VisitResidents, soloTransit, transitSet (with its
// memoized window) and EarliestArrival equal to the full-grid references.
// Tick and Propagate are fuzzed apart as well as together, so messages sit on
// links and backpressured; deliveries are popped lazily, so they park in outQ
// while their routers linger in occRouters as stale or delivery-only entries.
func TestResidentIndexMatchesGridScanFuzz(t *testing.T) {
	for _, geom := range []struct{ rows, cols int }{{5, 5}, {10, 4}} {
		for seed := int64(1); seed <= 8; seed++ {
			geom, seed := geom, seed
			t.Run(fmt.Sprintf("%dx%d/seed%d", geom.rows, geom.cols, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m := NewMesh[*testMsg]("fz", geom.rows, geom.cols)
				m.DeliveryCap = 1 + int(seed%2)
				nextID := 0
				randCoord := func() Coord { return Coord{rng.Intn(geom.rows), rng.Intn(geom.cols)} }
				// Load alternates between sparse phases, where the mesh is
				// usually Latched and warps apply, and dense phases with
				// contention, link backpressure and more than maxTransitSet
				// residents.
				var skips, loads, stale, parked int
				for step := 0; step < 3000; step++ {
					dense := step/150%2 == 1
					op := rng.Intn(100)
					var when string
					switch {
					case op < 25 && (dense || rng.Intn(4) == 0):
						at := randCoord()
						msg := &testMsg{id: nextID, dest: randCoord()}
						if m.Inject(at, msg) {
							nextID++
						}
						when = "Inject"
					case op < 45:
						m.Tick()
						m.Propagate()
						when = "Tick+Propagate"
					case op < 52:
						m.Tick()
						when = "Tick"
					case op < 59:
						m.Propagate()
						when = "Propagate"
					case op < 70:
						m.Pop(randCoord())
						when = "Pop"
					case op < 78:
						m.PopDelivery()
						when = "PopDelivery"
					case op < 90:
						if !dense && rng.Intn(2) == 0 {
							// Settle toward a Latched state so warps get exercised.
							for _, ok := m.PopDelivery(); ok; _, ok = m.PopDelivery() {
							}
							m.Propagate()
						}
						if _, w, ok := gridTransitSet(m); ok && w > 0 {
							m.SkipTicks(1 + rng.Int63n(w))
							skips++
						} else if m.Quiet() {
							m.SkipTicks(rng.Int63n(5))
						}
						when = "SkipTicks"
					default:
						w := &ckpt.Writer{}
						m.SaveState(w, encTestMsg)
						fresh := NewMesh[*testMsg]("fz", geom.rows, geom.cols)
						fresh.DeliveryCap = m.DeliveryCap
						r := ckpt.NewReader(w.Payload())
						fresh.LoadState(r, decTestMsg)
						if err := r.Close(); err != nil {
							t.Fatalf("step %d: LoadState: %v", step, err)
						}
						m = fresh
						loads++
						when = "LoadState"
					}
					checkResidentQueries(t, m, fmt.Sprintf("step %d after %s", step, when))
					for _, rt := range m.occRouters {
						if rt.occ == 0 && rt.outQ.Empty() {
							stale++
						} else if rt.occ == 0 {
							parked++
						}
					}
				}
				if skips < 20 || loads < 20 || stale == 0 || parked == 0 || nextID < 100 {
					t.Fatalf("fuzz mix too thin: %d warps, %d loads, %d stale and %d delivery-only index entries seen, %d messages", skips, loads, stale, parked, nextID)
				}
			})
		}
	}
}

// BenchmarkMeshVisitResidents is the mesh's share of the lag coordinator's
// exchange rung: one resident walk on the OCN and OPN geometries with four
// messages in flight, the load a single core typically keeps on the OCN.
func BenchmarkMeshVisitResidents(b *testing.B) {
	for _, g := range []struct {
		name       string
		rows, cols int
	}{{"ocn", 10, 4}, {"opn", 5, 5}} {
		b.Run(g.name, func(b *testing.B) {
			m := NewMesh[*testMsg](g.name, g.rows, g.cols)
			for i := 0; i < 4; i++ {
				m.Inject(Coord{i, 0}, &testMsg{id: i, dest: Coord{g.rows - 1 - i, g.cols - 1}})
			}
			m.Tick()
			m.Propagate()
			var sum int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.VisitResidents(func(msg *testMsg, at Coord) { sum += at.Manhattan(msg.dest) })
			}
			if sum == 0 {
				b.Fatal("no residents visited")
			}
		})
	}
}

// TestLoadStateDropsTransitMemo restores, over a mesh with a warm transit
// memo, a state with the same arbitration clock and injection count but a
// different resident — the one case the memo's (tickCount, injected) key
// cannot tell apart by itself.
func TestLoadStateDropsTransitMemo(t *testing.T) {
	a := NewMesh[*testMsg]("m", 10, 4)
	a.Inject(Coord{0, 0}, &testMsg{id: 1, dest: Coord{9, 3}})
	b := NewMesh[*testMsg]("m", 10, 4)
	b.Inject(Coord{5, 2}, &testMsg{id: 2, dest: Coord{5, 0}})
	if bound, ok := a.TransitBoundMulti(); !ok || bound != 13 {
		t.Fatalf("warm-up bound = (%d, %v), want (13, true)", bound, ok)
	}
	w := &ckpt.Writer{}
	b.SaveState(w, encTestMsg)
	a.LoadState(ckpt.NewReader(w.Payload()), decTestMsg)
	checkResidentQueries(t, a, "after LoadState over a warm memo")
	if bound, ok := a.TransitBoundMulti(); !ok || bound != 3 {
		t.Fatalf("restored bound = (%d, %v), want (3, true)", bound, ok)
	}
}
