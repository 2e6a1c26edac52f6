package micronet

import "testing"

// meshState flattens every piece of mesh state a skipped-vs-stepped
// comparison must agree on: the arbitration counter, the quiescence
// counters, lifetime stats, and each link's accept/stall counters.
func meshState(m *Mesh[*testMsg]) map[string]int64 {
	s := map[string]int64{
		"tick":      int64(m.tickCount),
		"bufOcc":    int64(m.bufOcc),
		"linkBusy":  int64(m.linkBusy),
		"pending":   int64(m.pendingDeliv),
		"injected":  int64(m.injected),
		"delivered": int64(m.delivered),
	}
	for d := North; d < Local; d++ {
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if l := m.links[d][r][c]; l != nil {
					s[l.name+"/sent"] = int64(l.sent)
					s[l.name+"/stalled"] = int64(l.stalled)
				}
			}
		}
	}
	return s
}

func TestTransitBound(t *testing.T) {
	m := NewMesh[*testMsg]("opn", 5, 5)
	if _, ok := m.TransitBound(); ok {
		t.Error("empty mesh reported a transit bound")
	}
	msg := &testMsg{id: 1, dest: Coord{3, 4}}
	m.Inject(Coord{0, 0}, msg)
	// Distance 7, plus one delivery tick.
	if b, ok := m.TransitBound(); !ok || b != 8 {
		t.Errorf("bound after inject = %d,%v, want 8,true", b, ok)
	}
	m.Tick()
	m.Propagate()
	if b, ok := m.TransitBound(); !ok || b != 7 {
		t.Errorf("bound after one hop = %d,%v, want 7,true", b, ok)
	}
	// A second resident message makes the bound incomputable.
	m.Inject(Coord{4, 0}, &testMsg{id: 2, dest: Coord{0, 2}})
	if _, ok := m.TransitBound(); ok {
		t.Error("two-message mesh reported a transit bound")
	}
}

// TestSkipTicksSoloReplayBitIdentical checks the clock-warp replay: skipping
// j ticks of a solo transit must leave the mesh in exactly the state j
// stepped ticks produce — message position, hop count, per-link counters,
// arbitration counter — and the message must still be delivered at the same
// absolute cycle.
func TestSkipTicksSoloReplayBitIdentical(t *testing.T) {
	cases := []struct {
		src, dst Coord
		skip     int64
	}{
		{Coord{0, 0}, Coord{4, 4}, 1},
		{Coord{0, 0}, Coord{4, 4}, 8}, // the full transit
		{Coord{0, 0}, Coord{4, 4}, 5}, // partial: X leg plus part of Y
		{Coord{4, 0}, Coord{0, 4}, 3},
		{Coord{1, 3}, Coord{3, 1}, 4},
		{Coord{2, 2}, Coord{2, 2}, 0}, // distance 0: nothing to skip
	}
	for _, tc := range cases {
		dist := int64(tc.src.Manhattan(tc.dst))
		run := func(skip int64) (*Mesh[*testMsg], *testMsg, int) {
			m := NewMesh[*testMsg]("opn", 5, 5)
			msg := &testMsg{id: 1, dest: tc.dst}
			m.Inject(tc.src, msg)
			m.SkipTicks(skip)
			cycle := int(skip)
			for ; cycle < 100; cycle++ {
				m.Tick()
				if got, ok := m.Deliver(tc.dst); ok {
					if got != msg {
						t.Fatalf("%v->%v: delivered wrong message", tc.src, tc.dst)
					}
					m.Pop(tc.dst)
					m.Propagate()
					return m, msg, cycle
				}
				m.Propagate()
			}
			t.Fatalf("%v->%v skip=%d: never delivered", tc.src, tc.dst, skip)
			return nil, nil, 0
		}
		mA, msgA, cycA := run(0)
		mB, msgB, cycB := run(tc.skip)
		if cycA != cycB {
			t.Errorf("%v->%v skip=%d: delivered at cycle %d, stepped run at %d",
				tc.src, tc.dst, tc.skip, cycB, cycA)
		}
		if msgA.hops != msgB.hops || int64(msgA.hops) != dist {
			t.Errorf("%v->%v skip=%d: hops %d vs stepped %d (dist %d)",
				tc.src, tc.dst, tc.skip, msgB.hops, msgA.hops, dist)
		}
		if msgA.waits != 0 || msgB.waits != 0 {
			t.Errorf("%v->%v skip=%d: solo message recorded waits %d/%d",
				tc.src, tc.dst, tc.skip, msgA.waits, msgB.waits)
		}
		sA, sB := meshState(mA), meshState(mB)
		for k, v := range sA {
			if sB[k] != v {
				t.Errorf("%v->%v skip=%d: state %q = %d, stepped run %d",
					tc.src, tc.dst, tc.skip, k, sB[k], v)
			}
		}
	}
}

func TestSkipTicksContractViolationsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("overshoot", func() {
		m := NewMesh[*testMsg]("opn", 5, 5)
		m.Inject(Coord{0, 0}, &testMsg{id: 1, dest: Coord{0, 2}})
		m.SkipTicks(3) // distance is 2
	})
	mustPanic("conflicting trajectories", func() {
		m := NewMesh[*testMsg]("opn", 5, 5)
		// Both head for (3,1): X-then-Y routing merges them at (1,1) on the
		// second tick, where they claim the same South link — the conflict-free
		// window is 1 tick, so a 2-tick skip must refuse.
		m.Inject(Coord{1, 0}, &testMsg{id: 1, dest: Coord{3, 1}})
		m.Inject(Coord{0, 1}, &testMsg{id: 2, dest: Coord{3, 1}})
		m.SkipTicks(2)
	})
	mustPanic("mid-link", func() {
		m := NewMesh[*testMsg]("opn", 5, 5)
		m.Inject(Coord{0, 0}, &testMsg{id: 1, dest: Coord{0, 2}})
		m.Inject(Coord{4, 4}, &testMsg{id: 2, dest: Coord{0, 2}})
		m.Tick() // both messages move onto links: not a fully latched state
		m.SkipTicks(1)
	})
}

func TestTransitBoundMulti(t *testing.T) {
	m := NewMesh[*testMsg]("ocn", 5, 5)
	if _, ok := m.TransitBoundMulti(); ok {
		t.Error("empty mesh reported a multi-transit bound")
	}
	m.Inject(Coord{0, 0}, &testMsg{id: 1, dest: Coord{3, 4}}) // distance 7
	if b, ok := m.TransitBoundMulti(); !ok || b != 8 {
		t.Errorf("solo bound = %d,%v, want 8,true", b, ok)
	}
	// A second message with a disjoint trajectory: the window is capped by
	// the nearer message's remaining distance (2), so the bound is 3.
	m.Inject(Coord{4, 4}, &testMsg{id: 2, dest: Coord{4, 2}})
	if b, ok := m.TransitBoundMulti(); !ok || b != 3 {
		t.Errorf("disjoint pair bound = %d,%v, want 3,true", b, ok)
	}
	// Converging messages: both claim (1,1)'s South link on the second tick,
	// so only one conflict-free tick remains — bound 2.
	m2 := NewMesh[*testMsg]("ocn", 5, 5)
	m2.Inject(Coord{1, 0}, &testMsg{id: 1, dest: Coord{3, 1}})
	m2.Inject(Coord{0, 1}, &testMsg{id: 2, dest: Coord{3, 1}})
	if b, ok := m2.TransitBoundMulti(); !ok || b != 2 {
		t.Errorf("conflicting pair bound = %d,%v, want 2,true", b, ok)
	}
	// A message mid-link makes the bound incomputable.
	m2.Tick()
	if _, ok := m2.TransitBoundMulti(); ok {
		t.Error("mid-link mesh reported a multi-transit bound")
	}
}

// TestSkipTicksMultiReplayBitIdentical is the multi-message version of the
// solo replay test: skipping j ticks with several link-disjoint messages in
// flight must leave the mesh bit-identical to j stepped ticks, and every
// message must still be delivered at the same absolute cycle with the same
// hop/wait counters.
func TestSkipTicksMultiReplayBitIdentical(t *testing.T) {
	type injection struct {
		src, dst Coord
	}
	cases := []struct {
		name string
		inj  []injection
		skip int64
	}{
		{"two-disjoint", []injection{{Coord{0, 0}, Coord{4, 4}}, {Coord{4, 4}, Coord{0, 0}}}, 4},
		{"three-parallel-rows", []injection{{Coord{0, 0}, Coord{0, 4}}, {Coord{2, 0}, Coord{2, 4}}, {Coord{4, 0}, Coord{4, 4}}}, 4},
		{"follower-chain", []injection{{Coord{0, 0}, Coord{0, 4}}, {Coord{0, 1}, Coord{0, 4}}}, 3},
		{"converging-partial", []injection{{Coord{1, 0}, Coord{3, 1}}, {Coord{0, 1}, Coord{3, 1}}}, 1},
	}
	for _, tc := range cases {
		run := func(skip int64) (*Mesh[*testMsg], map[int]int) {
			m := NewMesh[*testMsg]("ocn", 5, 5)
			msgs := make([]*testMsg, len(tc.inj))
			for i, in := range tc.inj {
				msgs[i] = &testMsg{id: i + 1, dest: in.dst}
				if !m.Inject(in.src, msgs[i]) {
					t.Fatalf("%s: inject %d refused", tc.name, i)
				}
			}
			m.SkipTicks(skip)
			delivered := map[int]int{}
			for cycle := int(skip); cycle < 100 && len(delivered) < len(msgs); cycle++ {
				m.Tick()
				for _, in := range tc.inj {
					for {
						got, ok := m.Deliver(in.dst)
						if !ok {
							break
						}
						delivered[got.id] = cycle
						m.Pop(in.dst)
					}
				}
				m.Propagate()
			}
			if len(delivered) != len(msgs) {
				t.Fatalf("%s skip=%d: only %d/%d messages delivered", tc.name, skip, len(delivered), len(msgs))
			}
			return m, delivered
		}
		mA, delA := run(0)
		mB, delB := run(tc.skip)
		for id, cyc := range delA {
			if delB[id] != cyc {
				t.Errorf("%s skip=%d: message %d delivered at cycle %d, stepped run at %d",
					tc.name, tc.skip, id, delB[id], cyc)
			}
		}
		sA, sB := meshState(mA), meshState(mB)
		for k, v := range sA {
			if sB[k] != v {
				t.Errorf("%s skip=%d: state %q = %d, stepped run %d", tc.name, tc.skip, k, sB[k], v)
			}
		}
	}
}
