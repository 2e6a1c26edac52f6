package nuca

import (
	"fmt"
	"testing"

	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/proc"
)

// horizonFixture builds a scratchpad system (every access answers at its
// bank, so round trips are short and all alike) with sixteen owned ports and
// ticks it to a state with exactly n messages resident in the OCN, the most
// responses among them it can reach: the state the coordinator's questions
// are asked in. Requests spend a tick in flit serialization at their bank,
// out of the mesh, so up to four more than n are submitted to find n of them
// resident at once. It returns the number of resident responses.
func horizonFixture(tb testing.TB, n int) (*System, int) {
	tb.Helper()
	build := func(submit, ticks int) (*System, int, int) {
		s := New(Config{Backing: mem.New(), Scratchpad: true})
		var ports []proc.MemPort
		for i := 0; i < NumMTs; i++ {
			ports = append(ports, s.Port(fmt.Sprintf("hz%d", i)))
		}
		s.AssignOwners(func(string) int { return 0 })
		for i := 0; i < submit; i++ {
			// Far banks, one line each: the last MTs from the first ports.
			if !ports[i].Submit(&proc.MemRequest{Addr: uint64(NumMTs-1-i) * LineBytes, N: 8}) {
				tb.Fatal("submit refused")
			}
		}
		for i := 0; i < ticks; i++ {
			s.Tick()
		}
		resident, responses := 0, 0
		s.mesh.VisitResidents(func(m *ocnMsg, _ micronet.Coord) {
			resident++
			if m.kind == mkResp {
				responses++
			}
		})
		return s, resident, responses
	}
	if n == 0 {
		s, _, _ := build(0, 4)
		return s, 0
	}
	bestSubmit, bestTicks, bestResp := 0, 0, -1
	for submit := n; submit <= n+4; submit++ {
		for ticks := 1; ticks < 40; ticks++ {
			if _, resident, responses := build(submit, ticks); resident == n && responses > bestResp {
				bestSubmit, bestTicks, bestResp = submit, ticks, responses
			}
		}
	}
	if bestResp < 0 {
		tb.Fatalf("no schedule leaves exactly %d messages resident", n)
	}
	s, _, _ := build(bestSubmit, bestTicks)
	return s, bestResp
}

// coldQueries asks the coordinator's three questions with the per-cycle
// memos dropped, so each call pays its full resident walk.
func coldQueries(s *System) (int64, bool) {
	s.meshAt, s.tightenedAt = -1, -1
	return micronet.MinHorizon(s.ResponseDeadlineFor(0), s.NextEventCycle()), s.Quiet()
}

// TestHorizonQueryAllocs is the zero-alloc gate on the questions the
// bounded-lag coordinator asks the memory system every round —
// ResponseDeadlineFor, Quiet, NextEventCycle — and on the Warp that acts on
// the answer, with 0, 1, 4 and 12 messages resident: the deadline book is
// pooled, the resident walks take no closure to the heap, and the transit set
// lives in the mesh.
func TestHorizonQueryAllocs(t *testing.T) {
	for _, n := range []int{0, 1, 4, 12} {
		s, responses := horizonFixture(t, n)
		if n > 0 && (responses == 0 || len(s.respDeadline) < n) {
			t.Fatalf("%d resident: fixture has %d responses in flight and %d tracked deadlines", n, responses, len(s.respDeadline))
		}
		warped := int64(0)
		allocs := testing.AllocsPerRun(50, func() {
			coldQueries(s)
			if s.Quiet() {
				// Warp one cycle while the horizon allows it, as catchUp does;
				// afterwards the queries above keep running on the parked state.
				if h := s.NextEventCycle(); h != horizonNever && h-1 > s.cycle {
					s.Warp(1)
					warped++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d resident: %.1f allocs per round of ResponseDeadlineFor+Quiet+NextEventCycle+Warp, want 0", n, allocs)
		}
		if n >= 1 && n <= 4 && warped == 0 {
			t.Errorf("%d resident: the fixture never allowed a Warp", n)
		}
	}
}

var horizonSink int64

// BenchmarkNUCAHorizonQuery is the "lag coordinator's exchange" rung of the
// ROADMAP's layer ladder: one round of the questions RunBoundedLag asks the
// memory system (ResponseDeadlineFor, Quiet, NextEventCycle), memos cold, at
// 0, 1, 4 and 12 resident OCN messages.
func BenchmarkNUCAHorizonQuery(b *testing.B) {
	for _, n := range []int{0, 1, 4, 12} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, _ := horizonFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, quiet := coldQueries(s); quiet {
					horizonSink += h
				}
			}
		})
	}
}
