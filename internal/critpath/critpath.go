// Package critpath implements the critical-path accounting of Fields et
// al. used by the paper (Section 5.4) to attribute each cycle of a
// program's critical path to a microarchitectural activity: instruction
// distribution (IFetch), operand network hop latency, operand network
// contention, operand fanout instructions, block-completion detection,
// block-commit latency, and everything a conventional core would also pay
// (Other: ALU execution, cache access, misses).
//
// The simulator constructs one Event per microarchitectural happening
// (dispatch, issue, completion, arrival, commit...). The time of an event
// is determined by its last-arriving dependency; the simulator passes that
// dependency as the parent together with a categorized decomposition of the
// edge. Because event times in a cycle-accurate simulator are exactly
// "max over parents + edge latency", the chain of last-arriving parents IS
// the critical path, so each event can carry cumulative per-category totals
// and the analysis needs O(1) memory per live event: an Event is a 40-byte
// value that lives inside whatever it describes, with nothing to free.
package critpath

import (
	"fmt"
	"math"
)

// Cat is a critical-path cycle category (the columns of paper Table 3).
type Cat int

const (
	// CatIFetch: instruction distribution delay — fetch pipeline, GDN
	// dispatch, refills.
	CatIFetch Cat = iota
	// CatOPNHop: operand network hop latency between dependent instructions.
	CatOPNHop
	// CatOPNContention: cycles operands spent blocked in OPN routers.
	CatOPNContention
	// CatFanout: execution of fanout (mov) instructions that only replicate
	// operands.
	CatFanout
	// CatComplete: waiting for the GT to learn that all block outputs have
	// been produced (GSN daisy chains, DSN store tracking).
	CatComplete
	// CatCommit: the block commit protocol — GCN command, architectural
	// drain, GSN acknowledgment.
	CatCommit
	// CatOther: components a conventional core also has — ALU execution,
	// ALU contention, cache hits and misses.
	CatOther
	NumCats
)

func (c Cat) String() string {
	switch c {
	case CatIFetch:
		return "IFetch"
	case CatOPNHop:
		return "OPN Hops"
	case CatOPNContention:
		return "OPN Cont."
	case CatFanout:
		return "Fanout Ops"
	case CatComplete:
		return "Block Complete"
	case CatCommit:
		return "Block Commit"
	case CatOther:
		return "Other"
	}
	return fmt.Sprintf("Cat(%d)", int(c))
}

// Split is a categorized decomposition of one dependency edge's latency.
type Split [NumCats]int64

// Event is a node on the dependence graph, carrying cumulative
// per-category totals along its critical (last-arrival) chain. It is a plain
// value — copied into messages, reservation stations and queue entries, never
// allocated — and the zero Event is the time-zero root. The totals sum to
// Cycle, so 32-bit counters cannot wrap while Cycle fits in one, which New
// checks.
type Event struct {
	Cycle int64
	Cum   [NumCats]uint32
}

// Root returns the time-zero event.
func Root() Event { return Event{} }

// New creates an event at the given cycle whose last-arriving dependency is
// parent. split apportions the edge latency (cycle - parent.Cycle) among
// categories; any unapportioned remainder is charged to rem. Negative or
// over-apportioned splits are clamped so totals always equal elapsed time.
func New(cycle int64, parent Event, split Split, rem Cat) Event {
	if cycle < parent.Cycle {
		cycle = parent.Cycle
	}
	if cycle > math.MaxUint32 {
		panic(fmt.Sprintf("critpath: cycle %d overflows the 32-bit category counters", cycle))
	}
	e := Event{Cycle: cycle, Cum: parent.Cum}
	left := cycle - parent.Cycle
	for c := Cat(0); c < NumCats; c++ {
		take := split[c]
		if take < 0 {
			take = 0
		}
		if take > left {
			take = left
		}
		e.Cum[c] += uint32(take)
		left -= take
	}
	e.Cum[rem] += uint32(left)
	return e
}

// Latest returns the later of two events (a on ties), used to find the
// last-arriving dependency.
func Latest(a, b Event) Event {
	if b.Cycle > a.Cycle {
		return b
	}
	return a
}

// Report is the per-category share of the critical path.
type Report struct {
	TotalCycles int64
	Cycles      Split
}

// Finish produces the report for a terminal event.
func Finish(e Event) Report {
	r := Report{TotalCycles: e.Cycle}
	for c, n := range e.Cum {
		r.Cycles[c] = int64(n)
	}
	return r
}

// Percent returns category c's share of the critical path in percent.
func (r Report) Percent(c Cat) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return 100 * float64(r.Cycles[c]) / float64(r.TotalCycles)
}
