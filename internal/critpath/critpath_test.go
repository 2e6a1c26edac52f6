package critpath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChainAccumulates(t *testing.T) {
	root := Root()
	var s1 Split
	s1[CatIFetch] = 10
	e1 := New(10, root, s1, CatOther)
	var s2 Split
	s2[CatOPNHop] = 3
	s2[CatOPNContention] = 2
	e2 := New(17, e1, s2, CatOther) // 7 cycles: 3 hop + 2 contention + 2 other
	r := Finish(e2)
	if r.TotalCycles != 17 {
		t.Fatalf("total = %d", r.TotalCycles)
	}
	want := Split{}
	want[CatIFetch] = 10
	want[CatOPNHop] = 3
	want[CatOPNContention] = 2
	want[CatOther] = 2
	if r.Cycles != want {
		t.Fatalf("cycles = %v, want %v", r.Cycles, want)
	}
}

func TestOverApportionedSplitClamps(t *testing.T) {
	var s Split
	s[CatOPNHop] = 100 // edge is only 5 cycles long
	e := New(5, Root(), s, CatOther)
	if e.Cum[CatOPNHop] != 5 || e.Cum[CatOther] != 0 {
		t.Fatalf("cum = %v", e.Cum)
	}
}

func TestBackwardTimeClamps(t *testing.T) {
	e1 := New(10, Root(), Split{}, CatOther)
	e2 := New(5, e1, Split{}, CatOther) // cannot precede its dependency
	if e2.Cycle != 10 {
		t.Fatalf("cycle = %d, want clamped to 10", e2.Cycle)
	}
}

func TestLatest(t *testing.T) {
	a := New(5, Root(), Split{}, CatOther)
	b := New(9, Root(), Split{}, CatOther)
	if Latest(a, b) != b || Latest(b, a) != b {
		t.Error("Latest did not pick the later event")
	}
	if Latest(Event{}, a) != a || Latest(a, Event{}) != a {
		t.Error("Latest does not treat the zero event as the root")
	}
}

// An Event is a value: the zero Event is the root, copies are independent,
// and deriving a child never touches its parent.
func TestZeroEventIsRoot(t *testing.T) {
	var zero Event
	if zero != Root() {
		t.Fatalf("zero Event %+v differs from Root() %+v", zero, Root())
	}
	var sp Split
	sp[CatFanout] = 2
	if a, b := New(7, zero, sp, CatCommit), New(7, Root(), sp, CatCommit); a != b {
		t.Fatalf("child of the zero event %+v, of Root() %+v", a, b)
	}
	if r := Finish(zero); r != (Report{}) {
		t.Fatalf("Finish(zero) = %+v, want the empty report", r)
	}
	parent := New(4, zero, Split{}, CatIFetch)
	kept := parent
	child := New(9, parent, Split{}, CatOther)
	if parent != kept {
		t.Fatalf("deriving %+v changed its parent to %+v", child, parent)
	}
}

// Latest keeps its first argument on a tie — the simulator's choice of
// last-arriving dependency depends on it — and a zero event never beats an
// event that happened.
func TestLatestTiesAndZeroValues(t *testing.T) {
	a := New(6, Root(), Split{}, CatIFetch)
	b := New(6, Root(), Split{}, CatCommit)
	if Latest(a, b) != a || Latest(b, a) != b {
		t.Error("Latest does not keep its first argument on a tie")
	}
	if Latest(Event{}, Event{}) != (Event{}) {
		t.Error("Latest of two zero events is not the zero event")
	}
	atZero := New(0, Root(), Split{}, CatOther)
	if atZero != (Event{}) || Latest(Event{}, atZero) != atZero {
		t.Error("an event at cycle 0 is not the root")
	}
}

// The counters are 32 bits wide; because they sum to the cycle, one check of
// the cycle guards them all. A run that long must stop loudly, not wrap.
func TestOverflowPanics(t *testing.T) {
	last := New(math.MaxUint32, Root(), Split{}, CatOther)
	if last.Cum[CatOther] != math.MaxUint32 || Finish(last).Cycles[CatOther] != math.MaxUint32 {
		t.Fatalf("largest representable event lost cycles: %+v", last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a cycle beyond the 32-bit counters")
		}
	}()
	New(math.MaxUint32+1, last, Split{}, CatOther)
}

func TestQuickTotalsAlwaysSumToElapsed(t *testing.T) {
	// Invariant: for any chain, the category totals sum exactly to the
	// final cycle — no cycles lost or double-counted.
	f := func(steps []uint8) bool {
		e := Root()
		for i, s := range steps {
			if i > 200 {
				break
			}
			var sp Split
			sp[Cat(int(s)%int(NumCats))] = int64(s % 7)
			e = New(e.Cycle+int64(s%13), e, sp, CatOther)
		}
		var sum int64
		for c := Cat(0); c < NumCats; c++ {
			sum += int64(e.Cum[c])
		}
		return sum == e.Cycle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercent(t *testing.T) {
	var s Split
	s[CatCommit] = 25
	e := New(100, Root(), s, CatOther)
	r := Finish(e)
	if got := r.Percent(CatCommit); got != 25 {
		t.Errorf("Percent(commit) = %v", got)
	}
	if got := r.Percent(CatOther); got != 75 {
		t.Errorf("Percent(other) = %v", got)
	}
	if (Report{}).Percent(CatOther) != 0 {
		t.Error("empty report percent should be 0")
	}
}

func TestCategoryNames(t *testing.T) {
	names := map[Cat]string{
		CatIFetch: "IFetch", CatOPNHop: "OPN Hops", CatOPNContention: "OPN Cont.",
		CatFanout: "Fanout Ops", CatComplete: "Block Complete",
		CatCommit: "Block Commit", CatOther: "Other",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Cat(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
