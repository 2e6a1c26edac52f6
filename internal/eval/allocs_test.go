package eval

import (
	"runtime"
	"testing"

	"trips/internal/tcc"
	"trips/internal/workloads"
)

// runAllocs returns the objects and bytes one hand-optimized run allocates,
// compile and machine construction included.
func runAllocs(t *testing.T, name string, track bool) (objects, bytes uint64) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Build(true)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunTRIPS(spec, TRIPSOptions{Mode: tcc.Hand, TrackCritPath: track})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if track == (res.Crit.TotalCycles == 0) {
		t.Fatalf("%s: track=%v but critical path is %d cycles", name, track, res.Crit.TotalCycles)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestCritPathRunAllocs is the whole-run half of the zero-alloc gate
// (TestStepAllocsCritPath in proc is the per-cycle half): a run with the
// critical-path analyzer on allocates what the same run allocates with it
// off, plus the tiles' side arrays once — within 5 % in objects, and in bytes
// once that fixed footprint (under 256 KB) is set aside. Before events were
// values the tracked runs allocated 4.8x (vadd) and 15x (256.bzip2) the objects.
func TestCritPathRunAllocs(t *testing.T) {
	for _, name := range []string{"vadd", "256.bzip2"} {
		offObj, offBytes := runAllocs(t, name, false)
		onObj, onBytes := runAllocs(t, name, true)
		t.Logf("%s: %d objects / %d bytes untracked, %d / %d tracked", name, offObj, offBytes, onObj, onBytes)
		if float64(onObj) > 1.05*float64(offObj) {
			t.Errorf("%s: tracked run allocates %d objects, untracked %d: more than 5%% over", name, onObj, offObj)
		}
		if float64(onBytes) > 1.05*float64(offBytes)+256<<10 {
			t.Errorf("%s: tracked run allocates %d bytes, untracked %d: more than 5%% and the side arrays over", name, onBytes, offBytes)
		}
	}
}
