package proc

import (
	"testing"

	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/flight"
	"trips/internal/mem"
	"trips/internal/obs"
)

// newSteadyStateCore builds a core running the 1..n loop for long enough
// that stepping it mid-run measures the steady-state hot path.
func newSteadyStateCore(t *testing.T, trace *obs.Tracer, metrics *obs.Sampler, trackCritPath ...bool) *Core {
	t.Helper()
	p := loopProgram(t)
	m := mem.New()
	if err := p.Image(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(Config{
		Program:       p,
		Mem:           NewFixedLatencyMem(m, 20),
		Trace:         trace,
		Metrics:       metrics,
		TrackCritPath: len(trackCritPath) > 0 && trackCritPath[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRegister(0, 8, 0)          // i
	c.SetRegister(0, 13, 0)         // sum
	c.SetRegister(0, 18, 1_000_000) // n: far more iterations than we step
	return c
}

// allocsPerCycle measures steady-state allocations per stepped cycle after
// a warm-up that gets past cold-start growth (maps, pools, predictor).
func allocsPerCycle(c *Core) float64 {
	for i := 0; i < 20_000; i++ {
		c.Step()
	}
	const batch = 1000
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			c.Step()
		}
	})
	return allocs / batch
}

// TestStepAllocsTracingOverhead is the zero-overhead-when-disabled guard:
// attaching a tracer and sampler must add nothing to the steady-state
// allocation rate — the ring overwrites in place and the series points halve
// in place — and the untraced rate itself is zero (the loop has no loads;
// what a load still allocates is its pendingLoad and LSQ entry).
func TestStepAllocsTracingOverhead(t *testing.T) {
	off := allocsPerCycle(newSteadyStateCore(t, nil, nil))

	tr := obs.NewTracer(1 << 12) // small ring: exercise wrap-around overwrite
	sm := obs.NewSampler(0)
	traced := newSteadyStateCore(t, tr, sm)
	on := allocsPerCycle(traced)
	if tr.Dropped() == 0 {
		t.Fatal("warm-up did not wrap the ring; the test is not measuring overwrite")
	}

	// Both runs step the identical deterministic program, so the rates are
	// directly comparable; a sliver of slack absorbs incidental runtime
	// activity under AllocsPerRun.
	if on > off+0.01 {
		t.Errorf("tracing adds allocations: %.4f objects/cycle traced vs %.4f untraced", on, off)
	}
	if off > 0.01 {
		t.Errorf("untraced steady-state Step allocates %.4f objects/cycle, want 0", off)
	}
}

// TestStepAllocsCritPath holds the critical-path analyzer to the same rule:
// events are values inside the messages, stations and queue entries they
// describe, so tracking adds no allocation at all to the per-cycle path.
func TestStepAllocsCritPath(t *testing.T) {
	off := allocsPerCycle(newSteadyStateCore(t, nil, nil))
	tracked := newSteadyStateCore(t, nil, nil, true)
	on := allocsPerCycle(tracked)
	if on > 0.01 || off > 0.01 {
		t.Errorf("steady-state Step allocates %.4f objects/cycle with critical-path tracking, %.4f without; want 0 and 0", on, off)
	}
	if r := tracked.Result().CritPath; r.TotalCycles == 0 || r.Cycles[critpath.CatOPNHop] == 0 {
		t.Fatalf("tracked core reports no critical path (%+v); the test is not measuring the analyzer", r)
	}
}

// TestStepAllocsFlightRecorderOverhead extends the zero-overhead guard to a
// fully armed flight recorder. Two regimes:
//
//   - Between captures (the recorder's continuous machinery: a bounded trace
//     window attached as the core's tracer, the rolling-checkpoint hook
//     armed) the recorder must add NOTHING to the steady-state allocation
//     rate — the window is an ordinary tracer ring overwriting in place and
//     the hook is a two-field compare in the commit path.
//   - Each rolling capture re-saves full machine state into a recycled ring
//     slot. That is not free, but it must stay small and bounded (no
//     per-capture growth once the ring has lapped); at the default 50k-cycle
//     interval even the measured stride here amortizes to well under 0.001
//     allocs/cycle.
func TestStepAllocsFlightRecorderOverhead(t *testing.T) {
	off := allocsPerCycle(newSteadyStateCore(t, nil, nil))

	rec := flight.New(flight.Config{Depth: 4, WindowCap: 1 << 12})
	c := newSteadyStateCore(t, rec.NewWindow("core"), nil)
	rec.Bind(ckpt.Hash{}, c.SaveState, nil, nil)
	// Arm the hook far in the future: the per-cycle cost of *being armed* is
	// what this regime measures (in Run the hook fires at commit boundaries;
	// captures are driven explicitly in the second regime below).
	c.SetCheckpointHook(1<<40, func(cycle int64) error { return rec.Capture(cycle) })
	armed := allocsPerCycle(c)
	if armed > off+0.01 {
		t.Errorf("armed recorder (between captures) adds allocations: %.4f objects/cycle vs %.4f baseline", armed, off)
	}
	if rec.WindowEvents() == 0 {
		t.Fatal("recorder window captured no events; the armed run is not being observed")
	}

	// Capture regime: lap the ring during warm-up so slot buffers reach
	// steady state, then measure with captures firing every captureStride
	// cycles, mirroring a (dense) rolling-checkpoint cadence.
	const captureStride = 500
	rec2 := flight.New(flight.Config{Depth: 4, WindowCap: 1 << 12})
	cap1 := newSteadyStateCore(t, rec2.NewWindow("core"), nil)
	rec2.Bind(ckpt.Hash{}, cap1.SaveState, nil, nil)
	for i := 0; i < 20_000; i++ {
		cap1.Step()
		if i%captureStride == 0 {
			if err := rec2.Capture(cap1.Cycle()); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := rec2.RingBytes()
	const batch = 1000
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			cap1.Step()
			if i%captureStride == 0 {
				rec2.Capture(cap1.Cycle())
			}
		}
	})
	perCapture := (allocs/batch - off) * captureStride
	// ~17 objects per full machine re-save today; 64 leaves headroom without
	// letting a per-capture regression hide.
	if perCapture > 64 {
		t.Errorf("rolling capture allocates %.0f objects per capture, want bounded (< 64)", perCapture)
	}
	if got := rec2.RingBytes(); got != before {
		t.Errorf("ring grew during steady-state captures: %d -> %d bytes; slot recycling broken", before, got)
	}
}

// TestStepCyclesUnchangedByTracing steps the same program with and without
// observability attached and requires the commit stream to line up exactly.
func TestStepCyclesUnchangedByTracing(t *testing.T) {
	plain := newSteadyStateCore(t, nil, nil)
	traced := newSteadyStateCore(t, obs.NewTracer(0), obs.NewSampler(0))
	for i := 0; i < 50_000; i++ {
		plain.Step()
		traced.Step()
		if plain.CommittedBlocks != traced.CommittedBlocks {
			t.Fatalf("cycle %d: traced core committed %d blocks, untraced %d",
				i, traced.CommittedBlocks, plain.CommittedBlocks)
		}
	}
	if plain.CommittedBlocks == 0 {
		t.Fatal("no blocks committed in 50k cycles; loop did not run")
	}
}
