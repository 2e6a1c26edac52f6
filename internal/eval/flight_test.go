package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trips/internal/flight"
	"trips/internal/obs"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// clipCkpt drops KindCkpt marker events (emitted only by checkpointing
// runs) so windows from checkpointing and non-checkpointing runs compare.
func clipCkpt(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Kind != obs.KindCkpt {
			out = append(out, ev)
		}
	}
	return out
}

// TestFlightRecorderBitIdentity extends the zero-perturbation guarantee to
// the flight recorder: an armed recorder (rolling checkpoint ring + trace
// window + end-of-run dump) must not move a single simulated observable.
func TestFlightRecorderBitIdentity(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	for _, useNUCA := range []bool{false, true} {
		base := TRIPSOptions{Mode: tcc.Hand, UseNUCA: useNUCA}
		plain, err := RunTRIPS(w.Build(true), base)
		if err != nil {
			t.Fatal(err)
		}
		armed := base
		armed.Flight = &FlightOptions{
			Dir: t.TempDir(), Depth: 3, Interval: 400,
			DumpOn: "end", Tool: "eval_test", Bench: "vadd", Hand: true,
		}
		rec, err := RunTRIPS(w.Build(true), armed)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cycles != rec.Cycles || plain.Blocks != rec.Blocks || plain.Insts != rec.Insts {
			t.Errorf("nuca=%v: recorder-armed run %d cycles/%d blocks/%d insts, plain %d/%d/%d — the recorder perturbed the simulation",
				useNUCA, rec.Cycles, rec.Blocks, rec.Insts, plain.Cycles, plain.Blocks, plain.Insts)
		}
		for r, v := range plain.Regs {
			if rec.Regs[r] != v {
				t.Errorf("nuca=%v: recorder-armed r%d = %d, plain %d", useNUCA, r, rec.Regs[r], v)
			}
		}
		if len(rec.FlightDumps) != 1 {
			t.Fatalf("nuca=%v: expected 1 end-of-run dump, got %v", useNUCA, rec.FlightDumps)
		}
		b, err := flight.ReadBundle(rec.FlightDumps[0])
		if err != nil {
			t.Fatal(err)
		}
		if b.Manifest.Trigger != flight.TriggerEnd {
			t.Errorf("nuca=%v: trigger %q, want end", useNUCA, b.Manifest.Trigger)
		}
		if b.Manifest.Checkpoint == nil {
			t.Errorf("nuca=%v: end-of-run bundle holds no checkpoint frame", useNUCA)
		}
		if len(b.Manifest.Windows) != 1 || b.Manifest.Windows[0].Events == 0 {
			t.Errorf("nuca=%v: bundle window empty: %+v", useNUCA, b.Manifest.Windows)
		}
		if b.Manifest.Meta["bench"] != "vadd" || b.Manifest.Meta["hand"] != "true" {
			t.Errorf("nuca=%v: bundle meta wrong: %v", useNUCA, b.Manifest.Meta)
		}
		if got := b.Manifest.Counters["flight.captures"]; got == 0 {
			t.Errorf("nuca=%v: no rolling captures recorded", useNUCA)
		}
	}
}

// TestFlightReplayBitIdenticalWindow is the acceptance check for
// trips-debug replay: restoring a dump bundle's mid-run checkpoint and
// re-running deterministically must reproduce, event for event, the same
// window an uninterrupted traced run records for that simulated region.
func TestFlightReplayBitIdenticalWindow(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	for _, useNUCA := range []bool{false, true} {
		// Uninterrupted traced reference run.
		ref := TRIPSOptions{Mode: tcc.Hand, UseNUCA: useNUCA, Trace: obs.NewTracer(0)}
		full, err := RunTRIPS(w.Build(true), ref)
		if err != nil {
			t.Fatal(err)
		}
		// Flight-armed run: dump on a mid-run cycle trigger.
		armed := TRIPSOptions{Mode: tcc.Hand, UseNUCA: useNUCA}
		armed.Flight = &FlightOptions{
			Dir: t.TempDir(), Depth: 4, Interval: 300,
			DumpOn: "cycle=1200", Tool: "eval_test", Bench: "vadd", Hand: true,
		}
		res, err := RunTRIPS(w.Build(true), armed)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FlightDumps) == 0 {
			t.Fatalf("nuca=%v: cycle trigger produced no dump (run was %d cycles)", useNUCA, res.Cycles)
		}
		b, err := flight.ReadBundle(res.FlightDumps[0])
		if err != nil {
			t.Fatal(err)
		}
		if b.Manifest.Checkpoint == nil {
			t.Fatalf("nuca=%v: bundle holds no checkpoint", useNUCA)
		}
		rep, err := ReplayBundle(b, ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RestoredAt != b.Manifest.Checkpoint.Cycle {
			t.Errorf("nuca=%v: restored at %d, checkpoint says %d", useNUCA, rep.RestoredAt, b.Manifest.Checkpoint.Cycle)
		}
		if rep.Cycles != full.Cycles || rep.Blocks != full.Blocks {
			t.Errorf("nuca=%v: replay finished at %d cycles/%d blocks, reference %d/%d",
				useNUCA, rep.Cycles, rep.Blocks, full.Cycles, full.Blocks)
		}
		// The checkpoint fires mid-cycle at a commit boundary: boundary-cycle
		// events split into a pre-capture half (only in the uninterrupted
		// trace) and a post-capture half, so the windows align from the first
		// full cycle after the boundary.
		want := flight.WindowFrom(ref.Trace.Events(), rep.RestoredAt+1)
		got := flight.WindowFrom(rep.Events, rep.RestoredAt+1)
		if len(want) == 0 {
			t.Fatalf("nuca=%v: reference window empty", useNUCA)
		}
		if d := flight.Compare(want, got); d != nil {
			t.Errorf("nuca=%v: replayed window diverges from uninterrupted run: %s", useNUCA, d.Reason)
		}
	}
}

// TestRestoredTraceWindowMatches is the -restore trace-origin regression
// test: a run restored from a checkpoint and traced must stamp events with
// absolute simulated cycles and reproduce exactly the window the
// uninterrupted traced run records from the capture boundary on.
func TestRestoredTraceWindowMatches(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	for _, useNUCA := range []bool{false, true} {
		var ck bytes.Buffer
		full := TRIPSOptions{
			Mode: tcc.Hand, UseNUCA: useNUCA, Trace: obs.NewTracer(0),
			CheckpointAt: 500, CheckpointTo: &ck,
		}
		fres, err := RunTRIPS(w.Build(true), full)
		if err != nil {
			t.Fatal(err)
		}
		// The KindCkpt marker records the actual capture boundary.
		var capCycle int64 = -1
		for _, ev := range full.Trace.Events() {
			if ev.Kind == obs.KindCkpt {
				capCycle = ev.Cycle
				break
			}
		}
		if capCycle < 500 {
			t.Fatalf("nuca=%v: no checkpoint marker in trace (capCycle %d)", useNUCA, capCycle)
		}
		restored := TRIPSOptions{
			Mode: tcc.Hand, UseNUCA: useNUCA, Trace: obs.NewTracer(0),
			RestoreFrom: bytes.NewReader(ck.Bytes()),
		}
		rres, err := RunTRIPS(w.Build(true), restored)
		if err != nil {
			t.Fatal(err)
		}
		if rres.Cycles != fres.Cycles || rres.Blocks != fres.Blocks {
			t.Fatalf("nuca=%v: restored run %d cycles/%d blocks, full %d/%d",
				useNUCA, rres.Cycles, rres.Blocks, fres.Cycles, fres.Blocks)
		}
		revs := restored.Trace.Events()
		if len(revs) == 0 {
			t.Fatalf("nuca=%v: restored run emitted no events", useNUCA)
		}
		// Absolute cycle origin: nothing may be stamped before the restore
		// boundary (a cycles-since-restore bug would stamp from 0).
		if first := revs[0].Cycle; first < capCycle {
			t.Errorf("nuca=%v: restored trace starts at cycle %d, before the capture boundary %d — relative stamping", useNUCA, first, capCycle)
		}
		// Boundary-cycle events split across the capture point (see the
		// replay test above); windows align from capCycle+1 on.
		want := clipCkpt(flight.WindowFrom(full.Trace.Events(), capCycle+1))
		got := flight.WindowFrom(revs, capCycle+1)
		if d := flight.Compare(want, got); d != nil {
			t.Errorf("nuca=%v: restored-run window diverges from uninterrupted run: %s", useNUCA, d.Reason)
		}
	}
}

// TestFlightDeadlineViolationDump fault-injects padded response deadlines.
// On a single-core eval run the core always has real work in flight while a
// padded response is pending, so its overshoot past the true effect cycle
// is genuinely stepped — the effect gate detects a horizon violation and
// panics (a warp-only overshoot needs a multi-core chip chase; see
// TestChipLagDeadlinePadPanics). The armed recorder must classify that
// panic as a deadline-violation dump and re-raise it.
func TestFlightDeadlineViolationDump(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := TRIPSOptions{
		Mode: tcc.Hand, UseNUCA: true,
		LagDeadlinePad: 64,
		Flight: &FlightOptions{
			Dir: dir, Depth: 2, Interval: 50,
			Tool: "eval_test", Bench: "vadd", Hand: true,
		},
	}
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				if !strings.Contains(fmt.Sprint(r), "horizon violated") {
					t.Errorf("unexpected panic: %v", r)
				}
			}
		}()
		_, _ = RunTRIPS(w.Build(true), opt)
	}()
	if !panicked {
		t.Fatal("deadline pad 64 did not trip the horizon check; the fault-injection walkthrough depends on this")
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 dump bundle, found %v", entries)
	}
	b, err := flight.ReadBundle(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != "deadline-violation" {
		t.Errorf("trigger %q, want deadline-violation", b.Manifest.Trigger)
	}
	if !strings.Contains(b.Manifest.Reason, "horizon violated") {
		t.Errorf("reason %q does not carry the panic message", b.Manifest.Reason)
	}
	// The bundle directory is complete: manifest + window.
	for _, f := range []string{"manifest.json", "window-core.events.json"} {
		if _, err := os.Stat(filepath.Join(b.Dir, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
}

// TestFlightLimitDump checks the cycle-limit-overrun trigger: a run that
// trips MaxCycles dumps a bundle even though RunTRIPS returns an error.
func TestFlightLimitDump(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := TRIPSOptions{Mode: tcc.Hand, UseNUCA: true}
	opt.Flight = &FlightOptions{Dir: dir, Interval: 200, Tool: "eval_test", Bench: "vadd", Hand: true}
	// Force a limit overrun well below the workload's natural length.
	opt.MaxCycles = 1000
	_, err = RunTRIPS(w.Build(true), opt)
	if err == nil {
		t.Fatal("expected a cycle-limit error")
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 dump bundle, found %v", entries)
	}
	b, err := flight.ReadBundle(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Trigger != flight.TriggerLimit {
		t.Errorf("trigger %q, want cycle-limit", b.Manifest.Trigger)
	}
	if b.Manifest.Reason == "" {
		t.Error("limit dump has no reason")
	}
}
