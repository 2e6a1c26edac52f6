package eval

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/proc"
	"trips/internal/workloads"
)

// ckptCompare requires two runs to agree on every simulated observable.
// Warps/WarpedCycles and Lag are host-side telemetry and differ by design
// between the steppers and across phase seams; Mem and Crit are excluded
// (Mem is a live pointer, Crit is empty without the analyzer).
func ckptCompare(t *testing.T, label string, got, want *TRIPSResult) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if got.Insts != want.Insts {
		t.Errorf("%s: insts %d, want %d", label, got.Insts, want.Insts)
	}
	if got.Blocks != want.Blocks {
		t.Errorf("%s: blocks %d, want %d", label, got.Blocks, want.Blocks)
	}
	if got.Flushes != want.Flushes {
		t.Errorf("%s: flushes %d, want %d", label, got.Flushes, want.Flushes)
	}
	if !reflect.DeepEqual(got.Regs, want.Regs) {
		t.Errorf("%s: architectural registers diverged:\n  got:  %v\n  want: %v", label, got.Regs, want.Regs)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: tile stats diverged", label)
	}
	if !reflect.DeepEqual(got.NUCA, want.NUCA) {
		t.Errorf("%s: NUCA counters diverged:\n  got:  %+v\n  want: %+v", label, got.NUCA, want.NUCA)
	}
}

// roundTrip runs spec uninterrupted, then with a mid-run checkpoint, then
// restored from that checkpoint — under the stepper that took it and under
// the other one — and requires all four outcomes identical.
func roundTrip(t *testing.T, spec *workloads.Spec, opt TRIPSOptions, label string) {
	t.Helper()
	want, err := RunTRIPS(spec, opt)
	if err != nil {
		t.Fatalf("%s reference: %v", label, err)
	}

	ckOpt := opt
	ckOpt.CheckpointAt = want.Cycles / 2
	if ckOpt.CheckpointAt == 0 {
		ckOpt.CheckpointAt = 1
	}
	var buf bytes.Buffer
	ckOpt.CheckpointTo = &buf
	got, err := RunTRIPS(spec, ckOpt)
	if err != nil {
		t.Fatalf("%s checkpointed: %v", label, err)
	}
	ckptCompare(t, label+" checkpointed run", got, want)
	if buf.Len() == 0 {
		t.Fatalf("%s: no checkpoint captured (last commit before cycle %d?)", label, ckOpt.CheckpointAt)
	}

	for _, reference := range []bool{opt.Reference, !opt.Reference} {
		rsOpt := opt
		rsOpt.Reference = reference
		rsOpt.RestoreFrom = bytes.NewReader(buf.Bytes())
		restored, err := RunTRIPS(spec, rsOpt)
		if err != nil {
			t.Fatalf("%s restored (reference=%v): %v", label, reference, err)
		}
		ckptCompare(t, fmt.Sprintf("%s restored run (reference=%v)", label, reference), restored, want)
	}
}

// ckptMatrix is both backends under both steppers.
var ckptMatrix = []struct {
	name string
	opt  TRIPSOptions
}{
	{"l2", TRIPSOptions{}},
	{"l2-reference", TRIPSOptions{Reference: true}},
	{"nuca", TRIPSOptions{UseNUCA: true}},
	{"nuca-reference", TRIPSOptions{UseNUCA: true, Reference: true}},
}

// TestCheckpointRoundTrip covers a representative workload subset in the
// tier-1 run; set TRIPS_CKPT_FULL=1 to sweep the whole Table 3 suite.
func TestCheckpointRoundTrip(t *testing.T) {
	names := []string{"vadd", "dct8x8", "256.bzip2"}
	if os.Getenv("TRIPS_CKPT_FULL") != "" {
		names = nil
		for _, w := range workloads.All() {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := w.Build(true)
		for _, m := range ckptMatrix {
			roundTrip(t, spec, m.opt, name+"/"+m.name)
		}
	}
}

// TestCheckpointRoundTripFuzzed is the property test: random workload,
// random configuration, random capture cycle — the restored run must always
// be bit-identical to the uninterrupted one. The seed is fixed so failures
// reproduce.
func TestCheckpointRoundTripFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7219))
	names := []string{"vadd", "conv", "matrix", "dct8x8"}
	for i := 0; i < 8; i++ {
		name := names[rng.Intn(len(names))]
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := TRIPSOptions{
			UseNUCA:           rng.Intn(2) == 0,
			Reference:         rng.Intn(2) == 0,
			OPNChannels:       1 + rng.Intn(2),
			ConservativeLoads: rng.Intn(2) == 0,
		}
		spec := w.Build(rng.Intn(2) == 0)
		want, err := RunTRIPS(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		at := 1 + rng.Int63n(want.Cycles-1)
		label := name + "/fuzz"

		ckOpt := opt
		ckOpt.CheckpointAt = at
		var buf bytes.Buffer
		ckOpt.CheckpointTo = &buf
		got, err := RunTRIPS(spec, ckOpt)
		if err != nil {
			t.Fatalf("%s (at=%d): %v", label, at, err)
		}
		ckptCompare(t, label+" checkpointed", got, want)
		if buf.Len() == 0 {
			// The arm cycle landed after the last block commit; there is
			// no boundary left to capture at. Legal, nothing to restore.
			continue
		}
		rsOpt := opt
		rsOpt.RestoreFrom = bytes.NewReader(buf.Bytes())
		restored, err := RunTRIPS(spec, rsOpt)
		if err != nil {
			t.Fatalf("%s (at=%d) restore: %v", label, at, err)
		}
		ckptCompare(t, label+" restored", restored, want)
	}
}

// TestCheckpointArmCyclesMatchReference arms the core's checkpoint hook at
// the edges of its domain — cycle 0, and a cycle already passed (re-armed
// from inside the first capture for an earlier cycle) — and requires
// Core.RunLagCheckpointed to capture exactly where the reference's lockstep
// loop does: at the first commit, and at the commit right after the re-arm. The
// coordinator once read "park at cycle 0" as "no stop" and fired the hook at
// the end of the run.
func TestCheckpointArmCyclesMatchReference(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	opt := TRIPSOptions{UseNUCA: true}
	for _, arm := range []struct {
		name     string
		at       int64
		rearmFor int64 // >= 0: re-arm from inside the first capture for this cycle
	}{
		{"cycle 0", 0, -1},
		{"cycle already passed", 1000, 5},
	} {
		type capture struct {
			cycle int64
			bytes int
		}
		var got [2][]capture
		var end [2]int64
		for i, reference := range []bool{false, true} {
			o := opt
			o.Reference = reference
			m, err := buildTRIPS(w.Build(true), o, true)
			if err != nil {
				t.Fatal(err)
			}
			var hook func(cycle int64) error
			hook = func(cycle int64) error {
				pw := &ckpt.Writer{}
				if err := m.save(pw); err != nil {
					return err
				}
				got[i] = append(got[i], capture{cycle, pw.Len()})
				if arm.rearmFor >= 0 && len(got[i]) == 1 {
					m.core.SetCheckpointHook(arm.rearmFor, hook)
				}
				return nil
			}
			m.core.SetCheckpointHook(arm.at, hook)
			var res proc.Result
			if reference {
				res, err = m.core.RunLockstep(m.sys)
			} else {
				res, err = m.core.RunLagCheckpointed(m.sys, 0, nil)
			}
			if err != nil {
				t.Fatalf("%s (reference=%v): %v", arm.name, reference, err)
			}
			end[i] = res.Cycles
		}
		if len(got[1]) == 0 || got[1][len(got[1])-1].cycle >= end[1] {
			t.Fatalf("%s: reference captures %v in a %d-cycle run", arm.name, got[1], end[1])
		}
		if !reflect.DeepEqual(got[0], got[1]) || end[0] != end[1] {
			t.Errorf("%s: production captured %v in %d cycles, reference %v in %d", arm.name, got[0], end[0], got[1], end[1])
		}
	}
}

// TestRestoreRejectsMismatchAndCorruption: the frame must refuse a
// mismatched program/config loudly and turn truncation or bit-flips into
// clean errors.
func TestRestoreRejectsMismatchAndCorruption(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Build(true)
	var buf bytes.Buffer
	if _, err := RunTRIPS(spec, TRIPSOptions{CheckpointAt: 500, CheckpointTo: &buf}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Different configuration: OPN width changes simulated behavior.
	rs := TRIPSOptions{OPNChannels: 2, RestoreFrom: bytes.NewReader(raw)}
	if _, err := RunTRIPS(spec, rs); !errors.Is(err, ckpt.ErrContentHash) {
		t.Fatalf("restore under -opn 2: err = %v, want ErrContentHash", err)
	}
	// Different program.
	other, err := workloads.ByName("conv")
	if err != nil {
		t.Fatal(err)
	}
	rs = TRIPSOptions{RestoreFrom: bytes.NewReader(raw)}
	if _, err := RunTRIPS(other.Build(true), rs); !errors.Is(err, ckpt.ErrContentHash) {
		t.Fatalf("restore onto conv: err = %v, want ErrContentHash", err)
	}
	// Truncations.
	for _, cut := range []int{0, 7, len(raw) / 3, len(raw) - 1} {
		rs = TRIPSOptions{RestoreFrom: bytes.NewReader(raw[:cut])}
		if _, err := RunTRIPS(spec, rs); err == nil {
			t.Fatalf("restore of %d/%d bytes succeeded", cut, len(raw))
		}
	}
	// Bit flip in the payload.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x01
	rs = TRIPSOptions{RestoreFrom: bytes.NewReader(corrupt)}
	if _, err := RunTRIPS(spec, rs); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("restore of corrupted frame: err = %v, want ErrCorrupt", err)
	}

	// Option validation.
	if _, err := RunTRIPS(spec, TRIPSOptions{TrackCritPath: true, CheckpointAt: 10, CheckpointTo: &bytes.Buffer{}}); err == nil {
		t.Fatal("checkpoint with critical-path tracking succeeded")
	}
	if _, err := RunTRIPS(spec, TRIPSOptions{CheckpointTo: &bytes.Buffer{}}); err == nil {
		t.Fatal("checkpoint without a capture cycle succeeded")
	}
}

// TestRunSampled: the profiling pass must match an uninterrupted run, the
// intervals must be deterministic across invocations and consistent with
// the full run's shape.
func TestRunSampled(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Build(true)
	want, err := RunTRIPS(spec, TRIPSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSampled(spec, TRIPSOptions{}, 500, 1000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ckptCompare(t, "sampled profiling pass", sr.Full, want)
	if len(sr.Samples) == 0 {
		t.Fatal("no intervals sampled")
	}
	var prevEnd int64
	var total uint64
	for _, s := range sr.Samples {
		if s.StartCycle <= 500 && s.Index == 0 {
			t.Errorf("interval 0 starts at %d, want after warmup 500", s.StartCycle)
		}
		if s.StartCycle < prevEnd {
			t.Errorf("interval %d starts at %d, before previous end %d", s.Index, s.StartCycle, prevEnd)
		}
		if s.EndCycle > s.StartCycle+1000 {
			t.Errorf("interval %d spans %d cycles, want <= 1000", s.Index, s.EndCycle-s.StartCycle)
		}
		prevEnd = s.EndCycle
		total += s.Insts
	}
	if total == 0 || total > want.Insts {
		t.Errorf("sampled insts %d, full run %d", total, want.Insts)
	}
	// Determinism across worker counts.
	sr2, err := RunSampled(spec, TRIPSOptions{}, 500, 1000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr.Samples, sr2.Samples) {
		t.Errorf("samples differ across worker counts:\n  %+v\n  %+v", sr.Samples, sr2.Samples)
	}
}
