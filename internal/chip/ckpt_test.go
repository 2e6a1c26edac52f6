package chip

import (
	"bytes"
	"errors"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/mem"
	"trips/internal/proc"
)

// ckptChipConfig builds the round-trip scenario: two cores of different
// lengths (one retires mid-run), a DMA stream in flight through the OCN,
// and a seeded backing memory, under the requested stepper.
func ckptChipConfig(t *testing.T, reference bool) Config {
	t.Helper()
	backing := mem.New()
	for i := 0; i < 64; i++ {
		backing.Write(0x700000+uint64(i)*8, 8, uint64(i)*3+1)
	}
	return Config{
		Programs:  [2]*proc.Program{countProgram(t, 0x100000, 60), countProgram(t, 0x200000, 25)},
		Backing:   backing,
		MaxCycles: 5_000_000,
		Reference: reference,
	}
}

type ckptOutcome struct {
	cycles int64
	r0, r1 proc.Result
	moved  uint64
	words  [64]uint64
}

func ckptFinishChip(t *testing.T, c *Chip) ckptOutcome {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Mem.Flush()
	out := ckptOutcome{cycles: c.Cycle(), r0: c.Cores[0].Result(), r1: c.Cores[1].Result(), moved: c.DMA[0].Moved}
	for i := range out.words {
		out.words[i] = c.cfg.Backing.Read(0x740000+uint64(i)*8, 8, false)
	}
	return out
}

func ckptCompareOutcomes(t *testing.T, label string, got, want ckptOutcome) {
	t.Helper()
	if got.cycles != want.cycles {
		t.Errorf("%s: cycles %d, want %d", label, got.cycles, want.cycles)
	}
	if got.r0 != want.r0 {
		t.Errorf("%s: core 0 diverged:\n  got:  %+v\n  want: %+v", label, got.r0, want.r0)
	}
	if got.r1 != want.r1 {
		t.Errorf("%s: core 1 diverged:\n  got:  %+v\n  want: %+v", label, got.r1, want.r1)
	}
	if got.moved != want.moved {
		t.Errorf("%s: dma moved %d, want %d", label, got.moved, want.moved)
	}
	if got.words != want.words {
		t.Errorf("%s: dma destination words diverged", label)
	}
}

// TestChipCheckpointRoundTrip checkpoints a dual-core chip — DMA stream in
// flight, both cores live — under the production stepper and under the
// reference, and requires both to capture at the same cycle, the
// checkpointed runs to finish as the uninterrupted reference does, and every
// frame to restore under either stepper and finish identically. The arm
// cycles cover the hook's whole domain: mid-run, cycle 0 (the first commit —
// under bounded lag "park at 0" once read as "no stop" and fired at the end
// of the run), and a cycle the chip has already passed when the hook is
// armed (re-armed from inside the first capture for an earlier cycle, which
// must fire at the very next commit boundary).
func TestChipCheckpointRoundTrip(t *testing.T) {
	steppers := []struct {
		name      string
		reference bool
	}{{"production", false}, {"reference", true}}
	start := func(reference bool) *Chip {
		c, err := New(ckptChipConfig(t, reference))
		if err != nil {
			t.Fatal(err)
		}
		c.DMA[0].Program(0x700000, 0x740000, 512)
		return c
	}
	want := ckptFinishChip(t, start(true))

	for _, arm := range []struct {
		name     string
		at       int64
		rearmFor int64 // >= 0: re-arm from inside the first capture for this cycle, keep the second frame
	}{
		{"mid-run", 300, -1},
		{"cycle 0", 0, -1},
		{"cycle already passed", 300, 100},
	} {
		// Frames are compared by capture cycle and size, not byte for byte:
		// the wire format carries the warp counters and the response
		// deadlines the coordinator ratchets as it queries them, and the
		// reference has neither.
		var firstAt int64
		var firstLen int
		for i, save := range steppers {
			label := arm.name + "/" + save.name
			c := start(save.reference)
			var buf bytes.Buffer
			var capturedAt, captures int64
			var hook func(cycle int64) error
			hook = func(cycle int64) error {
				captures++
				if arm.rearmFor >= 0 && captures == 1 {
					c.SetCheckpointHook(arm.rearmFor, hook)
					return nil
				}
				capturedAt = cycle
				return c.Checkpoint(&buf)
			}
			c.SetCheckpointHook(arm.at, hook)
			ckptCompareOutcomes(t, label+" checkpointed run", ckptFinishChip(t, c), want)
			if capturedAt <= arm.at || capturedAt >= want.cycles {
				t.Fatalf("%s: hook armed at %d fired at cycle %d of %d", label, arm.at, capturedAt, want.cycles)
			}
			if i == 0 {
				firstAt, firstLen = capturedAt, buf.Len()
			} else if capturedAt != firstAt || buf.Len() != firstLen {
				t.Errorf("%s: captured %d bytes at cycle %d, %s %d bytes at cycle %d",
					label, buf.Len(), capturedAt, steppers[0].name, firstLen, firstAt)
			}
			for _, restore := range steppers {
				rc, err := RestoreChip(bytes.NewReader(buf.Bytes()), ckptChipConfig(t, restore.reference))
				if err != nil {
					t.Fatalf("%s restored under %s: %v", label, restore.name, err)
				}
				if rc.Cycle() != capturedAt {
					t.Fatalf("%s restored under %s: resumed at cycle %d, want %d", label, restore.name, rc.Cycle(), capturedAt)
				}
				ckptCompareOutcomes(t, label+" restored under "+restore.name, ckptFinishChip(t, rc), want)
			}
		}
	}
}

// TestChipRestoreRejectsMismatch: a checkpoint restored onto a chip with a
// different program or configuration must fail with ErrContentHash before
// any state is touched.
func TestChipRestoreRejectsMismatch(t *testing.T) {
	c, err := New(ckptChipConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.SetCheckpointHook(100, func(int64) error { return c.Checkpoint(&buf) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	other := ckptChipConfig(t, false)
	other.Programs[1] = countProgram(t, 0x200000, 26) // one extra block
	if _, err := RestoreChip(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, ckpt.ErrContentHash) {
		t.Fatalf("restore onto a different program: err = %v, want ErrContentHash", err)
	}

	// Truncation anywhere in the frame must be a clean error, not a panic.
	raw := buf.Bytes()
	for _, cut := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
		if _, err := RestoreChip(bytes.NewReader(raw[:cut]), ckptChipConfig(t, false)); err == nil {
			t.Fatalf("restore of %d/%d bytes succeeded", cut, len(raw))
		}
	}

	// Flipping a payload byte must be caught by the frame checksum.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := RestoreChip(bytes.NewReader(corrupt), ckptChipConfig(t, false)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("restore of corrupted frame: err = %v, want ErrCorrupt", err)
	}
}
