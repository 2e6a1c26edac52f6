package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/critpath"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// readGolden decodes a testdata file written by the parent commit (a114839,
// before critical-path events became values and protocol messages were
// packed). These files must never be regenerated from newer code: they are
// what "bit-identical" means for this change.
func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden written at commit a114839: %v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCritPathReportsMatchParent holds the 21 hand-optimized rows' full
// critical-path reports — total cycles and all seven category counts, not the
// rounded percentages BENCH_table3.json keeps — equal to the parent commit's.
func TestCritPathReportsMatchParent(t *testing.T) {
	var golden []struct {
		Name        string
		TotalCycles int64
		Cycles      critpath.Split
	}
	readGolden(t, "testdata/parent_critpath_hand.json", &golden)
	if len(golden) != len(workloads.All()) {
		t.Fatalf("golden holds %d rows, the suite %d", len(golden), len(workloads.All()))
	}
	for i, w := range workloads.All() {
		g := golden[i]
		if g.Name != w.Name {
			t.Fatalf("row %d is %s, golden %s", i, w.Name, g.Name)
		}
		res, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := (critpath.Report{TotalCycles: g.TotalCycles, Cycles: g.Cycles}); res.Crit != want {
			t.Errorf("%s: critical path %+v, parent commit %+v", w.Name, res.Crit, want)
		}
	}
}

// TestCheckpointBytesMatchParent pins the checkpoint wire format at commit
// boundaries the small proc golden cannot reach: the parent commit's frames,
// by SHA-256, for runs whose capture cycle has dispatch beats of a flushed
// and already re-bound frame in the wheel (payloads the wheel events now only
// name), a flush command on the GCN, or parked SlowOPNRouter deliveries. The
// live capture must hash equal, load into a fresh machine and save back
// byte for byte, and a run restored from it must finish as the uninterrupted
// run does.
func TestCheckpointBytesMatchParent(t *testing.T) {
	var golden []struct {
		Bench      string
		Hand, Slow bool
		At         int64
		Bytes      int
		SHA256     string
	}
	readGolden(t, "testdata/parent_ckpt_hashes.json", &golden)
	for _, g := range golden {
		w, err := workloads.ByName(g.Bench)
		if err != nil {
			t.Fatal(err)
		}
		opt := TRIPSOptions{Mode: tcc.Compiled, SlowOPNRouter: g.Slow}
		if g.Hand {
			opt.Mode = tcc.Hand
		}
		capture := func(o TRIPSOptions) []byte {
			var buf bytes.Buffer
			o.CheckpointAt, o.CheckpointTo = g.At, &buf
			if _, err := RunTRIPS(w.Build(g.Hand), o); err != nil {
				t.Fatalf("%s at %d: %v", g.Bench, g.At, err)
			}
			return buf.Bytes()
		}
		live := capture(opt)
		if sum := sha256.Sum256(live); len(live) != g.Bytes || hex.EncodeToString(sum[:]) != g.SHA256 {
			t.Errorf("%s hand=%v slow=%v at %d: checkpoint of %d bytes differs from the parent commit's %d",
				g.Bench, g.Hand, g.Slow, g.At, len(live), g.Bytes)
			continue
		}
		payload, err := ckpt.ReadFile(bytes.NewReader(live), frameHash(t, w.Build(g.Hand), opt))
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildTRIPS(w.Build(g.Hand), opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.load(payload); err != nil {
			t.Fatalf("%s at %d: load: %v", g.Bench, g.At, err)
		}
		var again ckpt.Writer
		if err := m.save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Payload(), payload) {
			t.Errorf("%s hand=%v slow=%v at %d: load then save is not byte-identical", g.Bench, g.Hand, g.Slow, g.At)
		}
		want, err := RunTRIPS(w.Build(g.Hand), opt)
		if err != nil {
			t.Fatal(err)
		}
		resumed := opt
		resumed.RestoreFrom = bytes.NewReader(live)
		got, err := RunTRIPS(w.Build(g.Hand), resumed)
		if err != nil {
			t.Fatal(err)
		}
		ckptCompare(t, g.Bench+" restored from the parent-format checkpoint", got, want)
	}
}

// frameHash returns the content hash RunTRIPS frames a checkpoint of this
// machine with.
func frameHash(t *testing.T, spec *workloads.Spec, opt TRIPSOptions) ckpt.Hash {
	t.Helper()
	m, err := buildTRIPS(spec, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	return m.hash(opt)
}
