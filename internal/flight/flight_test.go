package flight

import (
	"os"
	"strings"
	"testing"

	"trips/internal/ckpt"
	"trips/internal/obs"
)

func testRecorder(t *testing.T, depth int, save func(w *ckpt.Writer) error) *Recorder {
	t.Helper()
	return New(Config{
		Depth:    depth,
		Interval: 100,
		Dir:      t.TempDir(),
		Name:     "test",
		Tool:     "flight_test",
		Meta:     map[string]string{"bench": "fake"},
		Hash:     ckpt.HashContent([]byte("prog"), []byte("cfg")),
		Save:     save,
	})
}

func TestRingRotationAndNearestBefore(t *testing.T) {
	var stamp byte
	r := testRecorder(t, 3, func(w *ckpt.Writer) error {
		w.U8(stamp)
		return nil
	})
	for i, cycle := range []int64{100, 200, 300, 400, 500} {
		stamp = byte(i)
		if err := r.Capture(cycle); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CheckpointsHeld(); got != 3 {
		t.Fatalf("CheckpointsHeld = %d, want 3 (depth)", got)
	}
	if got := r.Captures(); got != 5 {
		t.Fatalf("Captures = %d, want 5", got)
	}
	// Ring holds cycles 300, 400, 500 (stamps 2, 3, 4).
	for _, tc := range []struct {
		at    int64
		cycle int64
		stamp byte
	}{
		{450, 400, 3},
		{400, 400, 3},
		{10_000, 500, 4},
		// Everything held is later than 50: earliest held is the best
		// available.
		{50, 300, 2},
	} {
		cy, payload, ok := r.NearestBefore(tc.at)
		if !ok {
			t.Fatalf("NearestBefore(%d): no frame", tc.at)
		}
		if cy != tc.cycle || payload[0] != tc.stamp {
			t.Fatalf("NearestBefore(%d) = cycle %d stamp %d, want cycle %d stamp %d", tc.at, cy, payload[0], tc.cycle, tc.stamp)
		}
	}
}

// Once every slot has been written, captures of steady-size frames must
// recycle slot buffers rather than allocate.
func TestCaptureRecyclesBuffers(t *testing.T) {
	payload := make([]byte, 4096)
	r := testRecorder(t, 4, func(w *ckpt.Writer) error {
		w.Bytes(payload)
		return nil
	})
	var cycle int64
	for i := 0; i < 8; i++ { // warm every slot twice
		cycle += 100
		if err := r.Capture(cycle); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		cycle += 100
		if err := r.Capture(cycle); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state Capture allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestDumpBundleRoundTrip(t *testing.T) {
	r := testRecorder(t, 2, func(w *ckpt.Writer) error {
		w.Section("fake")
		w.U64(42)
		return nil
	})
	r.cfg.StatsText = func() string { return "stats snapshot\n" }
	r.cfg.Counters = func() map[string]uint64 { return map[string]uint64{"extra.counter": 7} }
	tr := r.NewWindow("core0")
	for i := 0; i < 10; i++ {
		tr.Emit(obs.Event{Cycle: int64(1000 + i), Seq: uint64(i), Kind: obs.KindBlockFetch, Addr: 0x100})
	}
	if err := r.Capture(900); err != nil {
		t.Fatal(err)
	}
	if err := r.Capture(1004); err != nil {
		t.Fatal(err)
	}

	dir, err := r.Dump(TriggerDivergence, "injected fault", 1009)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dumps() != 1 || r.LastDump() != dir {
		t.Fatalf("dump bookkeeping: dumps=%d last=%q dir=%q", r.Dumps(), r.LastDump(), dir)
	}

	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := b.Manifest
	if man.Trigger != TriggerDivergence || man.Reason != "injected fault" || man.DumpCycle != 1009 {
		t.Fatalf("manifest trigger/reason/cycle wrong: %+v", man)
	}
	if man.Checkpoint == nil || man.Checkpoint.Cycle != 1004 {
		t.Fatalf("manifest checkpoint: %+v", man.Checkpoint)
	}
	if man.Meta["bench"] != "fake" {
		t.Fatalf("manifest meta lost: %+v", man.Meta)
	}
	if man.Counters["extra.counter"] != 7 {
		t.Fatalf("extra counters lost: %v", man.Counters)
	}
	if man.Counters["flight.captures"] != 2 {
		t.Fatalf("flight.captures = %d, want 2", man.Counters["flight.captures"])
	}
	if man.Kinds[uint8(obs.KindNetHop)] != "hop" {
		t.Fatalf("kind legend missing: %v", man.Kinds)
	}

	// The bundled checkpoint restores through the standard framed reader
	// with the same content-hash gate as -restore.
	f, err := os.Open(b.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload, err := ckpt.ReadFile(f, r.cfg.Hash)
	if err != nil {
		t.Fatal(err)
	}
	pr := ckpt.NewReader(payload)
	pr.Section("fake")
	if got := pr.U64(); got != 42 {
		t.Fatalf("checkpoint payload round trip: got %d, want 42", got)
	}

	evs, err := b.Window("")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 || evs[0].Cycle != 1000 || evs[9].Cycle != 1009 {
		t.Fatalf("window round trip: %d events, first %v", len(evs), evs[0])
	}
	if evs[3] != (obs.Event{Cycle: 1003, Seq: 3, Kind: obs.KindBlockFetch, Addr: 0x100}) {
		t.Fatalf("event fields lost in JSON round trip: %+v", evs[3])
	}

	// A second dump at the same cycle must not clobber the first.
	dir2, err := r.Dump(TriggerDivergence, "again", 1009)
	if err != nil {
		t.Fatal(err)
	}
	if dir2 == dir {
		t.Fatalf("second dump reused directory %s", dir)
	}
	// No temp staging directories survive.
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("staging directory leaked: %s", e.Name())
		}
	}
}

func TestDumpWithoutCheckpoints(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Name: "bare", Tool: "flight_test"})
	tr := r.NewWindow("w")
	tr.Emit(obs.Event{Cycle: 5, Kind: obs.KindBlockFetch})
	dir, err := r.Dump(TriggerPanic, "boom", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Checkpoint != nil {
		t.Fatalf("expected no checkpoint, got %+v", b.Manifest.Checkpoint)
	}
	if b.CheckpointPath() != "" {
		t.Fatalf("CheckpointPath = %q, want empty", b.CheckpointPath())
	}
	if evs, err := b.Window("w"); err != nil || len(evs) != 1 {
		t.Fatalf("window: %v %v", evs, err)
	}
}

func TestNormalizeFlowIDsAndCompare(t *testing.T) {
	mk := func(ids ...uint64) []obs.Event {
		var evs []obs.Event
		for i, id := range ids {
			evs = append(evs, obs.Event{Cycle: int64(i), Kind: obs.KindNetHop, Net: obs.NetOCN, Seq: id, Addr: obs.PackCoord(1, 2)})
		}
		return evs
	}
	// Same flow structure under different raw ids normalizes identically.
	a := mk(500, 500, 7, 500, 7)
	b := mk(1, 1, 2, 1, 2)
	if d := Compare(a, b); d != nil {
		t.Fatalf("identical flow structure reported divergent: %s", d.Reason)
	}
	// Different interleaving is caught.
	c := mk(1, 2, 2, 1, 2)
	d := Compare(a, c)
	if d == nil {
		t.Fatal("divergent interleaving not caught")
	}
	if d.Index != 1 {
		t.Fatalf("divergence at index %d, want 1", d.Index)
	}
	// Block events keep their architectural Seq.
	blk := []obs.Event{{Cycle: 1, Kind: obs.KindBlockDispatch, Seq: 99}}
	if got := NormalizeFlowIDs(blk); got[0].Seq != 99 {
		t.Fatalf("block seq remapped: %+v", got[0])
	}
	// Length mismatch.
	if d := Compare(a, a[:3]); d == nil || d.Index != 3 {
		t.Fatalf("length mismatch not localized: %+v", d)
	}
	// Equal windows: nil.
	if d := Compare(nil, nil); d != nil {
		t.Fatalf("empty windows divergent: %+v", d)
	}
}

func TestWindowFrom(t *testing.T) {
	var evs []obs.Event
	for _, cy := range []int64{10, 20, 20, 30} {
		evs = append(evs, obs.Event{Cycle: cy})
	}
	if got := WindowFrom(evs, 20); len(got) != 3 || got[0].Cycle != 20 {
		t.Fatalf("WindowFrom(20) = %v", got)
	}
	if got := WindowFrom(evs, 31); len(got) != 0 {
		t.Fatalf("WindowFrom(31) = %v", got)
	}
	if got := WindowFrom(evs, 0); len(got) != 4 {
		t.Fatalf("WindowFrom(0) = %v", got)
	}
}

func TestArmReArms(t *testing.T) {
	r := testRecorder(t, 4, func(w *ckpt.Writer) error {
		w.U8(1)
		return nil
	})
	m := &fakeMachine{}
	r.Arm(m, 0)
	if m.at != 100 {
		t.Fatalf("first arm at %d, want Interval 100", m.at)
	}
	// Simulate commit boundaries past each arm point.
	for i := 0; i < 3; i++ {
		fn := m.fn
		m.fn = nil
		if err := fn(m.at + 7); err != nil {
			t.Fatal(err)
		}
		if m.fn == nil {
			t.Fatalf("capture %d did not re-arm", i)
		}
	}
	if r.Captures() != 3 {
		t.Fatalf("Captures = %d, want 3", r.Captures())
	}
	// Fired at 107, 214, 321; each re-arms Interval ahead of the capture.
	if m.at != 321+100 {
		t.Fatalf("re-arm at %d, want %d", m.at, 321+100)
	}
}

type fakeMachine struct {
	at int64
	fn func(int64) error
}

func (m *fakeMachine) SetCheckpointHook(at int64, fn func(int64) error) {
	m.at, m.fn = at, fn
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"end": "end", "block=12": "block_12", "": "trigger", "a/b": "a_b",
	} {
		if got := sanitize(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
