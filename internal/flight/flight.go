// Package flight is the simulator's flight recorder: during any run it
// keeps a rolling ring of the last K block-commit checkpoints (reusing
// internal/ckpt frames, bounded memory) plus bounded in-memory trace
// windows of recent protocol events, and on a trigger — panic, cycle-limit
// overrun, bit-identity divergence, or an explicit -dump-on request —
// atomically writes a self-describing dump bundle
// (manifest JSON + nearest-prior checkpoint + trace windows + counters
// snapshot) that cmd/trips-debug can replay and diff.
//
// The recorder rides entirely on the zero-perturbation observability
// substrate: trace windows are ordinary obs.Tracer rings (nil-gated,
// allocation-free Emit), and checkpoint captures fire through the same
// SetCheckpointHook block-commit boundaries the -checkpoint-out path uses,
// re-arming themselves from inside the callback. Ring slot buffers are
// recycled, so steady-state captures stop allocating once every slot has
// been written once.
package flight

import (
	"fmt"
	"os"
	"path/filepath"

	"trips/internal/ckpt"
	"trips/internal/obs"
)

// Triggers classify why a dump was written. Free-form strings are allowed
// (e.g. "block=12", "cycle=9000"); these are the well-known ones.
const (
	TriggerPanic      = "panic"
	TriggerLimit      = "cycle-limit"
	TriggerDivergence = "divergence"
	TriggerEnd        = "end"
	TriggerError      = "error"
)

// Config parameterizes a Recorder.
type Config struct {
	// Depth is the checkpoint ring size K (default 4).
	Depth int
	// Interval is the target cycle spacing between rolling checkpoint
	// captures when the recorder arms itself via Arm (default 50_000).
	// Captures land on the first block-commit boundary past each multiple.
	Interval int64
	// WindowCap is the per-window tracer ring capacity in events
	// (default 1<<16). A window holds roughly the last N blocks' protocol
	// events; at ~100 events per block the default covers several hundred
	// blocks.
	WindowCap int
	// Dir is the directory dump bundles are written into (default
	// "flight-dumps").
	Dir string
	// Name prefixes bundle directory names, e.g. the workload name
	// (default "flight").
	Name string
	// Tool records the producing binary in the manifest ("tsim",
	// "trips-eval", a test name).
	Tool string
	// Meta is workload/config identity recorded verbatim in the manifest —
	// everything trips-debug replay needs to rebuild the machine (bench
	// name, mode, placement, opn, nuca, ...).
	Meta map[string]string
	// Hash is the run's checkpoint content hash; dumped frames are framed
	// with it so restore performs the same compatibility check as -restore.
	Hash ckpt.Hash
	// Save captures full machine state into w at a block-commit boundary —
	// the same saver the -checkpoint-out path uses.
	Save func(w *ckpt.Writer) error
	// StatsText, when non-nil, renders a human-readable stats snapshot
	// (nuca report, sampler summary) included in the bundle as stats.txt.
	StatsText func() string
	// Counters, when non-nil, contributes extra named counters to the
	// manifest snapshot (merged with the recorder's own and ckpt package
	// counters).
	Counters func() map[string]uint64
}

// frame is one checkpoint ring slot; w's buffer is recycled across laps.
type frame struct {
	cycle int64
	valid bool
	w     ckpt.Writer
}

type window struct {
	name string
	tr   *obs.Tracer
}

// Recorder is the flight recorder. It is single-goroutine, like the
// tracers it owns: under parallel fan-out each machine needs its own.
type Recorder struct {
	cfg      Config
	frames   []frame
	captures uint64 // total checkpoint captures ever
	windows  []window
	dumps    uint64
	lastDump string // directory of the most recent bundle
}

// New builds a Recorder. Zero-valued Config fields take the documented
// defaults; Save may be nil for a windows-only recorder (no checkpoints).
func New(cfg Config) *Recorder {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50_000
	}
	if cfg.WindowCap <= 0 {
		cfg.WindowCap = 1 << 16
	}
	if cfg.Dir == "" {
		cfg.Dir = "flight-dumps"
	}
	if cfg.Name == "" {
		cfg.Name = "flight"
	}
	return &Recorder{cfg: cfg, frames: make([]frame, cfg.Depth)}
}

// Bind attaches the machine-dependent callbacks that only exist once the
// machine is built: the checkpoint content hash, the state saver, and the
// optional stats snapshotters. Windows may be created before Bind, so a
// recorder can supply the run's tracer during machine construction.
func (r *Recorder) Bind(hash ckpt.Hash, save func(w *ckpt.Writer) error, statsText func() string, counters func() map[string]uint64) {
	r.cfg.Hash = hash
	r.cfg.Save = save
	r.cfg.StatsText = statsText
	r.cfg.Counters = counters
}

// NewWindow creates a bounded trace window owned by the recorder and
// returns its tracer for attachment to a core/chip config. name labels the
// window in the bundle ("core0", "ocn").
func (r *Recorder) NewWindow(name string) *obs.Tracer {
	tr := obs.NewTracer(r.cfg.WindowCap)
	r.windows = append(r.windows, window{name: name, tr: tr})
	return tr
}

// ObserveWindow registers an existing tracer (e.g. the -trace tracer the
// run already carries) as a named window, so dumps include it without a
// second ring.
func (r *Recorder) ObserveWindow(name string, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	r.windows = append(r.windows, window{name: name, tr: tr})
}

// Windows returns the registered window tracers keyed by name.
func (r *Recorder) Windows() map[string]*obs.Tracer {
	m := make(map[string]*obs.Tracer, len(r.windows))
	for _, w := range r.windows {
		m[w.name] = w.tr
	}
	return m
}

// checkpointTarget is satisfied by *proc.Core and *chip.Chip.
type checkpointTarget interface {
	SetCheckpointHook(at int64, fn func(cycle int64) error)
}

// Arm installs a self-re-arming rolling-checkpoint hook on m: the first
// capture lands on the first block-commit boundary past from+Interval, and
// each capture re-arms the hook Interval cycles ahead. Requires cfg.Save.
func (r *Recorder) Arm(m checkpointTarget, from int64) {
	if r.cfg.Save == nil {
		return
	}
	var fire func(cycle int64) error
	fire = func(cycle int64) error {
		if err := r.Capture(cycle); err != nil {
			return err
		}
		m.SetCheckpointHook(cycle+r.cfg.Interval, fire)
		return nil
	}
	m.SetCheckpointHook(from+r.cfg.Interval, fire)
}

// Capture writes a checkpoint frame into the next ring slot, evicting the
// oldest once the ring is full. The slot's buffer is recycled, so once the
// ring has lapped, captures allocate only what the machine saver itself
// appends beyond the largest frame seen so far.
func (r *Recorder) Capture(cycle int64) error {
	if r.cfg.Save == nil {
		return fmt.Errorf("flight: recorder has no machine saver")
	}
	f := &r.frames[r.captures%uint64(len(r.frames))]
	f.w.Reset()
	if err := r.cfg.Save(&f.w); err != nil {
		f.valid = false
		return fmt.Errorf("flight: capture at cycle %d: %w", cycle, err)
	}
	f.cycle = cycle
	f.valid = true
	r.captures++
	return nil
}

// CheckpointsHeld reports how many valid frames the ring currently holds.
func (r *Recorder) CheckpointsHeld() int {
	n := 0
	for i := range r.frames {
		if r.frames[i].valid {
			n++
		}
	}
	return n
}

// Captures reports the total number of checkpoint captures ever taken.
func (r *Recorder) Captures() uint64 { return r.captures }

// RingBytes reports the memory bound actually in use by the ring: the sum
// of slot buffer capacities.
func (r *Recorder) RingBytes() int {
	n := 0
	for i := range r.frames {
		n += cap(r.frames[i].w.Payload())
	}
	return n
}

// WindowEvents reports the total events currently retained across windows.
func (r *Recorder) WindowEvents() int {
	n := 0
	for _, w := range r.windows {
		n += len(w.tr.Events())
	}
	return n
}

// Dumps reports how many bundles this recorder has written.
func (r *Recorder) Dumps() uint64 { return r.dumps }

// LastDump returns the directory of the most recent bundle ("" if none).
func (r *Recorder) LastDump() string { return r.lastDump }

// NearestBefore returns the held frame with the largest capture cycle not
// after the given cycle — the restore point a replay of the window around
// `cycle` wants. When every held frame is later (the event predates the
// ring), the earliest held frame is returned as the best available.
func (r *Recorder) NearestBefore(cycle int64) (frameCycle int64, payload []byte, ok bool) {
	bestBefore, earliest := -1, -1
	for i := range r.frames {
		f := &r.frames[i]
		if !f.valid {
			continue
		}
		if f.cycle <= cycle && (bestBefore < 0 || f.cycle > r.frames[bestBefore].cycle) {
			bestBefore = i
		}
		if earliest < 0 || f.cycle < r.frames[earliest].cycle {
			earliest = i
		}
	}
	pick := bestBefore
	if pick < 0 {
		pick = earliest
	}
	if pick < 0 {
		return 0, nil, false
	}
	return r.frames[pick].cycle, r.frames[pick].w.Payload(), true
}

// Dump atomically writes a bundle into cfg.Dir and returns its directory.
// trigger classifies the cause (TriggerPanic, "block=12", ...), reason
// carries the human detail (panic message, error text), and cycle is the
// simulated cycle at which the trigger fired (the nearest-prior checkpoint
// is chosen against it). The bundle is staged in a hidden temp directory
// and renamed into place, so readers never see a partial bundle.
func (r *Recorder) Dump(trigger, reason string, cycle int64) (string, error) {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	base := fmt.Sprintf("%s-%s-c%d", r.cfg.Name, sanitize(trigger), cycle)
	final := filepath.Join(r.cfg.Dir, base)
	for i := 2; ; i++ {
		if _, err := os.Stat(final); os.IsNotExist(err) {
			break
		}
		final = filepath.Join(r.cfg.Dir, fmt.Sprintf("%s-%d", base, i))
	}
	tmp := filepath.Join(r.cfg.Dir, ".tmp-"+filepath.Base(final))
	if err := os.RemoveAll(tmp); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	if err := r.writeBundle(tmp, trigger, reason, cycle); err != nil {
		os.RemoveAll(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("flight: %w", err)
	}
	r.dumps++
	r.lastDump = final
	return final, nil
}

// counters merges the recorder's own state, the ckpt package counters, and
// the caller-provided extras into one manifest snapshot.
func (r *Recorder) counters() map[string]uint64 {
	m := map[string]uint64{
		"flight.checkpoints_held": uint64(r.CheckpointsHeld()),
		"flight.captures":         r.captures,
		"flight.ring_bytes":       uint64(r.RingBytes()),
		"flight.window_events":    uint64(r.WindowEvents()),
		"flight.dumps":            r.dumps,
	}
	cs := ckpt.Stats()
	m["ckpt.frames_written"] = cs.FramesWritten
	m["ckpt.bytes_written"] = cs.BytesWritten
	m["ckpt.frames_read"] = cs.FramesRead
	m["ckpt.bytes_read"] = cs.BytesRead
	m["ckpt.hash_checks"] = cs.HashChecks
	m["ckpt.hash_failures"] = cs.HashFailures
	if r.cfg.Counters != nil {
		for k, v := range r.cfg.Counters() {
			m[k] = v
		}
	}
	return m
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "trigger"
	}
	return string(out)
}
