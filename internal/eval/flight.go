package eval

import (
	"fmt"
	"strconv"
	"strings"

	"trips/internal/flight"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// FlightOptions arms the flight recorder on a RunTRIPS call: a rolling
// ring of block-commit checkpoints plus a bounded trace window, dumped as
// a self-describing bundle (manifest + nearest-prior checkpoint + window +
// stats snapshot) when the run panics, exceeds its cycle limit, or hits
// the configured DumpOn trigger.
type FlightOptions struct {
	// Dir receives dump bundles (default "flight-dumps").
	Dir string
	// Depth / Interval / WindowCap size the recorder (see flight.Config).
	Depth     int
	Interval  int64
	WindowCap int
	// DumpOn is an explicit trigger: "" (none), "end" (successful
	// completion), "block=N" (first commit boundary with >= N blocks
	// committed), or "cycle=N" (first commit boundary at or past cycle N).
	// Panics and cycle-limit overruns always dump while the recorder is
	// armed.
	DumpOn string
	// Tool names the producing binary in the manifest.
	Tool string
	// Bench / Hand identify the workload for trips-debug replay: the bundle
	// records them so a replay can rebuild the same machine. Bench defaults
	// to the spec's function name (which for registry workloads is the
	// workload name).
	Bench string
	Hand  bool
}

// flightRun is the per-run recorder wiring. The zero value (nil rec) is a
// disarmed recorder whose methods are all no-ops, so RunTRIPS calls them
// unconditionally.
type flightRun struct {
	rec      *flight.Recorder
	t        *trips
	interval int64
	trig     DumpTrigger
	fired    bool // the explicit trigger dumped already
	dirs     []string
	dumpErr  error
}

// DumpTrigger is a parsed FlightOptions.DumpOn: dump at the end of a
// successful run, at the first commit boundary with at least Block blocks
// committed, or at the first commit boundary at or past Cycle. The zero
// value arms no trigger.
type DumpTrigger struct {
	End   bool
	Block uint64
	Cycle int64
}

// ParseDumpOn parses a DumpOn value: "" (no trigger), "end", "block=N" or
// "cycle=N", with N positive. Front ends call it while checking their flags,
// so a bad value is refused before any machine is built.
func ParseDumpOn(s string) (DumpTrigger, error) {
	var t DumpTrigger
	switch {
	case s == "":
	case s == "end":
		t.End = true
	case strings.HasPrefix(s, "block="):
		n, err := strconv.ParseUint(s[len("block="):], 10, 64)
		if err != nil || n == 0 {
			return t, fmt.Errorf("bad -dump-on %q: want block=<positive count>", s)
		}
		t.Block = n
	case strings.HasPrefix(s, "cycle="):
		n, err := strconv.ParseInt(s[len("cycle="):], 10, 64)
		if err != nil || n <= 0 {
			return t, fmt.Errorf("bad -dump-on %q: want cycle=<positive cycle>", s)
		}
		t.Cycle = n
	default:
		return t, fmt.Errorf("unknown -dump-on trigger %q: want end, block=N, or cycle=N", s)
	}
	return t, nil
}

// newFlightRun validates opt.Flight and builds the recorder. It may mutate
// opt: a run without its own tracer gets the recorder's bounded window as
// opt.Trace so the machine is built with tracing attached.
func newFlightRun(spec *workloads.Spec, opt *TRIPSOptions) (*flightRun, error) {
	fo := opt.Flight
	if fo == nil {
		return &flightRun{}, nil
	}
	if opt.TrackCritPath {
		return nil, fmt.Errorf("eval: %s: flight recorder is incompatible with critical-path tracking (checkpoints do not carry its events)", spec.F.Name)
	}
	if opt.CheckpointTo != nil {
		return nil, fmt.Errorf("eval: %s: flight recorder and explicit -checkpoint-out both own the commit hook; use one", spec.F.Name)
	}
	f := &flightRun{interval: fo.Interval}
	if f.interval <= 0 {
		f.interval = 50_000
	}
	var err error
	if f.trig, err = ParseDumpOn(fo.DumpOn); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	bench := fo.Bench
	if bench == "" {
		bench = spec.F.Name
	}
	f.rec = flight.New(flight.Config{
		Depth:     fo.Depth,
		Interval:  f.interval,
		WindowCap: fo.WindowCap,
		Dir:       fo.Dir,
		Name:      bench,
		Tool:      fo.Tool,
		Meta:      flightMeta(bench, fo.Hand, *opt),
	})
	if opt.Trace == nil {
		opt.Trace = f.rec.NewWindow("core")
	} else {
		f.rec.ObserveWindow("core", opt.Trace)
	}
	return f, nil
}

// flightMeta records the machine identity a replay needs. Raw option
// values are stored (MemLatency 0 means the default), so a replay that
// feeds them back through buildTRIPS recomputes the identical content
// hash.
func flightMeta(bench string, hand bool, opt TRIPSOptions) map[string]string {
	return map[string]string{
		"bench":        bench,
		"hand":         strconv.FormatBool(hand),
		"mode":         strconv.Itoa(int(opt.Mode)),
		"placement":    strconv.Itoa(int(opt.Placement)),
		"opn":          strconv.Itoa(opt.OPNChannels),
		"conservative": strconv.FormatBool(opt.ConservativeLoads),
		"slowopn":      strconv.FormatBool(opt.SlowOPNRouter),
		"memlat":       strconv.Itoa(opt.MemLatency),
		"nuca":         strconv.FormatBool(opt.UseNUCA),
	}
}

// metaOptions rebuilds the TRIPSOptions a bundle's meta recorded.
func metaOptions(meta map[string]string) (TRIPSOptions, error) {
	atoi := func(k string) (int, error) {
		if meta[k] == "" {
			return 0, nil
		}
		return strconv.Atoi(meta[k])
	}
	var opt TRIPSOptions
	var err error
	var v int
	if v, err = atoi("mode"); err == nil {
		opt.Mode = tcc.Mode(v)
	}
	if err == nil {
		if v, err = atoi("placement"); err == nil {
			opt.Placement = tcc.Placement(v)
		}
	}
	if err == nil {
		if v, err = atoi("opn"); err == nil {
			opt.OPNChannels = v
		}
	}
	if err == nil {
		if v, err = atoi("memlat"); err == nil {
			opt.MemLatency = v
		}
	}
	if err != nil {
		return opt, fmt.Errorf("eval: bundle meta: %w", err)
	}
	opt.ConservativeLoads = meta["conservative"] == "true"
	opt.SlowOPNRouter = meta["slowopn"] == "true"
	opt.UseNUCA = meta["nuca"] == "true"
	return opt, nil
}

// armed reports whether the recorder is live.
func (f *flightRun) armed() bool { return f.rec != nil }

// Recorder exposes the underlying recorder (nil when disarmed).
func (f *flightRun) Recorder() *flight.Recorder { return f.rec }

// bind attaches the built machine: the saver/hash/stats callbacks, the
// self-re-arming rolling-checkpoint hook (trigger-aware), and the obs
// sampler series for recorder state.
func (f *flightRun) bind(t *trips, opt TRIPSOptions) {
	if f.rec == nil {
		return
	}
	f.t = t
	f.rec.Bind(t.hash(opt), t.save,
		func() string {
			var b strings.Builder
			if t.sys != nil {
				rep := t.sys.Report()
				b.WriteString(rep.String())
			}
			if opt.Metrics != nil {
				b.WriteString(opt.Metrics.Summary())
			}
			return b.String()
		},
		func() map[string]uint64 {
			return map[string]uint64{
				"core.cycles": uint64(t.core.Cycle()),
				"core.blocks": t.core.CommittedBlocks,
				"core.insts":  t.core.CommittedInsts,
			}
		})
	var fire func(cycle int64) error
	fire = func(cycle int64) error {
		if err := f.rec.Capture(cycle); err != nil {
			return err
		}
		if !f.fired && f.trig.Block > 0 && t.core.CommittedBlocks >= f.trig.Block {
			f.fired = true
			f.dump(fmt.Sprintf("block=%d", f.trig.Block),
				fmt.Sprintf("%d blocks committed at commit boundary cycle %d", t.core.CommittedBlocks, cycle), cycle)
		}
		if !f.fired && f.trig.Cycle > 0 && cycle >= f.trig.Cycle {
			f.fired = true
			f.dump(fmt.Sprintf("cycle=%d", f.trig.Cycle),
				fmt.Sprintf("commit boundary cycle %d reached trigger", cycle), cycle)
		}
		next := cycle + f.interval
		// Land a capture right on the cycle trigger so the dumped window
		// starts as close to it as a commit boundary allows.
		if f.trig.Cycle > cycle && f.trig.Cycle < next {
			next = f.trig.Cycle
		}
		t.core.SetCheckpointHook(next, fire)
		return nil
	}
	first := f.interval
	if f.trig.Cycle > 0 && f.trig.Cycle < first {
		first = f.trig.Cycle
	}
	t.core.SetCheckpointHook(first, fire)
	if sm := opt.Metrics; sm != nil {
		sm.Register("flight.captures", func() int64 { return int64(f.rec.Captures()) })
		sm.Register("flight.checkpoints_held", func() int64 { return int64(f.rec.CheckpointsHeld()) })
		sm.Register("flight.window_events", func() int64 { return int64(f.rec.WindowEvents()) })
		sm.Register("flight.dumps", func() int64 { return int64(f.rec.Dumps()) })
	}
}

// guard runs the machine, converting panics and errors into dump bundles.
// Panics are re-raised after the dump; the "bounded-lag horizon violated"
// panic is classified as a deadline violation.
func (f *flightRun) guard(run func() error) error {
	if f.rec == nil {
		return run()
	}
	defer func() {
		if r := recover(); r != nil {
			trigger := flight.TriggerPanic
			if strings.Contains(fmt.Sprint(r), "horizon violated") {
				trigger = "deadline-violation"
			}
			f.dump(trigger, fmt.Sprint(r), f.t.core.Cycle())
			panic(r)
		}
	}()
	err := run()
	if err != nil {
		trigger := flight.TriggerError
		if strings.Contains(err.Error(), "cycle limit") {
			trigger = flight.TriggerLimit
		}
		f.dump(trigger, err.Error(), f.t.core.Cycle())
	}
	return err
}

// finish fires the end-of-run trigger.
func (f *flightRun) finish() {
	if f.rec == nil {
		return
	}
	if f.trig.End {
		f.dump(flight.TriggerEnd, "run completed", f.t.core.Cycle())
	}
}

func (f *flightRun) dump(trigger, reason string, cycle int64) {
	dir, err := f.rec.Dump(trigger, reason, cycle)
	if err != nil {
		if f.dumpErr == nil {
			f.dumpErr = err
		}
		return
	}
	f.dirs = append(f.dirs, dir)
}

func (f *flightRun) dumpDirs() []string { return f.dirs }
