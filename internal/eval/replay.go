package eval

import (
	"fmt"
	"os"

	"trips/internal/ckpt"
	"trips/internal/flight"
	"trips/internal/obs"
	"trips/internal/proc"
	"trips/internal/workloads"
)

// ReplayOptions parameterizes ReplayBundle.
type ReplayOptions struct {
	// ToCycle stops the replay once the core clock reaches it (0 = no cycle
	// bound). ToBlock stops once that many blocks have committed (0 = no
	// block bound). With neither set the replay runs to completion.
	ToCycle int64
	ToBlock uint64
	// TracerCap sizes the replay tracer ring (0 = obs.DefaultTracerCap).
	TracerCap int
	// FromStart ignores the bundled checkpoint and re-simulates from the
	// entry block — slower, but the only way to carry critical-path
	// attribution into the window (checkpoints do not carry the events). Deterministic stepping makes the window identical either
	// way.
	FromStart bool
	// TrackCritPath tags replayed events with critical-path categories.
	// Requires FromStart.
	TrackCritPath bool
}

// ReplayResult is the outcome of a replay: where the machine stopped and
// the full trace window the replay recorded.
type ReplayResult struct {
	Cycles int64
	Blocks uint64
	Insts  uint64
	// RestoredAt is the checkpoint cycle the replay resumed from (0 when
	// FromStart).
	RestoredAt int64
	// Tracer holds the replay's trace ring for Chrome export; Events is its
	// unrolled window.
	Tracer *obs.Tracer
	Events []obs.Event
}

// ReplayBundle restores a dump bundle's nearest-prior checkpoint into a
// freshly built machine and deterministically re-runs it to the window of
// interest with full tracing enabled — at zero cost to the original run,
// which may have executed with no tracer at all. The machine identity comes
// from the bundle manifest; the checkpoint's content hash is re-verified on
// restore exactly as tsim -restore does. The replay steps the reference
// (bit-identical to the production stepping by construction), so the
// replayed window matches the same simulated region of any other run of
// this configuration event-for-event (message trace ids aside — see
// flight.NormalizeFlowIDs) — and trips-debug replay/diff cross-check every
// bundle against the oracle.
func ReplayBundle(b *flight.Bundle, ro ReplayOptions) (*ReplayResult, error) {
	meta := b.Manifest.Meta
	bench := meta["bench"]
	if bench == "" {
		return nil, fmt.Errorf("eval: bundle %s has no bench in meta; cannot rebuild the machine", b.Dir)
	}
	w, err := workloads.ByName(bench)
	if err != nil {
		return nil, fmt.Errorf("eval: replay %s: %w", b.Dir, err)
	}
	spec := w.Build(meta["hand"] == "true")
	opt, err := metaOptions(meta)
	if err != nil {
		return nil, err
	}
	if ro.TrackCritPath && !ro.FromStart {
		return nil, fmt.Errorf("eval: critical-path replay must run from the start (-from-start): checkpoints do not carry critical-path events")
	}
	opt.Reference = true
	opt.TrackCritPath = ro.TrackCritPath
	tracer := obs.NewTracer(ro.TracerCap)
	opt.Trace = tracer
	t, err := buildTRIPS(spec, opt, true)
	if err != nil {
		return nil, err
	}
	if want := b.Manifest.ContentHash; want != "" && t.hash(opt).String() != want {
		return nil, fmt.Errorf("eval: replay %s: rebuilt machine hash %s does not match bundle %s (workload registry or simulator changed since the dump)", b.Dir, t.hash(opt), want)
	}
	res := &ReplayResult{Tracer: tracer}
	if !ro.FromStart {
		path := b.CheckpointPath()
		if path == "" {
			return nil, fmt.Errorf("eval: bundle %s holds no checkpoint; use -from-start", b.Dir)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("eval: replay: %w", err)
		}
		payload, err := ckpt.ReadFile(f, t.hash(opt))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("eval: replay %s: %w", b.Dir, err)
		}
		if err := t.load(payload); err != nil {
			return nil, fmt.Errorf("eval: replay %s: %w", b.Dir, err)
		}
		res.RestoredAt = t.core.Cycle()
	}
	if ro.ToCycle > 0 && ro.ToCycle <= t.core.Cycle() {
		return nil, fmt.Errorf("eval: replay target cycle %d is not after the restore point %d", ro.ToCycle, t.core.Cycle())
	}
	for !t.core.Done() {
		if ro.ToCycle > 0 && t.core.Cycle() >= ro.ToCycle {
			break
		}
		if ro.ToBlock > 0 && t.core.CommittedBlocks >= ro.ToBlock {
			break
		}
		if t.core.Cycle() > proc.DefaultMaxCycles {
			return nil, fmt.Errorf("eval: replay: cycle limit %d exceeded", proc.DefaultMaxCycles)
		}
		t.core.Step()
		if t.external {
			t.sys.Tick()
		}
	}
	if t.core.Done() {
		// Mirror a real run's epilogue: the cache flush and NUCA drain emit
		// traced writeback traffic that belongs to the window.
		if err := t.core.FlushCaches(); err != nil {
			return nil, fmt.Errorf("eval: replay: %w", err)
		}
		if t.sys != nil {
			t.sys.Flush()
		}
	}
	res.Cycles = t.core.Cycle()
	res.Blocks = t.core.CommittedBlocks
	res.Insts = t.core.CommittedInsts
	res.Events = tracer.Events()
	return res, nil
}
