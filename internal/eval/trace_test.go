package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"trips/internal/flight"
	"trips/internal/obs"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// TestTraceBitIdentity runs the same workload with tracing off and on and
// requires identical simulated results: observation must never perturb the
// machine.
func TestTraceBitIdentity(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	for _, useNUCA := range []bool{false, true} {
		base := TRIPSOptions{Mode: tcc.Hand, TrackCritPath: true, UseNUCA: useNUCA}
		plain, err := RunTRIPS(w.Build(true), base)
		if err != nil {
			t.Fatal(err)
		}
		traced := base
		traced.Trace = obs.NewTracer(0)
		traced.Metrics = obs.NewSampler(0)
		obsRun, err := RunTRIPS(w.Build(true), traced)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cycles != obsRun.Cycles {
			t.Errorf("nuca=%v: traced run took %d cycles, untraced %d — tracing perturbed the simulation",
				useNUCA, obsRun.Cycles, plain.Cycles)
		}
		if plain.Blocks != obsRun.Blocks || plain.Insts != obsRun.Insts {
			t.Errorf("nuca=%v: traced run committed %d blocks/%d insts, untraced %d/%d",
				useNUCA, obsRun.Blocks, obsRun.Insts, plain.Blocks, plain.Insts)
		}
		for r, v := range plain.Regs {
			if obsRun.Regs[r] != v {
				t.Errorf("nuca=%v: traced r%d = %d, untraced %d", useNUCA, r, obsRun.Regs[r], v)
			}
		}
		if traced.Trace.Total() == 0 {
			t.Errorf("nuca=%v: traced run emitted no events", useNUCA)
		}

		// The reference must emit the same trace, event for event: skipped
		// ticks and warped cycles are exactly the ones with nothing to emit.
		oracle := base
		oracle.Reference = true
		oracle.Trace = obs.NewTracer(0)
		if _, err := RunTRIPS(w.Build(true), oracle); err != nil {
			t.Fatal(err)
		}
		if traced.Trace.Dropped() != 0 || oracle.Trace.Dropped() != 0 {
			t.Fatalf("nuca=%v: ring dropped events; the comparison needs both full traces", useNUCA)
		}
		if d := flight.Compare(oracle.Trace.Events(), traced.Trace.Events()); d != nil {
			t.Errorf("nuca=%v: production trace diverges from the reference's: %s", useNUCA, d.Reason)
		}

		// Armed flight recorder: rolling checkpoints and the bounded window
		// must be exactly as invisible as a plain tracer. (TrackCritPath is
		// dropped — the recorder is incompatible with it — but the critical
		// path analyzer is itself pure observation, so the plain run remains
		// the reference.)
		armed := TRIPSOptions{Mode: tcc.Hand, UseNUCA: useNUCA,
			Flight: &FlightOptions{Dir: t.TempDir(), Depth: 3, Interval: 500}}
		flightRun, err := RunTRIPS(w.Build(true), armed)
		if err != nil {
			t.Fatal(err)
		}
		if flightRun.Cycles != plain.Cycles {
			t.Errorf("nuca=%v: recorder-armed run took %d cycles, plain %d — the recorder perturbed the simulation",
				useNUCA, flightRun.Cycles, plain.Cycles)
		}
		if flightRun.Blocks != plain.Blocks || flightRun.Insts != plain.Insts {
			t.Errorf("nuca=%v: recorder-armed run committed %d blocks/%d insts, plain %d/%d",
				useNUCA, flightRun.Blocks, flightRun.Insts, plain.Blocks, plain.Insts)
		}
		for r, v := range plain.Regs {
			if flightRun.Regs[r] != v {
				t.Errorf("nuca=%v: recorder-armed r%d = %d, plain %d", useNUCA, r, flightRun.Regs[r], v)
			}
		}
	}
}

// TestTraceOrderingInvariants checks the protocol causality encoded in the
// trace: per block, dispatch precedes operand arrival precedes completion
// precedes the commit command precedes the final ack; per micronet message,
// inject/hop/deliver timestamps are monotone.
func TestTraceOrderingInvariants(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	sm := obs.NewSampler(0)
	res, err := RunTRIPS(w.Build(true), TRIPSOptions{
		Mode: tcc.Hand, TrackCritPath: true, UseNUCA: true,
		Trace: tr, Metrics: sm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("workload committed no blocks")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; the invariant checks need the full trace", tr.Dropped())
	}

	type lifecycle struct {
		dispatch, firstOperand, complete, commitCmd, acked int64
		haveDispatch, haveAcked                            bool
	}
	blocks := map[uint64]*lifecycle{}
	type msgKey struct {
		net uint8
		seq uint64
	}
	type msgState struct {
		lastTs               int64
		injects, delivers    int
		sawHopOrDeliverFirst bool
	}
	msgs := map[msgKey]*msgState{}

	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindNetInject, obs.KindNetHop, obs.KindNetDeliver:
			k := msgKey{ev.Net, ev.Seq}
			m := msgs[k]
			if m == nil {
				m = &msgState{lastTs: ev.Cycle}
				msgs[k] = m
				if ev.Kind != obs.KindNetInject {
					m.sawHopOrDeliverFirst = true
				}
			}
			if ev.Cycle < m.lastTs {
				t.Fatalf("message %s-%d: %s at cycle %d after cycle %d — hop timestamps not monotone",
					obs.NetName(ev.Net), ev.Seq, ev.Kind, ev.Cycle, m.lastTs)
			}
			m.lastTs = ev.Cycle
			switch ev.Kind {
			case obs.KindNetInject:
				m.injects++
			case obs.KindNetDeliver:
				m.delivers++
			}
		case obs.KindBlockDispatch:
			b := lifecycleOf(blocks, ev.Seq)
			b.dispatch = ev.Cycle
			b.haveDispatch = true
		case obs.KindOperand:
			b := lifecycleOf(blocks, ev.Seq)
			if b.firstOperand == 0 {
				b.firstOperand = ev.Cycle
			}
		case obs.KindBlockComplete:
			lifecycleOf(blocks, ev.Seq).complete = ev.Cycle
		case obs.KindCommitCmd:
			lifecycleOf(blocks, ev.Seq).commitCmd = ev.Cycle
		case obs.KindBlockAcked:
			b := lifecycleOf(blocks, ev.Seq)
			b.acked = ev.Cycle
			b.haveAcked = true
		}
	}

	// Block lifecycle ordering — only blocks that ran to ack (flushed blocks
	// legitimately stop partway).
	checked := 0
	for seq, b := range blocks {
		if !b.haveDispatch || !b.haveAcked {
			continue
		}
		checked++
		if b.firstOperand != 0 && b.firstOperand < b.dispatch {
			t.Errorf("seq %d: first operand at %d before dispatch at %d", seq, b.firstOperand, b.dispatch)
		}
		if b.complete < b.dispatch {
			t.Errorf("seq %d: complete at %d before dispatch at %d", seq, b.complete, b.dispatch)
		}
		if b.commitCmd < b.complete {
			t.Errorf("seq %d: commit command at %d before completion at %d", seq, b.commitCmd, b.complete)
		}
		if b.acked <= b.dispatch {
			t.Errorf("seq %d: acked at %d not after dispatch at %d", seq, b.acked, b.dispatch)
		}
		if b.acked < b.commitCmd {
			t.Errorf("seq %d: acked at %d before commit command at %d", seq, b.acked, b.commitCmd)
		}
	}
	if checked == 0 {
		t.Error("no block ran dispatch-to-ack; lifecycle tracing broken")
	}

	// Message sanity: every traced flow begins with its inject and ends with
	// exactly one deliver.
	flows := 0
	for k, m := range msgs {
		flows++
		if m.sawHopOrDeliverFirst {
			t.Errorf("message %s-%d: first event was not inject", obs.NetName(k.net), k.seq)
		}
		if m.injects != 1 || m.delivers != 1 {
			t.Errorf("message %s-%d: %d injects / %d delivers, want 1/1",
				obs.NetName(k.net), k.seq, m.injects, m.delivers)
		}
	}
	if flows == 0 {
		t.Error("no micronet messages traced")
	}

	// The Chrome export of the same trace must decode and keep the async
	// begin/end events balanced (what Perfetto groups into flows).
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, tr, sm); err != nil {
		t.Fatal(err)
	}
	var f obs.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	open := map[string]int{}
	counters := 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "b":
			open[ev.Cat+ev.ID]++
		case "e":
			open[ev.Cat+ev.ID]--
		case "C":
			counters++
		}
	}
	for id, n := range open {
		if n != 0 {
			t.Errorf("async flow %q: %+d unbalanced begin/end events", id, n)
		}
	}
	if counters == 0 {
		t.Error("no counter samples in the export despite an attached sampler")
	}
}

func lifecycleOf[V any](m map[uint64]*V, seq uint64) *V {
	v := m[seq]
	if v == nil {
		v = new(V)
		m[seq] = v
	}
	return v
}

// TestNUCAReportCounters checks the -stats NUCA report against the run.
func TestNUCAReportCounters(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand, UseNUCA: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.NUCA
	if rep == nil {
		t.Fatal("UseNUCA run returned no NUCA report")
	}
	if rep.Requests == 0 {
		t.Error("NUCA saw no requests on a memory-bound workload")
	}
	if rep.OCNInjected == 0 || rep.OCNInjected != rep.OCNDelivered {
		t.Errorf("OCN injected %d / delivered %d, want equal and nonzero after drain",
			rep.OCNInjected, rep.OCNDelivered)
	}
	// Every request eventually hits (a missing request parks in the MSHR and
	// retries after the fill), so hits == requests after the drain; misses
	// count the first-touch attempts separately.
	if rep.Hits != rep.Requests {
		t.Errorf("hits %d != requests %d (every drained request must retire as a hit)",
			rep.Hits, rep.Requests)
	}
	if rep.Misses == 0 {
		t.Error("no NUCA misses on cold banks")
	}
	if rep.SDRAMReads == 0 {
		t.Error("no SDRAM reads despite cold NUCA banks")
	}
	for _, want := range []string{"NUCA:", "OCN:", "MSHR:", "SDRAM:"} {
		if !bytes.Contains([]byte(rep.String()), []byte(want)) {
			t.Errorf("report missing %q section:\n%s", want, rep.String())
		}
	}
	// The perfect-L2 configuration must not fabricate a report.
	plain, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NUCA != nil {
		t.Error("perfect-L2 run returned a NUCA report")
	}
	_ = fmt.Sprintf("%+v", rep) // report must be printf-able
}
