package eval

import (
	"reflect"
	"testing"

	"trips/internal/proc"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// TestNUCASteppingModesBitIdentical runs a NUCA-backed workload on the
// reference (the core drives the memory system in lockstep) and under the
// bounded-lag coordinator, at its derived horizons and with every stride
// capped at one cycle, and requires identical cycle counts and final
// registers. vadd is the load-bearing workload here: its working set evicts
// dirty L2 lines, and a victim writeback is submitted from inside a
// response's Done callback during the backend tick — the one submission
// whose drain stamp cannot come from the owning core's clock (the clock
// already reads the in-progress tick) and must be phased to replay the
// sequential drain schedule. Divergence on this test means the stamp phasing
// broke.
func TestNUCASteppingModesBitIdentical(t *testing.T) {
	w, err := workloads.ByName("vadd")
	if err != nil {
		t.Fatal(err)
	}
	opt := TRIPSOptions{Mode: tcc.Hand, UseNUCA: true}
	ref, err := RunTRIPS(w.Build(true), TRIPSOptions{Mode: tcc.Hand, UseNUCA: true, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	lag, err := RunTRIPS(w.Build(true), opt)
	if err != nil {
		t.Fatal(err)
	}
	// No option caps strides; the coordinator's maxStride argument does.
	m, err := buildTRIPS(w.Build(true), opt, true)
	if err != nil {
		t.Fatal(err)
	}
	stats := &proc.LagStats{}
	res, err := m.core.RunLagCheckpointed(m.sys, 1, stats)
	if err != nil {
		t.Fatal(err)
	}
	stride1, err := m.finish(res, stats)
	if err != nil {
		t.Fatal(err)
	}
	if cs := stats.Core[0]; cs.Strides == 0 || cs.StrideCycles > int64(cs.Strides) {
		t.Errorf("stride cap 1: %d strides covered %d cycles", cs.Strides, cs.StrideCycles)
	}
	for _, m := range []struct {
		name string
		got  *TRIPSResult
	}{{"lag", lag}, {"lag+stride1", stride1}} {
		if m.got.Cycles != ref.Cycles {
			t.Errorf("%s: %d cycles, reference %d", m.name, m.got.Cycles, ref.Cycles)
		}
		if !reflect.DeepEqual(m.got.Regs, ref.Regs) {
			t.Errorf("%s: final registers diverge from the reference", m.name)
		}
	}
}
