package proc

import (
	"reflect"
	"testing"

	"trips/internal/critpath"
	"trips/internal/mem"
)

// pointerIn returns the path of the first field of t that holds a pointer
// (anything the collector must trace, and every copy of which pays a write
// barrier while it marks), or "" when t is plain bytes.
func pointerIn(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return "(" + t.String() + ")"
	case reflect.Array:
		if p := pointerIn(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerIn(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
	}
	return ""
}

// TestPerCycleLayouts is the guard against silently re-fattening what the
// per-cycle path copies. The ceilings are today's sizes: a field added to a
// message or a wheel event fails here with the number, not as a few percent
// of host time nobody attributes. Everything that is carried by value through
// a Link, Queue, Chain, BiChain or Broadcast — and the critical-path event
// inside it — must also stay free of pointers, so those copies never need a
// write barrier. (opnMsg itself rides the mesh as a pooled pointer; it is
// held pointer-free so recycling one needs no clearing.)
func TestPerCycleLayouts(t *testing.T) {
	for _, c := range []struct {
		v   any
		max uintptr
	}{
		{critpath.Event{}, 40},
		{schedEvent{}, 16},
		{gcnMsg{}, 16},
		{gsnMsg{}, 72},
		{dsnMsg{}, 56},
		{opnMsg{}, 184},
		{inflight{}, 80},
		{operand{}, 24},
	} {
		typ := reflect.TypeOf(c.v)
		if typ.Size() > c.max {
			t.Errorf("%v is %d bytes, ceiling %d", typ, typ.Size(), c.max)
		}
		if p := pointerIn(typ); p != "" {
			t.Errorf("%v holds a pointer at %s", typ, p)
		}
	}
}

// The critical-path counters are 32 bits wide; a tracked run that could
// outlast them is refused when the core is built, not by a panic 4 G cycles in.
func TestCritPathRefusesOverlongRun(t *testing.T) {
	p := loopProgram(t)
	cfg := Config{Program: p, Mem: NewFixedLatencyMem(mem.New(), 20), TrackCritPath: true, MaxCycles: 1 << 32}
	if _, err := NewCore(cfg); err == nil {
		t.Fatal("NewCore accepted critical-path tracking over a 2^32-cycle run")
	}
	cfg.TrackCritPath = false
	if _, err := NewCore(cfg); err != nil {
		t.Fatalf("untracked core refused: %v", err)
	}
}
