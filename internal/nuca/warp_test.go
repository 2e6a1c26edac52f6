package nuca

import (
	"bytes"
	"slices"
	"testing"

	"trips/internal/mem"
	"trips/internal/proc"
)

// TestSystemWarpParityOnRoundTrip drives one cold read — port injection,
// request transit, SDRAM access, multi-flit response transit — under two
// clocking disciplines: ticking every cycle, and warping to each drain
// deadline the way Core.Run and the bounded-lag coordinator do (jump to
// NextEventCycle-1 when Quiet, then tick). The completion cycle, returned data, and every counter
// must match, and the warped run must skip most of the round trip.
func TestSystemWarpParityOnRoundTrip(t *testing.T) {
	run := func(warp bool) (total, ticked, warped int64, data []byte, s *System) {
		backing := mem.New()
		backing.Write(0x4000, 8, 0xdeadbeef)
		s = New(Config{Backing: backing})
		p := s.Port("dt0")
		var got []byte
		req := &proc.MemRequest{Addr: 0x4000, N: 8, Done: func(d []byte) { got = slices.Clone(d) }}
		if !p.Submit(req) {
			t.Fatal("submit refused")
		}
		for got == nil {
			if warp && s.Quiet() {
				if mh := s.NextEventCycle(); mh != horizonNever && mh-1 > s.cycle {
					delta := mh - 1 - s.cycle
					s.Warp(delta)
					warped += delta
				}
			}
			s.Tick()
			ticked++
			if ticked > 5000 {
				t.Fatal("request never completed")
			}
		}
		return s.cycle, ticked, warped, got, s
	}
	totA, tickA, _, dataA, sysA := run(false)
	totB, tickB, warpB, dataB, sysB := run(true)
	if totA != totB {
		t.Errorf("completion at backend cycle %d warped, %d stepped", totB, totA)
	}
	if !bytes.Equal(dataA, dataB) {
		t.Errorf("data %x warped, %x stepped", dataB, dataA)
	}
	if warpB == 0 {
		t.Error("warp never engaged across an OCN round trip")
	}
	if tickB+warpB != tickA {
		t.Errorf("warped run: %d ticks + %d warped != %d stepped cycles", tickB, warpB, tickA)
	}
	// The round trip is dominated by solo transits and the SDRAM access;
	// only injection cycles and delivery boundaries need real ticks.
	if tickB*2 > tickA {
		t.Errorf("warped run still stepped %d of %d cycles", tickB, tickA)
	}
	hA, mA := sysA.Stats()
	hB, mB := sysB.Stats()
	if hA != hB || mA != mB || sysA.Requests != sysB.Requests || sysA.LineTransfers != sysB.LineTransfers {
		t.Errorf("stats diverged: hits %d/%d misses %d/%d requests %d/%d transfers %d/%d",
			hB, hA, mB, mA, sysB.Requests, sysA.Requests, sysB.LineTransfers, sysA.LineTransfers)
	}
	for _, s := range []*System{sysA, sysB} {
		if n := s.Outstanding(); n != 0 {
			t.Errorf("%d transactions still pending after completion", n)
		}
	}
}

// TestOutstandingTracksSplitTransactions exercises the pending/pendSplit
// bookkeeping the end-of-run leak assertion guards: a line-crossing request
// registers one entry per part, all of which must drain on completion, for
// reads and writes alike.
func TestOutstandingTracksSplitTransactions(t *testing.T) {
	s := New(Config{Backing: mem.New()})
	p := s.Port("dt0")
	payload := make([]byte, 96) // crosses a 64-byte line boundary
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	done := false
	wr := &proc.MemRequest{Addr: 0x7020, Data: payload, IsWrite: true, Done: func([]byte) { done = true }}
	if !p.Submit(wr) {
		t.Fatal("submit refused")
	}
	// The injection register takes one part per tick, so both parts are
	// registered after two drains.
	s.Tick()
	if n := s.Outstanding(); n != 1 {
		t.Errorf("after one drain: Outstanding() = %d, want 1", n)
	}
	s.Tick()
	if n := s.Outstanding(); n != 2 {
		t.Errorf("split write in flight: Outstanding() = %d, want 2", n)
	}
	for i := 0; !done && i < 5000; i++ {
		s.Tick()
	}
	if !done {
		t.Fatal("split write never completed")
	}
	if n := s.Outstanding(); n != 0 {
		t.Errorf("after split write: Outstanding() = %d, want 0", n)
	}
	var got []byte
	rd := &proc.MemRequest{Addr: 0x7020, N: 96, Done: func(d []byte) { got = slices.Clone(d) }}
	if !p.Submit(rd) {
		t.Fatal("submit refused")
	}
	for i := 0; got == nil && i < 5000; i++ {
		s.Tick()
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("split read returned %v", got)
	}
	if n := s.Outstanding(); n != 0 {
		t.Errorf("after split read: Outstanding() = %d, want 0", n)
	}
}
