package nuca

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"trips/internal/mem"
	"trips/internal/proc"
)

// runOne submits a request and ticks until its callback fires.
func runOne(t *testing.T, s *System, p proc.MemPort, req *proc.MemRequest) (int, []byte) {
	t.Helper()
	var got []byte
	fired := false
	inner := req.Done
	req.Done = func(data []byte) {
		got = slices.Clone(data) // the backend lends data for the call only
		fired = true
		if inner != nil {
			inner(data)
		}
	}
	for !p.Submit(req) {
		s.Tick()
	}
	cycles := 0
	for !fired {
		s.Tick()
		cycles++
		if cycles > 5000 {
			t.Fatal("request never completed")
		}
	}
	return cycles, got
}

func TestReadThroughL2(t *testing.T) {
	backing := mem.New()
	backing.Write(0x4000, 8, 0xdeadbeef)
	s := New(Config{Backing: backing})
	p := s.Port("dt0")
	// Cold read: misses the L2, fetches from the SDC.
	cold, data := runOne(t, s, p, &proc.MemRequest{Addr: 0x4000, N: 8})
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(data[i])
	}
	if v != 0xdeadbeef {
		t.Fatalf("read = %#x", v)
	}
	// Warm read hits the bank: must be much faster than the cold one.
	warm, _ := runOne(t, s, p, &proc.MemRequest{Addr: 0x4000, N: 8})
	if !(cold > warm+s.cfg.SDRAMLatency/2) {
		t.Errorf("cold = %d cycles, warm = %d: L2 hit should skip the SDRAM", cold, warm)
	}
	h, m := s.Stats()
	if h == 0 || m == 0 {
		t.Errorf("stats: hits=%d misses=%d", h, m)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	s := New(Config{Backing: mem.New()})
	p := s.Port("dt1")
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	runOne(t, s, p, &proc.MemRequest{Addr: 0x9000, Data: payload, IsWrite: true})
	_, got := runOne(t, s, p, &proc.MemRequest{Addr: 0x9000, N: 8})
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %v", got)
	}
	// Flush pushes dirty lines to the backing store.
	s.Flush()
	if got := s.cfg.Backing.ReadBytes(0x9000, 8); !bytes.Equal(got, payload) {
		t.Fatalf("backing after flush: %v", got)
	}
}

func TestLineInterleavingAcrossMTs(t *testing.T) {
	s := New(Config{Backing: mem.New()})
	seen := map[int]bool{}
	for line := 0; line < NumMTs; line++ {
		seen[s.MTFor(uint64(line)*LineBytes)] = true
	}
	if len(seen) != NumMTs {
		t.Errorf("16 consecutive lines hit only %d distinct MTs", len(seen))
	}
	// Same line, different offsets: same MT.
	if s.MTFor(0x1000) != s.MTFor(0x1038) {
		t.Error("same-line addresses map to different MTs")
	}
}

func TestNUCANonUniformity(t *testing.T) {
	// The N in NUCA: a bank near the port must respond faster than a far
	// bank. Find the nearest and farthest MTs from port dt0 and compare
	// warm (hit) latencies.
	s := New(Config{Backing: mem.New()})
	p := s.Port("dt0").(*ntPort)
	near, far := -1, -1
	nd, fd := 1<<30, -1
	for i, mt := range s.mts {
		d := p.at.Manhattan(mt.at)
		if d < nd {
			nd, near = d, i
		}
		if d > fd {
			fd, far = d, i
		}
	}
	addrFor := func(mtIdx int) uint64 {
		for a := uint64(0); ; a += LineBytes {
			if s.MTFor(a) == mtIdx {
				return a
			}
		}
	}
	measure := func(addr uint64) int {
		runOne(t, s, p, &proc.MemRequest{Addr: addr, N: 8}) // warm the bank
		c, _ := runOne(t, s, p, &proc.MemRequest{Addr: addr, N: 8})
		return c
	}
	cNear := measure(addrFor(near))
	cFar := measure(addrFor(far))
	if cFar <= cNear {
		t.Errorf("far bank (%d cycles) should be slower than near bank (%d): NUCA", cFar, cNear)
	}
}

func TestPartitionedHalves(t *testing.T) {
	s := New(Config{Backing: mem.New(), Partition: true})
	p0 := s.Port("dt0").(*ntPort)
	p1 := s.Port("p1:dt0").(*ntPort)
	// Each half's ports must route every address into its own eight banks.
	for a := uint64(0); a < 64*LineBytes; a += LineBytes {
		at0 := s.route(p0.half, a)
		at1 := s.route(p1.half, a)
		i0, i1 := -1, -1
		for i, mt := range s.mts {
			if mt.at == at0 {
				i0 = i
			}
			if mt.at == at1 {
				i1 = i
			}
		}
		if i0 >= NumMTs/2 {
			t.Fatalf("processor 0 address %#x routed to bank %d", a, i0)
		}
		if i1 < NumMTs/2 {
			t.Fatalf("processor 1 address %#x routed to bank %d", a, i1)
		}
	}
	// The two halves are independent: same address, different storage...
	// both ultimately back onto the same SDRAM, so writes from one half
	// are visible to the other only after a flush — write, flush, read.
	payload := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	runOne(t, s, p0, &proc.MemRequest{Addr: 0x5000, Data: payload, IsWrite: true})
	s.Flush()
	_, got := runOne(t, s, p1, &proc.MemRequest{Addr: 0x5000, N: 8})
	if !bytes.Equal(got, payload) {
		t.Fatalf("cross-half read after flush: %v", got)
	}
}

func TestScratchpadMode(t *testing.T) {
	// Scratchpad banks never touch the SDRAM.
	s := New(Config{Backing: mem.New(), Scratchpad: true})
	p := s.Port("dt0")
	payload := []byte{0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3, 4}
	runOne(t, s, p, &proc.MemRequest{Addr: 0x7000, Data: payload, IsWrite: true})
	_, got := runOne(t, s, p, &proc.MemRequest{Addr: 0x7000, N: 8})
	if !bytes.Equal(got, payload) {
		t.Fatalf("scratchpad read %v", got)
	}
	if h, m := s.Stats(); h != 0 || m != 0 {
		t.Errorf("scratchpad should not count cache hits/misses: %d/%d", h, m)
	}
	if got := s.cfg.Backing.ReadBytes(0x7000, 8); bytes.Equal(got, payload) {
		t.Error("scratchpad write leaked to SDRAM")
	}
}

func TestQuickMemorySystemMirrorsFlat(t *testing.T) {
	// Property: any interleaving of line-sized reads/writes through the
	// NUCA system matches a flat memory after flush.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		backing := mem.New()
		golden := mem.New()
		s := New(Config{Backing: backing})
		ports := []proc.MemPort{s.Port("dt0"), s.Port("dt1"), s.Port("it0")}
		for i := 0; i < 40; i++ {
			addr := uint64(r.Intn(64)) * LineBytes
			p := ports[r.Intn(len(ports))]
			if r.Intn(2) == 0 {
				line := make([]byte, LineBytes)
				r.Read(line)
				golden.WriteBytes(addr, line)
				done := false
				req := &proc.MemRequest{Addr: addr, Data: line, IsWrite: true, Done: func([]byte) { done = true }}
				for !p.Submit(req) {
					s.Tick()
				}
				for !done {
					s.Tick()
				}
			} else {
				var got []byte
				req := &proc.MemRequest{Addr: addr, N: LineBytes, Done: func(d []byte) { got = slices.Clone(d) }}
				for !p.Submit(req) {
					s.Tick()
				}
				for got == nil {
					s.Tick()
				}
				if !bytes.Equal(got, golden.ReadBytes(addr, LineBytes)) {
					return false
				}
			}
		}
		s.Flush()
		for a := uint64(0); a < 64*LineBytes; a += LineBytes {
			if !bytes.Equal(backing.ReadBytes(a, LineBytes), golden.ReadBytes(a, LineBytes)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
