// Package cache implements the set-associative cache banks and miss
// handling used throughout the TRIPS memory hierarchy: the 2-way 8KB L1
// data cache banks in each DT (paper Section 3.5), the 2-way 16KB L1
// instruction cache banks in each IT (Section 3.2), and the 4-way 64KB L2
// banks in each NUCA memory tile (Section 3.6).
package cache

import "fmt"

// LineBytes is the largest line a bank holds: every TRIPS cache uses 64-byte
// lines, so a line's data is a fixed array rather than a slice.
const LineBytes = 64

// Bank is one physically-indexed, write-back, LRU, set-associative cache
// bank holding real data bytes.
type Bank struct {
	SizeBytes int
	Ways      int
	LineBytes int
	numSets   int
	// lines holds every set's ways back to back: set i is
	// lines[i*Ways : (i+1)*Ways].
	lines []line
	clock uint64 // LRU timestamp source

	// Stats.
	Hits, Misses, Evictions, Writebacks uint64
}

// line is one way. Its data buffer is allocated on the way's first fill and
// overwritten in place by every later one, so a bank that touches few lines
// stays small and a busy one stops allocating once its ways are warm.
type line struct {
	valid, dirty bool
	tag          uint64 // full line address (addr with offset bits cleared)
	data         *[LineBytes]byte
	lastUse      uint64
}

// NewBank builds a bank. sizeBytes must be ways*lineBytes*numSets for a
// power-of-two numSets, and lineBytes at most LineBytes.
func NewBank(sizeBytes, ways, lineBytes int) *Bank {
	numSets := sizeBytes / (ways * lineBytes)
	if lineBytes > LineBytes || numSets <= 0 || numSets*ways*lineBytes != sizeBytes || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%dway/%dB-line", sizeBytes, ways, lineBytes))
	}
	return &Bank{SizeBytes: sizeBytes, Ways: ways, LineBytes: lineBytes, numSets: numSets,
		lines: make([]line, numSets*ways)}
}

// LineAddr returns addr with the line-offset bits cleared.
func (b *Bank) LineAddr(addr uint64) uint64 { return addr &^ uint64(b.LineBytes-1) }

func (b *Bank) set(addr uint64) []line {
	idx := int(addr/uint64(b.LineBytes)) & (b.numSets - 1)
	return b.lines[idx*b.Ways : (idx+1)*b.Ways]
}

func (b *Bank) find(addr uint64) *line {
	la := b.LineAddr(addr)
	set := b.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// Probe reports whether addr hits without updating LRU or stats.
func (b *Bank) Probe(addr uint64) bool { return b.find(addr) != nil }

// Read returns the n bytes at addr inside the resident line, counting the
// access and refreshing its LRU stamp, or (nil, false) on a miss. The slice
// is lent, not copied: it aliases the line and is valid until the bank's
// next Write, Fill or LoadState, so a caller that keeps the bytes copies
// them. The access must not cross a line boundary; callers split
// line-crossing accesses.
func (b *Bank) Read(addr uint64, n int) ([]byte, bool) {
	ln := b.find(addr)
	if ln == nil {
		b.Misses++
		return nil, false
	}
	b.Hits++
	b.clock++
	ln.lastUse = b.clock
	off := int(addr) & (b.LineBytes - 1)
	if off+n > b.LineBytes {
		panic(fmt.Sprintf("cache: read of %d bytes at %#x crosses a %dB line", n, addr, b.LineBytes))
	}
	return ln.data[off : off+n], true
}

// ReadUint reads n <= 8 bytes at addr as a little-endian integer — a load's
// view of the bank.
func (b *Bank) ReadUint(addr uint64, n int) (uint64, bool) {
	in, ok := b.Read(addr, n)
	if !ok {
		return 0, false
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(in[i])
	}
	return v, true
}

// Write stores data at addr if the line is present, marking it dirty.
func (b *Bank) Write(addr uint64, data []byte) bool {
	ln := b.find(addr)
	if ln == nil {
		b.Misses++
		return false
	}
	b.Hits++
	b.clock++
	ln.lastUse = b.clock
	off := int(addr) & (b.LineBytes - 1)
	if off+len(data) > b.LineBytes {
		panic(fmt.Sprintf("cache: write of %d bytes at %#x crosses a %dB line", len(data), addr, b.LineBytes))
	}
	copy(ln.data[off:off+len(data)], data)
	ln.dirty = true
	return true
}

// Victim describes a dirty line displaced by a Fill. It carries the line's
// bytes by value (the first LineBytes of the bank's line size are
// meaningful), because the displacing fill reuses the way's buffer.
type Victim struct {
	Addr  uint64
	Data  [LineBytes]byte
	Valid bool
}

// Fill installs a full line (len(data) == LineBytes) for addr, returning
// the displaced dirty victim if any. The new line is installed clean, its
// bytes copied into the way's buffer.
func (b *Bank) Fill(addr uint64, data []byte) Victim {
	if len(data) != b.LineBytes {
		panic(fmt.Sprintf("cache: fill with %d bytes, line is %d", len(data), b.LineBytes))
	}
	la := b.LineAddr(addr)
	set := b.set(addr)
	// Refill into an existing copy (e.g. a prefetch race) or an invalid way.
	victim := &set[0]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			victim = &set[i]
			break
		}
		if !set[i].valid {
			victim = &set[i]
		} else if victim.valid && set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	var out Victim
	if victim.valid && victim.tag != la {
		b.Evictions++
		if victim.dirty {
			b.Writebacks++
			out = Victim{Addr: victim.tag, Data: *victim.data, Valid: true}
		}
	}
	b.clock++
	if victim.data == nil {
		victim.data = new([LineBytes]byte)
	}
	copy(victim.data[:], data)
	victim.valid, victim.dirty, victim.tag, victim.lastUse = true, false, la, b.clock
	return out
}

// InvalidateAll clears the bank (used when reconfiguring the NUCA array).
// The ways keep their buffers for the next fills.
func (b *Bank) InvalidateAll() {
	for i := range b.lines {
		b.lines[i] = line{data: b.lines[i].data}
	}
}

// DirtyLines returns the addresses and contents of all dirty lines; used to
// flush write-back state at simulation end so memory holds final results.
func (b *Bank) DirtyLines() []Victim {
	var out []Victim
	for i := range b.lines {
		if ln := &b.lines[i]; ln.valid && ln.dirty {
			out = append(out, Victim{Addr: ln.tag, Data: *ln.data, Valid: true})
		}
	}
	return out
}
