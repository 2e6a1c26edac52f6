// Package mem provides the sparse byte-addressable physical memory backing
// the simulated TRIPS chip: the SDRAM behind the secondary memory system,
// and the flat memory used by the golden-model interpreter and the Alpha
// baseline. Values are little-endian.
package mem

const pageBits = 12

// Memory is a sparse 64-bit physical address space allocated in 4KB pages.
// The zero value is an empty memory ready to use.
type Memory struct {
	pages map[uint64][]byte
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

func (m *Memory) page(addr uint64, create bool) []byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64][]byte)
	}
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		p = make([]byte, 1<<pageBits)
		m.pages[pn] = p
	}
	return p
}

// ReadInto fills dst with the len(dst) bytes starting at addr. Unwritten
// memory reads as zero.
func (m *Memory) ReadInto(addr uint64, dst []byte) {
	n := len(dst)
	for i := 0; i < n; {
		a := addr + uint64(i)
		off := int(a & (1<<pageBits - 1))
		chunk := min(n-i, 1<<pageBits-off)
		if p := m.page(a, false); p != nil {
			copy(dst[i:i+chunk], p[off:off+chunk])
		} else {
			clear(dst[i : i+chunk])
		}
		i += chunk
	}
}

// ReadBytes returns a fresh copy of the n bytes starting at addr, for tools
// and tests that keep what they read; the simulator reads with ReadInto.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(addr, out)
	return out
}

// WriteBytes stores data starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for i := 0; i < len(data); {
		a := addr + uint64(i)
		off := int(a & (1<<pageBits - 1))
		chunk := min(len(data)-i, 1<<pageBits-off)
		p := m.page(a, true)
		copy(p[off:off+chunk], data[i:i+chunk])
		i += chunk
	}
}

// Read loads a width-byte little-endian value (width 1, 2, 4 or 8),
// optionally sign-extending it to 64 bits.
func (m *Memory) Read(addr uint64, width int, signed bool) uint64 {
	var b [8]byte
	m.ReadInto(addr, b[:width])
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	if signed && width < 8 {
		shift := uint(64 - 8*width)
		v = uint64(int64(v<<shift) >> shift)
	}
	return v
}

// Write stores the low width bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, width int, v uint64) {
	var b [8]byte
	for i := 0; i < width; i++ {
		b[i] = byte(v >> (8 * i))
	}
	m.WriteBytes(addr, b[:width])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
