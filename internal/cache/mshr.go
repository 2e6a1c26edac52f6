package cache

// MSHR is a bank of miss-status holding registers. Each DT's MSHR supports
// up to 16 requests across up to four outstanding cache lines (paper
// Section 3.5); each NUCA memory tile has a single-entry MSHR
// (Section 3.6).
//
// The registers are MaxLines fixed entries whose waiter lists are reused
// from miss to miss, so a steady stream of misses allocates nothing.
type MSHR struct {
	MaxLines    int // distinct outstanding line addresses
	MaxRequests int // total waiting requests across all lines
	entries     []mshrEntry
	lines       int // entries in use
	requests    int
	// done holds the waiter list the last Complete handed out; the next
	// Complete gives its backing array to the entry it frees.
	done []any
}

// mshrEntry is one register: the line it tracks and its waiters in service
// order.
type mshrEntry struct {
	valid   bool
	line    uint64
	waiters []any
}

// NewMSHR builds an MSHR with the given capacities.
func NewMSHR(maxLines, maxRequests int) *MSHR {
	return &MSHR{MaxLines: maxLines, MaxRequests: maxRequests, entries: make([]mshrEntry, maxLines)}
}

// find returns the entry tracking lineAddr, or nil.
func (m *MSHR) find(lineAddr uint64) *mshrEntry {
	for i := range m.entries {
		if e := &m.entries[i]; e.valid && e.line == lineAddr {
			return e
		}
	}
	return nil
}

// Allocate registers a waiter for lineAddr. It returns (primary, ok):
// primary is true when this is the first request for the line — the caller
// must issue the refill; ok is false when the MSHR is full and the request
// must retry.
func (m *MSHR) Allocate(lineAddr uint64, waiter any) (primary, ok bool) {
	if m.requests >= m.MaxRequests {
		return false, false
	}
	if e := m.find(lineAddr); e != nil {
		e.waiters = append(e.waiters, waiter)
		m.requests++
		return false, true
	}
	for i := range m.entries {
		if e := &m.entries[i]; !e.valid {
			e.valid, e.line = true, lineAddr
			e.waiters = append(e.waiters[:0], waiter)
			m.lines++
			m.requests++
			return true, true
		}
	}
	return false, false // every line register is in use
}

// Complete removes and returns the waiters for a filled line, in the order
// they were allocated. The slice is valid until the next Complete.
func (m *MSHR) Complete(lineAddr uint64) []any {
	e := m.find(lineAddr)
	if e == nil {
		return nil
	}
	ws := e.waiters
	clear(m.done)
	e.valid, e.waiters = false, m.done[:0]
	m.done = ws
	m.lines--
	m.requests -= len(ws)
	return ws
}

// Pending reports whether lineAddr has an outstanding miss.
func (m *MSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) != nil }

// Busy reports whether any miss is outstanding.
func (m *MSHR) Busy() bool { return m.lines > 0 }

// Outstanding returns the number of distinct lines in flight.
func (m *MSHR) Outstanding() int { return m.lines }
