// Package lsq implements the TRIPS load/store queue and the memory-side
// dependence predictor (paper Section 3.5). The prototype replicates a full
// 256-entry LSQ at every DT — the paper's admittedly brute-force solution
// to distributing disambiguation ("wasteful and not scalable ... but the
// least complex alternative for the prototype"). Because virtual addresses
// interleave across DTs by cache line, a load and any conflicting earlier
// store always meet at the same DT, so forwarding and violation detection
// are local.
//
// Memory operations are ordered by a global key composed of the block's
// dynamic sequence number and the operation's five-bit LSID within the
// block (up to 8 blocks x 32 operations = 256 in flight, paper 3.5).
package lsq

import "fmt"

// entryList keeps LSQ entries sorted by Key. Keys embed the block sequence
// number in the high bits, so one block's operations occupy a contiguous
// span: age-ordered scans run oldest-to-youngest with early exit, and
// commit/flush are range deletions instead of whole-queue sweeps.
type entryList []*Entry

// search returns the index of the first entry with Key >= key.
func (l entryList) search(key uint64) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places e at its sorted position and reports whether the key was
// already present.
func (l *entryList) insert(e *Entry) bool {
	i := l.search(e.Key)
	if i < len(*l) && (*l)[i].Key == e.Key {
		return false
	}
	*l = append(*l, nil)
	copy((*l)[i+1:], (*l)[i:])
	(*l)[i] = e
	return true
}

// cut removes the half-open index range [i, j).
func (l *entryList) cut(i, j int) {
	n := copy((*l)[i:], (*l)[j:])
	tail := (*l)[i+n:]
	for k := range tail {
		tail[k] = nil
	}
	*l = (*l)[:i+n]
}

// Capacity is the number of LSQ entries (paper Section 3.5).
const Capacity = 256

// OrderKey totally orders in-flight memory operations: block sequence
// number then LSID.
func OrderKey(blockSeq uint64, lsid int) uint64 {
	return blockSeq<<5 | uint64(lsid)&31
}

// Entry is one LSQ record.
type Entry struct {
	Key      uint64
	BlockSeq uint64
	IsStore  bool
	Addr     uint64
	Width    int
	Data     uint64 // store data
	Issued   bool   // load has read the cache / forwarded
	Null     bool   // nullified store: counts for ordering, never writes
}

func (e *Entry) overlaps(addr uint64, width int) bool {
	return e.Addr < addr+uint64(width) && addr < e.Addr+uint64(e.Width)
}

func (e *Entry) covers(addr uint64, width int) bool {
	return e.Addr <= addr && addr+uint64(width) <= e.Addr+uint64(e.Width)
}

// LoadResult describes how a load may proceed.
type LoadResult int

const (
	// LoadFromCache: no earlier conflicting store is buffered; read the
	// data cache (speculatively, if earlier store addresses are unknown).
	LoadFromCache LoadResult = iota
	// LoadForwarded: an earlier store covers the load; Data is valid.
	LoadForwarded
	// LoadConflict: an earlier store overlaps but does not cover the load;
	// the load must wait until prior stores drain to the cache.
	LoadConflict
)

// LSQ is one DT's replica of the load/store queue.
type LSQ struct {
	entries entryList
	// free recycles the records of entries that left the queue with nobody
	// holding them: everything a flush removes, and at commit the loads and
	// nullified stores (the committing stores go to the DT's drain).
	free []*Entry

	// Stats.
	Forwards, Violations, Conflicts uint64
}

// New returns an empty LSQ.
func New() *LSQ {
	return &LSQ{}
}

// Len returns the number of buffered operations.
func (q *LSQ) Len() int { return len(q.entries) }

// Full reports whether the queue is at capacity.
func (q *LSQ) Full() bool { return len(q.entries) >= Capacity }

// newEntry queues v in a recycled (or new) record; nil if its key is taken.
func (q *LSQ) newEntry(v Entry) *Entry {
	var e *Entry
	if n := len(q.free); n > 0 {
		e, q.free = q.free[n-1], q.free[:n-1]
	} else {
		e = new(Entry)
	}
	*e = v
	if !q.entries.insert(e) {
		q.free = append(q.free, e)
		return nil
	}
	return e
}

// InsertLoad records an arriving load and resolves it against earlier
// buffered stores. It returns the forwarding decision and, for
// LoadForwarded, the data.
func (q *LSQ) InsertLoad(key, blockSeq uint64, addr uint64, width int) (LoadResult, uint64, error) {
	if q.Full() {
		return 0, 0, fmt.Errorf("lsq: full")
	}
	e := q.newEntry(Entry{Key: key, BlockSeq: blockSeq, Addr: addr, Width: width, Issued: true})
	if e == nil {
		return 0, 0, fmt.Errorf("lsq: duplicate key %#x", key)
	}

	// Find the youngest earlier store overlapping the load: walk down from
	// the load's position and stop at the first match.
	var best *Entry
	for i := q.entries.search(key) - 1; i >= 0; i-- {
		s := q.entries[i]
		if s.IsStore && !s.Null && s.overlaps(addr, width) {
			best = s
			break
		}
	}
	if best == nil {
		return LoadFromCache, 0, nil
	}
	if best.covers(addr, width) {
		q.Forwards++
		// Extract the load's bytes from the store's value.
		shift := (addr - best.Addr) * 8
		v := best.Data >> shift
		if width < 8 {
			v &= 1<<(uint(width)*8) - 1
		}
		return LoadForwarded, v, nil
	}
	q.Conflicts++
	e.Issued = false // will re-issue from the cache after stores drain
	return LoadConflict, 0, nil
}

// InsertStore records an arriving store and returns the issued later loads
// whose data it invalidates (memory-ordering violations), oldest first. The
// DT reports the oldest violating load's block to the GT, which flushes it
// and all younger blocks (paper Section 4.3).
func (q *LSQ) InsertStore(key, blockSeq uint64, addr uint64, width int, data uint64, null bool) ([]*Entry, error) {
	if q.Full() {
		return nil, fmt.Errorf("lsq: full")
	}
	e := q.newEntry(Entry{Key: key, BlockSeq: blockSeq, IsStore: true, Addr: addr, Width: width, Data: data, Null: null})
	if e == nil {
		return nil, fmt.Errorf("lsq: duplicate key %#x", key)
	}
	if null {
		return nil, nil
	}
	// Later entries sit above the store's position, already oldest-first.
	var violated []*Entry
	for i := q.entries.search(key) + 1; i < len(q.entries); i++ {
		l := q.entries[i]
		if !l.IsStore && l.Issued && l.overlaps(addr, width) {
			violated = append(violated, l)
		}
	}
	if len(violated) > 0 {
		q.Violations++
	}
	return violated, nil
}

// PendingConflicts returns buffered loads (oldest first) that hit
// LoadConflict and are now free of overlapping earlier stores — i.e. those
// stores have drained — so the DT can replay them from the cache.
func (q *LSQ) PendingConflicts() []*Entry {
	var out []*Entry
	for i, l := range q.entries {
		if l.IsStore || l.Issued {
			continue
		}
		blocked := false
		for _, s := range q.entries[:i] {
			if s.IsStore && !s.Null && s.overlaps(l.Addr, l.Width) {
				blocked = true
				break
			}
		}
		if !blocked {
			out = append(out, l)
		}
	}
	return out
}

// MarkIssued marks a replayed load as issued.
func (q *LSQ) MarkIssued(key uint64) {
	if i := q.entries.search(key); i < len(q.entries) && q.entries[i].Key == key {
		q.entries[i].Issued = true
	}
}

// blockSpan returns the index range [i, j) holding blockSeq's entries.
func (q *LSQ) blockSpan(blockSeq uint64) (int, int) {
	return q.entries.search(OrderKey(blockSeq, 0)), q.entries.search(OrderKey(blockSeq+1, 0))
}

// CommitBlock removes all of blockSeq's entries and returns its
// non-nullified stores in LSID order for the DT to drain into the cache.
func (q *LSQ) CommitBlock(blockSeq uint64) []*Entry {
	i, j := q.blockSpan(blockSeq)
	var stores []*Entry
	for _, e := range q.entries[i:j] {
		if e.IsStore && !e.Null {
			stores = append(stores, e)
		} else {
			q.free = append(q.free, e)
		}
	}
	q.entries.cut(i, j)
	return stores
}

// FlushFrom removes all entries belonging to blockSeq or younger blocks
// (the flush protocol discards the mis-speculated block and everything
// after it, paper Section 4.3).
func (q *LSQ) FlushFrom(blockSeq uint64) {
	i := q.entries.search(OrderKey(blockSeq, 0))
	q.free = append(q.free, q.entries[i:]...)
	q.entries.cut(i, len(q.entries))
}

// FlushBlock removes exactly one block's entries (used when the GCN flush
// mask names specific frames).
func (q *LSQ) FlushBlock(blockSeq uint64) {
	i, j := q.blockSpan(blockSeq)
	q.free = append(q.free, q.entries[i:j]...)
	q.entries.cut(i, j)
}

// MaxOccupancy is exported for the area/utilization ablation: the paper
// notes maximum occupancy of all replicated LSQs is 25%.
func (q *LSQ) Occupancy() float64 { return float64(len(q.entries)) / Capacity }
