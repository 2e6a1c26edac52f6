// Package proc assembles the TRIPS processor core: one global control tile,
// five instruction tiles, four register tiles, sixteen execution tiles and
// four data tiles, connected by the seven micronetworks of paper Figure 3,
// and running the four distributed protocols of Section 4 — block fetch,
// distributed execution, block/pipeline flush, and three-phase block commit.
package proc

import (
	"trips/internal/critpath"
	"trips/internal/isa"
	"trips/internal/micronet"
)

// Value is a 64-bit operand with a null bit. Nullified values propagate
// along untaken predicate paths so that stores and register writes on those
// paths still issue (as nullified outputs) and the block's output counts
// hold on every execution (paper Section 2.1).
type Value struct {
	Bits uint64
	Null bool
}

// opnKind discriminates the payloads carried on the operand network.
type opnKind uint8

const (
	opnOperand  opnKind = iota // value -> ET reservation station or RT write entry
	opnBranch                  // block exit -> GT
	opnLoadReq                 // ET -> DT: load address
	opnStoreReq                // ET -> DT: store address + data (possibly nullified)
)

// opnMsg is one operand-network message (141-bit links: a 64-bit data
// payload preceded by a control header, paper Section 3). The control
// header launched a cycle ahead of the data is modeled by delivering the
// message and allowing the consumer to wake and issue in back-to-back
// cycles, so each hop between dependent instructions costs exactly one
// cycle (Section 4.2). Messages are pooled and pointer-free: small fields
// are narrowed to their architectural widths and the critical-path
// dependency travels by value, so building, queueing and recycling one
// moves plain bytes.
type opnMsg struct {
	dst  micronet.Coord
	seq  uint64 // dynamic block number, for staleness filtering
	addr uint64 // opnLoadReq / opnStoreReq address
	// tid is the per-message trace id stamped by a traced mesh at Inject
	// (0 when tracing is off).
	tid uint64

	target isa.Target // opnOperand / load reply target
	ldT0   isa.Target // opnLoadReq reply targets
	ldT1   isa.Target
	val    Value // opnOperand / opnBranch payload
	data   Value // opnStoreReq payload; a hitting load's value until its reply

	// Critical-path dependency carried with the message.
	ev critpath.Event

	// Transport accounting (paper Table 3: OPN hops vs contention).
	hops, waits int32
	brOffset    int32

	kind   opnKind
	slot   uint8 // block frame 0..7
	thread uint8
	lsid   uint8
	brExit uint8
	brOp   isa.Opcode
	memOp  isa.Opcode
}

func (m *opnMsg) Dest() micronet.Coord { return m.dst }
func (m *opnMsg) NoteHop()             { m.hops++ }
func (m *opnMsg) NoteWait()            { m.waits++ }

// SetTraceID / TraceID implement micronet.TraceIdent so a traced OPN can
// stitch a message's inject/hop/deliver events into one flow.
func (m *opnMsg) SetTraceID(id uint64) { m.tid = id }
func (m *opnMsg) TraceID() uint64      { return m.tid }

// gsnKind discriminates global status network messages.
type gsnKind uint8

const (
	gsnFinishR   gsnKind = iota // all register writes for a block received (RT chain)
	gsnFinishS                  // all stores for a block received (DT chain)
	gsnAckR                     // register commit acknowledged (RT chain)
	gsnAckS                     // store commit acknowledged (DT chain)
	gsnRefill                   // I-cache refill complete (IT chain)
	gsnViolation                // memory-ordering violation detected (DT chain)
)

// gsnMsg is one global status network message (6-bit links in Table 2; the
// violation report rides the same wires over multiple beats in hardware).
type gsnMsg struct {
	seq uint64
	// violation payload
	violSeq  uint64 // block containing the violated load
	violAddr uint64 // load address, for dependence-predictor training
	ev       critpath.Event
	kind     gsnKind
	slot     uint8
}

// gcnKind discriminates global control network commands.
type gcnKind uint8

const (
	gcnCommit gcnKind = iota
	gcnFlush
)

// gcnMsg is one global control network command (13-bit links): commit one
// block, or flush a set of blocks identified by a slot mask (Section 4.3:
// "The GCN includes a block identifier mask indicating which block or
// blocks must be flushed"). A commit packs into the word itself (its
// critical-path event is the GT frame's commitEv); a flush carries the
// handle of its per-slot sequence numbers, parked once in Core.flushes
// until the wave's last delivery.
type gcnMsg struct {
	seq  uint64 // commit: the block's dynamic number; flush: parking handle
	kind gcnKind
	slot uint8 // commit: the committing block's frame
	mask uint8 // flush: bit per slot
}

// dsnMsg is one data status network notice (72-bit links): an executed
// store's LSID and block identity, broadcast among the DTs so each can
// track store completion without knowing the store's address (Section 4.4).
type dsnMsg struct {
	seq    uint64
	ev     critpath.Event
	slot   uint8
	thread uint8
	lsid   uint8
}
