package proc

import (
	"fmt"
	"slices"

	"trips/internal/isa"
	"trips/internal/micronet"
)

// itChunk is one cached 128-byte chunk plus its lazily decoded form.
type itChunk struct {
	raw  []byte
	body *[isa.BodyChunkInsts]isa.Inst // decoded on first dispatch (body ITs)
	hdr  *isa.HeaderInfo               // decoded on first dispatch (IT 0)
}

// itRefill tracks one outstanding distributed I-cache refill at this IT.
type itRefill struct {
	ownDone   bool
	southDone bool
}

// itTile is one of the five instruction tiles: a 16KB bank holding one
// 128-byte chunk for each of up to 128 distinct blocks, acting as a slave
// to the GT which holds the single tag array (paper Section 3.2). IT 0
// holds header chunks; IT k holds body chunk k-1.
type itTile struct {
	core *Core
	id   int

	chunks      map[uint64]*itChunk // keyed by block address
	refills     map[uint64]*itRefill
	refillOrder []uint64
	port        MemPort
	pending     micronet.Queue[uint64] // refill reads awaiting a free port

	// active registers pending work with the core's stepping fast path: set
	// when a refill command or bank-read completion arrives, cleared by tick
	// once no refill is outstanding.
	active bool

	// Stats.
	Refills uint64
}

func newIT(core *Core, id int) *itTile {
	return &itTile{core: core, id: id, chunks: make(map[uint64]*itChunk), refills: make(map[uint64]*itRefill)}
}

// chunkAddr returns where this IT's chunk of the block at addr lives.
func (it *itTile) chunkAddr(blockAddr uint64) uint64 {
	return blockAddr + uint64(it.id)*isa.ChunkBytes
}

// onRefill begins fetching this IT's chunk of the block ("Each IT processes
// the misses for its own chunk independently", paper Section 4.1).
func (it *itTile) onRefill(blockAddr uint64) {
	if _, ok := it.refills[blockAddr]; ok {
		return
	}
	it.Refills++
	st := &itRefill{}
	it.refills[blockAddr] = st
	it.refillOrder = append(it.refillOrder, blockAddr)
	if c, ok := it.chunks[blockAddr]; ok && c != nil {
		st.ownDone = true // chunk already resident
		return
	}
	it.pending.Push(blockAddr)
}

func (it *itTile) tick(now int64) {
	// Submit queued chunk reads.
	for !it.pending.Empty() {
		blockAddr := it.pending.Front()
		req := &MemRequest{Addr: it.chunkAddr(blockAddr), N: isa.ChunkBytes,
			Origin: Origin{Kind: OriginITRefill, Tile: it.id},
			Done:   func(data []byte) { it.chunkArrived(blockAddr, data) }}
		if !it.port.Submit(req) {
			break
		}
		it.pending.Pop()
	}
	// South-neighbor refill completions arrive on the GSN chain.
	node := it.id + 1
	if node < it.core.gsnIT.N-1 {
		if msg, ok := it.core.gsnIT.Recv(node); ok {
			if msg.kind == gsnRefill {
				if st := it.refills[msg.seq]; st != nil { // seq carries the address
					st.southDone = true
				}
				it.core.gsnIT.Pop(node)
			} else {
				it.core.gsnIT.Pop(node)
			}
		}
	}
	// Signal refill completion northward once this IT and its south
	// neighbor are done (the bottom IT needs no neighbor).
	kept := it.refillOrder[:0]
	for _, addr := range it.refillOrder {
		st := it.refills[addr]
		if st == nil {
			continue
		}
		done := st.ownDone && (it.id == isa.NumITs-1 || st.southDone)
		if done && it.core.gsnIT.CanSend(it.id+1) {
			it.core.gsnIT.Send(it.id+1, gsnMsg{kind: gsnRefill, seq: addr})
			delete(it.refills, addr)
			continue
		}
		kept = append(kept, addr)
	}
	it.refillOrder = kept
	// Idle unless a tick can make progress: a queued port submit to retry, or
	// a completed refill whose northward send lost chain arbitration. A refill
	// merely *waiting* — own bank read in flight, or south neighbor not done —
	// needs no ticks: the port's Done closure re-sets active, and an incoming
	// south completion forces ticks through the chain-busy gate until consumed.
	// Clearing active during pure waits lets a quiescent core clock-warp
	// across long refill latencies.
	ready := false
	for _, addr := range it.refillOrder {
		st := it.refills[addr]
		if st != nil && st.ownDone && (it.id == isa.NumITs-1 || st.southDone) {
			ready = true
			break
		}
	}
	it.active = !it.pending.Empty() || ready
	_ = now
}

// chunkArrived installs a refilled chunk and marks this IT's part of the
// refill done. The backend lends data for the call only, so the chunk keeps
// a copy.
func (it *itTile) chunkArrived(blockAddr uint64, data []byte) {
	it.active = true
	it.chunks[blockAddr] = &itChunk{raw: slices.Clone(data)}
	if st := it.refills[blockAddr]; st != nil {
		st.ownDone = true
	}
}

// headerOf returns the decoded header chunk for a resident block (IT 0).
func (it *itTile) headerOf(blockAddr uint64) (*isa.HeaderInfo, error) {
	c := it.chunks[blockAddr]
	if c == nil {
		return nil, fmt.Errorf("proc: IT%d has no chunk for block %#x", it.id, blockAddr)
	}
	if c.hdr == nil {
		h, err := isa.DecodeHeaderChunk(c.raw)
		if err != nil {
			return nil, err
		}
		c.hdr = h
	}
	return c.hdr, nil
}

// bodyOf returns the decoded instructions of this IT's body chunk.
func (it *itTile) bodyOf(blockAddr uint64) (*[isa.BodyChunkInsts]isa.Inst, error) {
	c := it.chunks[blockAddr]
	if c == nil {
		return nil, fmt.Errorf("proc: IT%d has no chunk for block %#x", it.id, blockAddr)
	}
	if c.body == nil {
		insts, err := isa.DecodeBodyChunk(c.raw)
		if err != nil {
			return nil, err
		}
		c.body = &insts
	}
	return c.body, nil
}

// evict drops a block's chunk (GT tag replacement).
func (it *itTile) evict(blockAddr uint64) {
	delete(it.chunks, blockAddr)
}
