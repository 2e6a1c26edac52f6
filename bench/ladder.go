package main

import (
	"math/rand"
	"runtime"
	"time"

	"trips/internal/cache"
	"trips/internal/ckpt"
	"trips/internal/isa"
	"trips/internal/lsq"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/nuca"
	"trips/internal/obs"
	"trips/internal/predictor"
	"trips/internal/proc"
	"trips/internal/tasm"
	"trips/internal/tcc"
	"trips/internal/workloads"
)

// The layer ladder: each rung drives one layer alone, through its public
// constructor and its per-cycle or per-operation entry points, under a seeded
// synthetic load, and reports host ns per operation. A rung's time includes
// the few lines of driving code around the call, which are the same on every
// commit. The ladder does not depend on the workload and runs with every
// traced run.

// ladder collects rung results under their metric names.
type ladder struct {
	out    map[string]float64
	rng    *rand.Rand
	scale  int // operations per rung are base*scale; 1 under -smoke
	allocs uint64
}

// rung times fn, which performs ops operations, and stores ns per operation.
func (l *ladder) rung(name string, ops int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	l.allocs += after.Mallocs - before.Mallocs
	l.out[name] = float64(ns) / float64(ops)
}

// rate converts a rung measured per byte into MB/s.
func (l *ladder) rate(name string) { l.out[name] = 1e3 / l.out[name] }

func runLadder(seed uint64, smoke bool) (map[string]float64, error) {
	l := &ladder{out: map[string]float64{}, rng: rand.New(rand.NewSource(int64(seed))), scale: 200}
	if smoke {
		l.scale = 1
	}
	l.meshes()
	l.chains()
	l.lsq()
	l.caches()
	l.predictor()
	l.memory()
	l.nuca()
	if err := l.code(); err != nil {
		return nil, err
	}
	l.state()
	l.out["bench.ladder_allocs"] = float64(l.allocs)
	return l.out, nil
}

// meshMsg is the smallest routable message.
type meshMsg struct{ dst micronet.Coord }

func (m meshMsg) Dest() micronet.Coord { return m.dst }

// meshes ticks the operand network's 5x5 mesh and the on-chip network's 4x10
// mesh with every node offering a message to a random destination with the
// given probability each cycle and consuming what arrives.
func (l *ladder) meshes() {
	for _, net := range []struct {
		name       string
		rows, cols int
	}{{"micronet.opn_tick_ns", 5, 5}, {"micronet.ocn_tick_ns", 4, 10}} {
		for _, load := range []struct {
			suffix string
			pct    int
		}{{".load0", 0}, {".load25", 25}, {".load75", 75}} {
			m := micronet.NewMesh[meshMsg](net.name, net.rows, net.cols)
			cycles := 50 * l.scale
			var offered uint64
			l.rung(net.name+load.suffix, cycles, func() {
				for c := 0; c < cycles; c++ {
					m.Tick()
					for r := 0; r < net.rows; r++ {
						for col := 0; col < net.cols; col++ {
							at := micronet.Coord{Row: r, Col: col}
							if _, ok := m.Deliver(at); ok {
								m.Pop(at)
							}
							if l.rng.Intn(100) < load.pct {
								offered++
								m.Inject(at, meshMsg{micronet.Coord{Row: l.rng.Intn(net.rows), Col: l.rng.Intn(net.cols)}})
							}
						}
					}
					m.Propagate()
				}
			})
			if net.rows == 5 && load.pct == 75 {
				l.out["micronet.mesh_delivered_ratio.load75"] = float64(m.Delivered()) / float64(offered)
			}
		}
	}
}

// chains ticks a five-node status chain with every node forwarding toward the
// head each cycle, and a 5x5 broadcast tree with one command per cycle.
func (l *ladder) chains() {
	const n = 5
	ch := micronet.NewChain[int]("gsn", n)
	cycles := 200 * l.scale
	l.rung("micronet.chain_tick_ns", cycles, func() {
		for c := 0; c < cycles; c++ {
			for at := 0; at < n-1; at++ {
				if v, ok := ch.Recv(at); ok && (at == 0 || ch.CanSend(at)) {
					ch.Pop(at)
					if at > 0 {
						ch.Send(at, v)
					}
				}
			}
			ch.Send(n-1, c)
			ch.Propagate()
		}
	})
	bc := micronet.NewBroadcast[int]("gcn", n, n)
	l.rung("micronet.bcast_tick_ns", cycles, func() {
		for c := 0; c < cycles; c++ {
			bc.Tick()
			for r := 0; r < n; r++ {
				for col := 0; col < n; col++ {
					bc.Pop(micronet.Coord{Row: r, Col: col})
				}
			}
			bc.Inject(c)
			bc.Propagate()
		}
	})
}

// lsq fills a load/store queue block by block — eight blocks of sixteen
// memory operations, the window the core keeps in flight — then commits or
// flushes it.
func (l *ladder) lsq() {
	const blocks, perBlock = 8, 16
	rounds := 5 * l.scale
	fill := func(q *lsq.LSQ, base uint64, store bool) {
		for b := uint64(0); b < blocks; b++ {
			for id := 0; id < perBlock; id++ {
				key, addr := lsq.OrderKey(base+b, id), uint64(0x1000+l.rng.Intn(512)*8)
				if store {
					q.InsertStore(key, base+b, addr, 8, uint64(id), false)
				} else {
					q.InsertLoad(key, base+b, addr, 8)
				}
			}
		}
	}
	q := lsq.New()
	l.rung("lsq.insert_load_ns", rounds*blocks*perBlock, func() {
		for r := 0; r < rounds; r++ {
			fill(q, uint64(r)*blocks, false)
			q.FlushFrom(0)
		}
	})
	l.rung("lsq.insert_store_ns", rounds*blocks*perBlock, func() {
		for r := 0; r < rounds; r++ {
			fill(q, uint64(r)*blocks, true)
			q.FlushFrom(0)
		}
	})
	// Forwarding: every load finds a covering store one block older.
	l.rung("lsq.forward_ns", rounds*perBlock, func() {
		for r := 0; r < rounds; r++ {
			for id := 0; id < perBlock; id++ {
				q.InsertStore(lsq.OrderKey(0, id), 0, uint64(0x1000+id*8), 8, uint64(id), false)
			}
			for id := 0; id < perBlock; id++ {
				q.InsertLoad(lsq.OrderKey(1, id), 1, uint64(0x1000+id*8), 8)
			}
			q.FlushFrom(0)
		}
	})
	commit, flush := time.Duration(0), time.Duration(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		fill(q, 0, true)
		start := time.Now()
		for b := uint64(0); b < blocks; b++ {
			q.CommitBlock(b)
		}
		commit += time.Since(start)
		fill(q, 0, true)
		start = time.Now()
		for b := uint64(blocks); b > 0; b-- {
			q.FlushFrom(b - 1)
		}
		flush += time.Since(start)
	}
	runtime.ReadMemStats(&after)
	l.allocs += after.Mallocs - before.Mallocs
	l.out["lsq.commit_block_ns"] = float64(commit.Nanoseconds()) / float64(rounds*blocks)
	l.out["lsq.flush_ns"] = float64(flush.Nanoseconds()) / float64(rounds*blocks)
}

// caches reads one NUCA-sized bank on hits, fills it past capacity so every
// fill evicts, and cycles a miss through an MSHR.
func (l *ladder) caches() {
	const size, ways, line = 64 << 10, 4, 64
	b := cache.NewBank(size, ways, line)
	data := make([]byte, line)
	for a := uint64(0); a < size; a += line {
		b.Fill(a, data)
	}
	ops := 500 * l.scale
	l.rung("cache.bank_read_hit_ns", ops, func() {
		for i := 0; i < ops; i++ {
			b.Read(uint64(l.rng.Intn(size/line))*line, 8)
		}
	})
	l.rung("cache.bank_fill_evict_ns", ops, func() {
		for i := 0; i < ops; i++ {
			b.Fill(uint64(size+i*line), data)
		}
	})
	m := cache.NewMSHR(4, 16)
	l.rung("cache.mshr_cycle_ns", ops, func() {
		for i := 0; i < ops; i++ {
			la := uint64(i%4) * line
			m.Allocate(la, i)
			m.Allocate(la, i)
			m.Complete(la)
		}
	})
}

// predictor predicts and trains over a loop of 64 blocks whose exits follow a
// seeded pattern.
func (l *ladder) predictor() {
	const blocks = 64
	p := predictor.New()
	exits := make([]int, blocks)
	for i := range exits {
		exits[i] = l.rng.Intn(4)
	}
	ops := 500 * l.scale
	l.rung("predictor.predict_update_ns", ops, func() {
		for i := 0; i < ops; i++ {
			b := i % blocks
			addr := uint64(0x10000 + b*128)
			next := uint64(0x10000 + (b+1)%blocks*128)
			pr := p.Predict(addr, addr+128)
			p.Update(addr, pr, exits[b], predictor.Kind(0), next, addr+128)
		}
	})
}

// memory writes and reads words across a 1 MB sparse image.
func (l *ladder) memory() {
	m := mem.New()
	ops := 500 * l.scale
	l.rung("mem.rw_ns", 2*ops, func() {
		for i := 0; i < ops; i++ {
			a := uint64(l.rng.Intn(1<<17)) * 8
			m.Write(a, 8, uint64(i))
			m.Read(a, 8, false)
		}
	})
}

// nuca ticks the whole secondary memory system: idle, with four clients
// re-reading lines that sit in the L2 banks, and with the same clients reading
// lines no bank holds, so every request goes to SDRAM.
func (l *ladder) nuca() {
	sys := nuca.New(nuca.Config{Backing: mem.New()})
	ports := []proc.MemPort{sys.Port("dt0"), sys.Port("dt1"), sys.Port("dt2"), sys.Port("dt3")}
	outstanding := 0
	reqs := make([]*proc.MemRequest, len(ports))
	busy := make([]bool, len(ports))
	for i := range reqs {
		i := i
		reqs[i] = &proc.MemRequest{N: lineBytes, Done: func([]byte) { busy[i] = false; outstanding-- }}
	}
	// drive ticks the system for the given cycles; each idle client submits
	// the next address nextAddr gives it.
	drive := func(cycles int, nextAddr func() uint64) {
		for c := 0; c < cycles; c++ {
			if nextAddr != nil {
				for i, p := range ports {
					if !busy[i] {
						reqs[i].Addr = nextAddr()
						if p.Submit(reqs[i]) {
							busy[i] = true
							outstanding++
						}
					}
				}
			}
			sys.Tick()
		}
		for outstanding > 0 {
			sys.Tick()
		}
	}
	cycles := 100 * l.scale
	l.rung("nuca.tick_idle_ns", cycles, func() { drive(cycles, nil) })
	const hot = 256
	line := 0
	warm := func() uint64 { line++; return genBase + uint64(line%hot)*lineBytes }
	drive(40*hot, warm)
	l.rung("nuca.tick_l2hit_ns", cycles, func() { drive(cycles, warm) })
	cold := func() uint64 { line++; return genBase + uint64(hot+line)*lineBytes }
	l.rung("nuca.tick_sdram_ns", cycles, func() { drive(cycles, cold) })
}

// code encodes and decodes the blocks of the hand-optimized vadd, and
// assembles its disassembly.
func (l *ladder) code() error {
	prog, _, err := tcc.Compile(workloads.VAdd(true).F, tcc.Options{Mode: tcc.Hand})
	if err != nil {
		return err
	}
	var blocks []*isa.Block
	for _, a := range prog.Addrs() {
		b, _ := prog.Block(a)
		blocks = append(blocks, b)
	}
	rounds := l.scale
	var firstErr error
	l.rung("isa.block_encode_decode_ns", rounds*len(blocks), func() {
		for r := 0; r < rounds; r++ {
			for _, b := range blocks {
				data, err := isa.EncodeBlock(b)
				if err == nil {
					_, err = isa.DecodeBlock(data, b.Addr)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	})
	src := tasm.Disassemble(prog)
	rounds = max(1, l.scale/4)
	l.rung("tasm.assemble_ns", rounds, func() {
		for r := 0; r < rounds; r++ {
			if _, err := tasm.Assemble(src); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// state writes and reads back a payload through the checkpoint codec, hashes
// it as a frame's content is hashed, and emits into a trace ring.
func (l *ladder) state() {
	words := 500 * l.scale
	l.rung("ckpt.codec_mb_per_s", 16*words, func() { // 8 bytes written, 8 read
		w := &ckpt.Writer{}
		for i := 0; i < words; i++ {
			w.U64(uint64(i))
		}
		r := ckpt.NewReader(w.Payload())
		var sum uint64
		for i := 0; i < words; i++ {
			sum += r.U64()
		}
		if r.Close() != nil || sum == 0 && words > 1 {
			panic("bench: checkpoint codec round trip failed")
		}
	})
	l.rate("ckpt.codec_mb_per_s")
	buf := make([]byte, 8*words)
	l.rng.Read(buf)
	l.rung("ckpt.hash_mb_per_s", len(buf), func() { ckpt.HashContent(buf) })
	l.rate("ckpt.hash_mb_per_s")
	tr := obs.NewTracer(1 << 12)
	l.rung("obs.emit_ns", words, func() {
		for i := 0; i < words; i++ {
			tr.Emit(obs.Event{Cycle: int64(i), Kind: obs.KindOperand, Seq: uint64(i)})
		}
	})
}
