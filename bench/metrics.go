package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric as BENCHMARK.json lists it. bound is the share
// of the parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the simulator sees: how long a pass takes, how
// much simulated time it covers, what it costs in host memory, and how long
// the set-up before the first pass is. Units that fail their checks are
// reported beside the metrics as failed out of attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.10},
	{"sim_cycles_per_s", "1/s", "higher", 0.10},
	{"sim_cycles", "count", "lower", 0.01},
	{"alloc_mb", "MB", "lower", 0.02},
}

// perLayer lists the traced run's metrics, <module>.<name>, in the groups
// bench/README.md explains.
var perLayer = []metricDef{
	// Phase spans: host ns of self time per traced pass.
	{name: "workloads.build_ns", unit: "ns", better: "lower"},
	{name: "tcc.compile_ns", unit: "ns", better: "lower"},
	{name: "proc.image_ns", unit: "ns", better: "lower"},
	{name: "proc.newcore_ns", unit: "ns", better: "lower"},
	{name: "nuca.new_ns", unit: "ns", better: "lower"},
	{name: "chip.new_ns", unit: "ns", better: "lower"},
	{name: "proc.run_ns", unit: "ns", better: "lower"},
	{name: "chip.run_ns", unit: "ns", better: "lower"},
	{name: "eval.finish_ns", unit: "ns", better: "lower"},
	{name: "alpha.flatten_ns", unit: "ns", better: "lower"},
	{name: "alpha.run_ns", unit: "ns", better: "lower"},
	{name: "tir.interp_ns", unit: "ns", better: "lower"},
	{name: "eval.sampled_ns", unit: "ns", better: "lower"},
	{name: "proc.run_ns_per_sim_cycle", unit: "ns", better: "lower"},
	{name: "proc.run_ns_per_tile_tick", unit: "ns", better: "lower"},
	{name: "alpha.run_ns_per_sim_cycle", unit: "ns", better: "lower"},
	{name: "trace.phase_cover_ratio", unit: "ratio", better: "higher"},
	// Stepped decomposition (nuca-footprint).
	{name: "proc.step_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "nuca.tick_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "nuca.tick_share", unit: "ratio", better: "lower"},
	{name: "bench.stepped_cover_ratio", unit: "ratio", better: "higher"},
	// Skipping and striding: exact counts.
	{name: "proc.tile_ticks", unit: "count", better: "lower"},
	{name: "proc.tile_skips", unit: "count", better: "higher"},
	{name: "proc.tile_skip_ratio", unit: "ratio", better: "higher"},
	{name: "proc.stepped_cycles", unit: "count", better: "lower"},
	{name: "proc.warps", unit: "count", better: "higher"},
	{name: "proc.warped_cycle_ratio", unit: "ratio", better: "higher"},
	{name: "lag.strides", unit: "count", better: "lower"},
	{name: "lag.mean_stride_cycles", unit: "count", better: "higher"},
	{name: "lag.rollbacks", unit: "count", better: "lower"},
	{name: "lag.deadline_limited", unit: "count", better: "lower"},
	{name: "lag.mem_warped_cycles", unit: "count", better: "higher"},
	{name: "chip.warps", unit: "count", better: "higher"},
	{name: "chip.warped_cycle_ratio", unit: "ratio", better: "higher"},
	{name: "chip.tile_skip_ratio", unit: "ratio", better: "higher"},
	// Modelled components: exact counts, equal across commits unless the
	// model changed.
	{name: "proc.sim_cycles", unit: "count", better: "lower"},
	{name: "proc.committed_blocks", unit: "count", better: "lower"},
	{name: "proc.committed_insts", unit: "count", better: "lower"},
	{name: "proc.et_issued", unit: "count", better: "lower"},
	{name: "proc.opn_injected", unit: "count", better: "lower"},
	{name: "proc.dt_loads", unit: "count", better: "lower"},
	{name: "proc.dt_stores", unit: "count", better: "lower"},
	{name: "proc.dt_hit_ratio", unit: "ratio", better: "higher"},
	{name: "proc.dt_dep_stalls", unit: "count", better: "lower"},
	{name: "proc.dt_violations", unit: "count", better: "lower"},
	{name: "proc.lsq_forwards", unit: "count", better: "higher"},
	{name: "proc.flushes", unit: "count", better: "lower"},
	{name: "proc.refills", unit: "count", better: "lower"},
	{name: "predictor.predictions", unit: "count", better: "lower"},
	{name: "predictor.hit_ratio", unit: "ratio", better: "higher"},
	{name: "critpath.opn_hops_pct_mean", unit: "%", better: "lower"},
	{name: "critpath.ifetch_pct_mean", unit: "%", better: "lower"},
	{name: "critpath.commit_pct_mean", unit: "%", better: "lower"},
	{name: "critpath.other_pct_mean", unit: "%", better: "higher"},
	{name: "alpha.sim_cycles", unit: "count", better: "lower"},
	{name: "alpha.insts", unit: "count", better: "lower"},
	{name: "eval.paper_err_log2", unit: "log2", better: "lower"},
	{name: "nuca.requests", unit: "count", better: "lower"},
	{name: "nuca.hit_ratio", unit: "ratio", better: "higher"},
	{name: "nuca.ocn_injected", unit: "count", better: "lower"},
	{name: "nuca.line_transfers", unit: "count", better: "lower"},
	{name: "nuca.mshr_coalesced", unit: "count", better: "higher"},
	{name: "nuca.mshr_blocked", unit: "count", better: "lower"},
	{name: "nuca.sdram_reads", unit: "count", better: "lower"},
	{name: "nuca.sdram_writes", unit: "count", better: "lower"},
	{name: "chip.sim_cycles", unit: "count", better: "lower"},
	{name: "chip.dma_bytes", unit: "count", better: "higher"},
	// State.
	{name: "ckpt.save_ns", unit: "ns", better: "lower"},
	{name: "ckpt.frame_ns", unit: "ns", better: "lower"},
	{name: "ckpt.read_ns", unit: "ns", better: "lower"},
	{name: "ckpt.load_ns", unit: "ns", better: "lower"},
	{name: "ckpt.payload_bytes", unit: "count", better: "lower"},
	{name: "ckpt.save_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ckpt.load_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ckpt.frames_written", unit: "count", better: "lower"},
	{name: "ckpt.frames_read", unit: "count", better: "lower"},
	{name: "ckpt.hash_checks", unit: "count", better: "lower"},
	{name: "ckpt.restore_vs_resim_ratio", unit: "ratio", better: "lower"},
	{name: "flight.captures", unit: "count", better: "lower"},
	{name: "flight.ring_bytes", unit: "count", better: "lower"},
	{name: "flight.overhead_ratio", unit: "ratio", better: "lower"},
	// Host.
	{name: "host.allocs_per_sim_cycle", unit: "count", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "host.gomaxprocs", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "host.pass_median_s", unit: "s", better: "lower"},
	{name: "host.pass_iqr_ratio", unit: "ratio", better: "lower"},
	// Layer ladder: isolated rungs under seeded synthetic load.
	{name: "micronet.opn_tick_ns.load0", unit: "ns", better: "lower"},
	{name: "micronet.opn_tick_ns.load25", unit: "ns", better: "lower"},
	{name: "micronet.opn_tick_ns.load75", unit: "ns", better: "lower"},
	{name: "micronet.ocn_tick_ns.load0", unit: "ns", better: "lower"},
	{name: "micronet.ocn_tick_ns.load25", unit: "ns", better: "lower"},
	{name: "micronet.ocn_tick_ns.load75", unit: "ns", better: "lower"},
	{name: "micronet.mesh_delivered_ratio.load75", unit: "ratio", better: "higher"},
	{name: "micronet.chain_tick_ns", unit: "ns", better: "lower"},
	{name: "micronet.bcast_tick_ns", unit: "ns", better: "lower"},
	{name: "lsq.insert_load_ns", unit: "ns", better: "lower"},
	{name: "lsq.insert_store_ns", unit: "ns", better: "lower"},
	{name: "lsq.forward_ns", unit: "ns", better: "lower"},
	{name: "lsq.commit_block_ns", unit: "ns", better: "lower"},
	{name: "lsq.flush_ns", unit: "ns", better: "lower"},
	{name: "cache.bank_read_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.bank_fill_evict_ns", unit: "ns", better: "lower"},
	{name: "cache.mshr_cycle_ns", unit: "ns", better: "lower"},
	{name: "predictor.predict_update_ns", unit: "ns", better: "lower"},
	{name: "mem.rw_ns", unit: "ns", better: "lower"},
	{name: "nuca.tick_idle_ns", unit: "ns", better: "lower"},
	{name: "nuca.tick_l2hit_ns", unit: "ns", better: "lower"},
	{name: "nuca.tick_sdram_ns", unit: "ns", better: "lower"},
	{name: "isa.block_encode_decode_ns", unit: "ns", better: "lower"},
	{name: "tasm.assemble_ns", unit: "ns", better: "lower"},
	{name: "ckpt.codec_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ckpt.hash_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "obs.emit_ns", unit: "ns", better: "lower"},
	{name: "bench.ladder_allocs", unit: "count", better: "lower"},
}

// exactMetric reports whether a metric is a count made by the simulator,
// which repeats exactly for one commit and one seed: -compare treats any
// difference in one as a model change. Host-side counts do not qualify.
func exactMetric(d metricDef) bool {
	switch d.name {
	case "host.gc_cycles", "host.gomaxprocs", "host.allocs_per_sim_cycle", "bench.ladder_allocs":
		return false
	case "sim_cycles", "eval.paper_err_log2":
		return true
	}
	return d.unit == "count" || d.unit == "%"
}

// summary is the median of a sample with its quartiles, as Python's
// statistics.quantiles(values, n=4) gives them.
type summary struct {
	median, q1, q3 float64
	n              int
	// tail is the highest percentile with ten samples beyond it; tailPct is
	// zero when the sample is too small to have one.
	tail    float64
	tailPct int
}

func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	s := summary{n: m}
	if m == 0 {
		return s
	}
	quant := func(i int) float64 {
		if m == 1 {
			return v[0]
		}
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.q1, s.median, s.q3 = quant(1), quant(2), quant(3)
	if m >= 20 {
		s.tailPct = 100 * (m - 10) / m
		s.tail = v[m-11]
	}
	return s
}

func median(values []float64) float64 { return summarize(values).median }

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func (s summary) print(w io.Writer, workload, name, unit string) {
	fmt.Fprintf(w, "%-15s %-18s %14.6g %-6s q1 %.6g  q3 %.6g  n %d", workload, name, s.median, unit, s.q1, s.q3, s.n)
	if s.tailPct > 0 {
		fmt.Fprintf(w, "  p%d %.6g", s.tailPct, s.tail)
	}
	fmt.Fprintln(w)
}
