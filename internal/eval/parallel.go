package eval

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"trips/internal/tcc"
	"trips/internal/workloads"
)

// HostMetrics captures host-side throughput for one Table 3 row: how fast
// the simulator chewed through the row's three runs (TRIPS hand, TRIPS
// compiled, Alpha) on the machine running the evaluation. Simulated cycle
// counts are deterministic; everything else here is host wall-clock.
type HostMetrics struct {
	Workload     string  `json:"workload"`
	SimCycles    int64   `json:"sim_cycles"` // total simulated cycles across the row's runs
	WallNS       int64   `json:"wall_ns"`    // host wall-clock for the row
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
	NSPerCycle   float64 `json:"host_ns_per_sim_cycle"`
}

func hostMetrics(name string, simCycles int64, wall time.Duration) HostMetrics {
	h := HostMetrics{Workload: name, SimCycles: simCycles, WallNS: wall.Nanoseconds()}
	if wall > 0 {
		h.CyclesPerSec = float64(simCycles) / wall.Seconds()
	}
	if simCycles > 0 {
		h.NSPerCycle = float64(wall.Nanoseconds()) / float64(simCycles)
	}
	return h
}

// Table3Report is the full Table 3 evaluation plus host throughput — the
// machine-readable form written to BENCH_table3.json so performance work on
// the simulator can be compared against a checked-in baseline.
type Table3Report struct {
	// Rows are in workloads.All() order regardless of worker scheduling.
	Rows []Table3Row   `json:"rows"`
	Host []HostMetrics `json:"host"`

	Workers         int     `json:"workers"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	TotalSimCycles  int64   `json:"total_sim_cycles"`
	TotalWallNS     int64   `json:"total_wall_ns"` // wall-clock for the whole fan-out
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Table3All computes every benchmark's Table 3 row, fanning the independent
// rows across a bounded worker pool. workers <= 0 selects GOMAXPROCS.
// Row order and all simulated results are independent of the worker count:
// each row is a self-contained trio of runs (no shared mutable state), so
// parallelism changes host time only.
func Table3All(workers int, step ...Stepping) (*Table3Report, error) {
	return table3Subset(workloads.All(), workers, step...)
}

// Table3Rows computes rows for a named subset, with the same pooling.
func Table3Rows(names []string, workers int, step ...Stepping) (*Table3Report, error) {
	var ws []workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return table3Subset(ws, workers, step...)
}

func table3Subset(ws []workloads.Workload, workers int, step ...Stepping) (*Table3Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ws) {
		workers = len(ws)
	}
	rep := &Table3Report{
		Rows:       make([]Table3Row, len(ws)),
		Host:       make([]HostMetrics, len(ws)),
		Workers:    workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	errs := make([]error, len(ws))
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				row, err := Table3(ws[i], step...)
				if err != nil {
					errs[i] = err
					continue
				}
				rep.Rows[i] = row
				sim := row.CyclesHand + row.CyclesTCC + row.CyclesAlpha
				rep.Host[i] = hostMetrics(row.Name, sim, time.Since(t0))
			}
		}()
	}
	for i := range ws {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	rep.TotalWallNS = wall.Nanoseconds()
	for _, h := range rep.Host {
		rep.TotalSimCycles += h.SimCycles
	}
	if wall > 0 {
		rep.SimCyclesPerSec = float64(rep.TotalSimCycles) / wall.Seconds()
	}
	return rep, nil
}

// AblationRow is one benchmark's design-choice ablation sweep (paper
// Sections 5.3 and 7): cycle counts under each configuration.
type AblationRow struct {
	Name         string `json:"name"`
	Naive        int64  `json:"naive_placement"`
	Greedy       int64  `json:"greedy_placement"`
	OPN1         int64  `json:"opn_1x"`
	OPN2         int64  `json:"opn_2x"`
	Aggressive   int64  `json:"aggressive_loads"`
	Conservative int64  `json:"conservative_loads"`
}

// ablationConfigs lists the sweep in column order.
var ablationConfigs = []struct {
	set func(*AblationRow, int64)
	opt TRIPSOptions
}{
	{func(r *AblationRow, c int64) { r.Naive = c }, TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceNaive}},
	{func(r *AblationRow, c int64) { r.Greedy = c }, TRIPSOptions{Mode: tcc.Hand, Placement: tcc.PlaceGreedy}},
	{func(r *AblationRow, c int64) { r.OPN1 = c }, TRIPSOptions{Mode: tcc.Hand, OPNChannels: 1}},
	{func(r *AblationRow, c int64) { r.OPN2 = c }, TRIPSOptions{Mode: tcc.Hand, OPNChannels: 2}},
	{func(r *AblationRow, c int64) { r.Aggressive = c }, TRIPSOptions{Mode: tcc.Hand}},
	{func(r *AblationRow, c int64) { r.Conservative = c }, TRIPSOptions{Mode: tcc.Hand, ConservativeLoads: true}},
}

// Ablations runs the design-choice sweep for the named benchmarks across a
// bounded worker pool (workers <= 0 selects GOMAXPROCS). The unit of work
// is one benchmark x configuration cell, so even a single benchmark's sweep
// parallelizes.
func Ablations(names []string, workers int) ([]AblationRow, error) {
	rows := make([]AblationRow, len(names))
	type cell struct{ bench, cfg int }
	var cells []cell
	for b, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		rows[b].Name = w.Name
		for c := range ablationConfigs {
			cells = append(cells, cell{b, c})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	errs := make([]error, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				cl := cells[i]
				w, _ := workloads.ByName(rows[cl.bench].Name)
				res, err := RunTRIPS(w.Build(true), ablationConfigs[cl.cfg].opt)
				if err != nil {
					errs[i] = err
					continue
				}
				ablationConfigs[cl.cfg].set(&rows[cl.bench], res.Cycles)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// WriteBenchJSON writes the report as indented JSON, the checked-in
// BENCH_table3.json baseline format.
func WriteBenchJSON(path string, rep *Table3Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
