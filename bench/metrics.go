package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // better direction; false = lower is better
	// exact marks a count that must repeat bit-for-bit between two runs of
	// one commit on one seed: if a performance change moves it, the change
	// altered semantics, and -compare reports an error instead of a delta.
	exact bool
	// bound is the share of the base median by which an end-to-end metric
	// may worsen before -compare calls it a regression; floor is the
	// absolute difference below which it never does.
	bound, floor float64
}

// endToEndMetrics are what a user of the system pays, the same on every
// workload. The time bounds sit at the contract's ceiling of 25% because
// this host's speed drifts by 10-15% over minutes whatever the program does
// (README.md, "Noise"); a tighter bound would flag the host, not the code.
// failed_frac is reported beside them (workloadResult.FailedFrac) but is
// not a contract metric: it is 0 on every correct run, and the contract's
// result line carries it as correct/attempted/failed instead.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.05},
	{name: "session_s", unit: "s", bound: 0.25, floor: 0.05},
	{name: "session_w1_s", unit: "s", bound: 0.25, floor: 0.05},
	{name: "peak_rss_mib", unit: "MiB", bound: 0.20, floor: 4},
}

// perLayerMetrics are the single-layer numbers, grouped by module. A
// workload that does not exercise a layer reports 0 for its metrics.
// README.md records which end-to-end metric each should move, and where.
var perLayerMetrics = []metricDef{
	{name: "gen.rmat_s", unit: "s"},
	{name: "gen.rmat_ns_per_edge", unit: "ns"},

	{name: "graph.build_s", unit: "s"},
	{name: "graph.build_ns_per_edge", unit: "ns"},
	{name: "graph.compress_s", unit: "s"},
	{name: "graph.compressed_bytes_per_arc", unit: "B", exact: true},
	{name: "graph.decode_ns_per_arc", unit: "ns"},
	{name: "graph.flat_scan_ns_per_arc", unit: "ns"},

	{name: "graphio.write_binary_s", unit: "s"},
	{name: "graphio.write_csr2_s", unit: "s"},
	{name: "graphio.read_binary_s", unit: "s"},
	{name: "graphio.read_mib_per_s", unit: "MiB/s", higher: true},
	{name: "graphio.bytes_flat", unit: "B", exact: true},
	{name: "graphio.bytes_csr2", unit: "B", exact: true},
	{name: "graphio.open_csr2_s", unit: "s"},
	{name: "graphio.close_csr2_s", unit: "s"},

	{name: "core.run_s", unit: "s"},
	{name: "core.init_s", unit: "s"},
	{name: "core.compute_s", unit: "s"},
	{name: "core.terminate_s", unit: "s"},
	{name: "core.deliver_s", unit: "s"},
	{name: "core.worklist_s", unit: "s"},
	{name: "core.checkpoint_s", unit: "s"},
	{name: "core.unattributed_s", unit: "s"},
	{name: "core.supersteps", unit: "count", exact: true},
	{name: "core.msgs_logical", unit: "count", exact: true},
	{name: "core.msgs_physical", unit: "count", exact: true},
	{name: "core.msgs_delivered", unit: "count", exact: true},
	{name: "core.pull_steps", unit: "count", exact: true},
	{name: "core.ns_per_logical_edge", unit: "ns"},
	{name: "core.us_per_superstep", unit: "us"},
	{name: "core.worker_busy_frac", unit: "ratio", higher: true},
	{name: "core.chunk_imbalance", unit: "ratio"},
	{name: "core.scratch_mib_max", unit: "MiB"},
	{name: "core.allocs_per_superstep", unit: "count"},
	{name: "core.alloc_bytes_per_edge", unit: "B"},

	{name: "bspalg.bfs_s", unit: "s"},
	{name: "bspalg.cc_s", unit: "s"},
	{name: "bspalg.msbfs_s", unit: "s"},
	{name: "bspalg.pagerank_s", unit: "s"},
	{name: "bspalg.tc_s", unit: "s"},
	{name: "bspalg.extract_s", unit: "s"},
	{name: "bspalg.bfs_mteps", unit: "MTEPS", higher: true},
	{name: "bspalg.msbfs_us_per_query", unit: "us"},

	{name: "batch.plan_s", unit: "s"},
	{name: "batch.lanes", unit: "count", exact: true},
	{name: "batch.edges_per_query", unit: "count", exact: true},

	{name: "graphct.cc_s", unit: "s"},
	{name: "graphct.bfs_s", unit: "s"},
	{name: "graphct.tc_s", unit: "s"},
	{name: "graphct.host_ratio_cc", unit: "ratio"},
	{name: "graphct.host_ratio_bfs", unit: "ratio"},
	{name: "graphct.host_ratio_tc", unit: "ratio"},

	{name: "trace.record_overhead_frac", unit: "ratio"},
	{name: "trace.phases", unit: "count", exact: true},
	{name: "machine.eval_s", unit: "s"},
	// machine.sim_* are simulated Cray XMT figures from the machine model,
	// not host measurements; a host-side speed-up must leave them identical.
	{name: "machine.sim_ratio_cc", unit: "ratio", exact: true},
	{name: "machine.sim_ratio_bfs", unit: "ratio", exact: true},
	{name: "machine.sim_ratio_tc", unit: "ratio", exact: true},
	{name: "machine.sim_bsp_tc_s", unit: "s", exact: true},

	{name: "ckpt.snapshots", unit: "count", exact: true},
	{name: "ckpt.bytes_per_snapshot", unit: "B", exact: true},
	{name: "ckpt.write_mib_per_s", unit: "MiB/s", higher: true},
	{name: "ckpt.verify_s", unit: "s"},
	{name: "ckpt.load_s", unit: "s"},
	{name: "ckpt.resume_s", unit: "s"},
	{name: "ckpt.overhead_frac", unit: "ratio"},

	{name: "obs.sink_us_per_superstep", unit: "us"},
	{name: "obs.sink_overhead_frac", unit: "ratio"},
	{name: "obs.trace_overhead_frac", unit: "ratio"},

	{name: "par.workers", unit: "count", higher: true},
	{name: "par.speedup", unit: "ratio", higher: true},
	{name: "par.efficiency", unit: "ratio", higher: true},

	{name: "mem.alloc_mib_per_session", unit: "MiB"},
	{name: "mem.gc_cycles_per_session", unit: "count"},
	{name: "mem.gc_pause_ms_per_session", unit: "ms"},
	{name: "mem.heap_inuse_mib", unit: "MiB"},
}

// stat is how every measurement is reported: median, quartiles and sample
// count. A single value (a count, a file size) has n = 1 and q1 = q3.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize reduces samples to a stat. Quartiles follow Python's
// statistics.quantiles(values, n=4), the rule the acceptance runs use.
func summarize(vals []float64) stat {
	if len(vals) == 0 {
		return stat{}
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	q := func(i int) float64 {
		if len(v) == 1 {
			return v[0]
		}
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return stat{Median: q(2), Q1: q(1), Q3: q(3), N: len(v)}
}

func single(v float64) stat { return stat{Median: v, Q1: v, Q3: v, N: 1} }

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// result is the -out file: the host it was measured on, then one entry per
// workload.
type result struct {
	Env       env               `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *result) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return &workloadResult{Name: name}
}

type workloadResult struct {
	Name     string          `json:"name"`
	EndToEnd map[string]stat `json:"end_to_end"`
	PerLayer map[string]stat `json:"per_layer,omitempty"`
	// TracedShares is each layer's self time (its spans minus their
	// children) as a share of a traced session: the ceiling on what
	// speeding that layer up can save on this workload.
	TracedShares      map[string]float64 `json:"traced_shares,omitempty"`
	FailedFrac        float64            `json:"failed_frac"`
	SessionsAttempted int                `json:"sessions_attempted"`
	SessionsFailed    int                `json:"sessions_failed"`
	OpsAttempted      int                `json:"ops_attempted"`
	OpsFailed         int                `json:"ops_failed"`
	Failures          []string           `json:"failures,omitempty"`
	// Hashes fingerprint the session's outputs, so two workloads that must
	// agree (flat vs compressed) can be compared across processes.
	Hashes     map[string]string `json:"hashes"`
	OracleS    float64           `json:"oracle_s"`
	Workers    int               `json:"workers"`
	RSSScope   string            `json:"rss_scope"`
	WallS      float64           `json:"wall_s"`
	ChildWallS float64           `json:"child_wall_s,omitempty"`
}

// env pins a result to its host, so a number is never quoted without it.
type env struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Workers        int     `json:"workers"`
	Oversubscribed bool    `json:"oversubscribed"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	Kernel         string  `json:"kernel"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Quick          bool    `json:"quick"`
	RSSScope       string  `json:"rss_scope"`
	WallS          float64 `json:"wall_s"`
}

func captureEnv(o options, wr *workloadResult) env {
	e := env{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     wr.Workers,
		Workers:        wr.Workers,
		Oversubscribed: wr.Workers > runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		Commit:         "unknown",
		Kernel:         "unknown",
		Seed:           o.seed,
		Seconds:        o.seconds,
		Quick:          o.quick,
		RSSScope:       wr.RSSScope,
		WallS:          wr.WallS,
	}
	// The commit as `go build` stamps it into the binary; `go run` does not
	// stamp, so ask git; neither works outside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	if e.Commit == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(b))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}
