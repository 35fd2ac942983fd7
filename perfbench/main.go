// Command perfbench is the repository's benchmark. It drives one of three
// workloads through the engine's public entry points — walk
// (Engine.RunSequence), serve (PlanSessions + SessionPlans.Serve) and sweep
// (ShardedEngine.RunSequence) — measures for a fixed wall time, checks the
// outputs, and prints every metric with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// decorators on the engine's entry points; with -trace 1 they are the
// per-layer ones, measured by timing decorators around engine.Index and
// prefetch.Prefetcher, spans around each sequence, cell, plan and commit
// call, and the engine's public counters. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload walk --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"scout/internal/engine"
)

// heldOutSeed is reserved for confirming a claimed gain: tune on any other
// seed, then report this one.
const heldOutSeed = 20120801

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: walk, serve or sweep")
	fs.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	fs.IntVar(&o.seconds, "seconds", 20, "wall seconds to measure (whole cycles; at least one)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for page files, results and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := specs[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload walk|serve|sweep, --seconds >= 1, --trace 0|1")
		return 2
	}
	if err := execute(o, spec, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// workloadSpec is one named workload.
type workloadSpec struct {
	setup setupSpec
	bench func(e *env, seed int64, t *tracer, workers int) (bench, error)
}

var specs = map[string]workloadSpec{
	"walk": {setup: setupSpec{flat: true}, bench: func(e *env, seed int64, t *tracer, _ int) (bench, error) {
		return newWalk(e, seed, t)
	}},
	"serve": {setup: setupSpec{layout: "hilbert", file: true}, bench: func(e *env, seed int64, t *tracer, workers int) (bench, error) {
		return newServe(e, seed, t, workers)
	}},
	"sweep": {setup: setupSpec{layout: "hilbert"}, bench: func(e *env, seed int64, t *tracer, _ int) (bench, error) {
		return newSweep(e, seed, t)
	}},
}

// errIncorrect marks a run whose correctness checks failed; its result
// line has already been printed.
var errIncorrect = fmt.Errorf("correctness checks failed")

func execute(o options, spec workloadSpec, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	pageDir, err := os.MkdirTemp(o.out, "pages-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(pageDir)

	// Set-up, several times: setup_s is the median.
	var e *env
	var times []setupTimes
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		var t setupTimes
		if e, t, err = build(spec.setup, pageDir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
	}
	defer e.close()

	workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(e.store)
	}
	b, err := spec.bench(e, o.seed, tr, workers)
	if err != nil {
		return err
	}
	cfg := runConfig(o, e, b, workers)

	m := measure(b, o.seconds, tr != nil)
	var c checks
	m.checkRepeats(&c)
	b.verify(m.plain[0], &c)
	if tr != nil {
		checkDecomposition(tr, o.workload, &c)
	}

	var metrics []metric
	if tr == nil {
		metrics = endToEnd(times, m, &c)
	} else {
		metrics = perLayer(o.workload, times, m, tr)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	runtime.KeepAlive(b)
	if tr == nil {
		metrics = append(metrics, metric{"live_heap_mb", float64(ms.HeapAlloc) / (1 << 20), "MB", 1})
	}

	for _, f := range c.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	report(stdout, cfg, metrics, m)
	fmt.Fprintf(stdout, "brute_force samples=%d result_objects_outside_region_bounds=%d failures=%d\n",
		c.samples, c.extra, len(c.failures))
	if err := writeRecord(o, cfg, metrics, c); err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s.jsonl", o.workload))
		if err := tr.rec.writeJSONL(path); err != nil {
			return err
		}
	}
	line := map[string]any{
		"correct":   c.ok(),
		"attempted": m.attempted(),
		"failed":    c.failedQueries,
		"metrics":   metricMap(metrics),
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(enc))
	if !c.ok() {
		return errIncorrect
	}
	return nil
}

// runConfig records what a result was measured on. Results whose
// config_id differs must not be compared: the id covers everything but the
// seed, the trace flag and the run length.
func runConfig(o options, e *env, b bench, workers int) map[string]any {
	base := map[string]any{
		"benchmark":    "perfbench",
		"workload":     o.workload,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"dataset":      "neuro",
		"objects":      e.store.NumObjects(),
		"pages":        e.store.NumPages(),
		"cache_pages":  int(engine.DefaultConfig().CacheFraction * float64(e.store.NumPages())),
		"dataset_seed": datasetSeed,
		"setup_runs":   setupRuns,
		"workers":      workers,
		"workload_cfg": b.describe(),
	}
	enc, _ := json.Marshal(base) // map of plain values: cannot fail
	h := fnv.New64a()
	h.Write(enc)
	base["config_id"] = fmt.Sprintf("%016x", h.Sum64())
	base["seed"] = o.seed
	base["held_out_seed"] = heldOutSeed
	base["trace"] = o.trace
	base["seconds"] = o.seconds
	return base
}

// measurement is every cycle a run executed.
type measurement struct {
	plain, traced [][]outcome
	// alloc is the heap bytes allocated after the first cycle.
	alloc uint64
}

// minCycles is the fewest cycles a run makes: wall metrics take each
// unit's median over its repeats.
const minCycles = 3

// measure runs whole cycles until the run has lasted the given seconds and
// made minCycles cycles (two when traced). With tracing, each unit runs
// plain and then traced, so both see the same machine state.
func measure(b bench, seconds int, traced bool) *measurement {
	m := &measurement{}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var before, after runtime.MemStats
	for {
		plain := make([]outcome, b.units())
		var tcycle []outcome
		if traced {
			tcycle = make([]outcome, b.units())
		}
		for i := range plain {
			plain[i] = b.run(i, false)
			if traced {
				tcycle[i] = b.run(i, true)
			}
		}
		m.plain = append(m.plain, plain)
		if len(m.plain) == 1 {
			// The first cycle grows the prefetchers' arenas; allocation
			// is counted from the second on.
			runtime.ReadMemStats(&before)
		}
		if traced {
			m.traced = append(m.traced, tcycle)
		}
		// A traced run needs a second cycle: the first carries the cold
		// start, so trace_overhead compares later cycles only.
		enough := len(m.plain) >= minCycles || (traced && len(m.plain) >= 2)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	m.alloc = after.TotalAlloc - before.TotalAlloc
	return m
}

func (m *measurement) attempted() int {
	n := 0
	for _, cyc := range [][][]outcome{m.plain, m.traced} {
		for _, c := range cyc {
			n += sum(c).queries
		}
	}
	return n
}

// checkRepeats requires every repeat of a unit, plain or traced, to
// reproduce the first cycle's fingerprint exactly.
func (m *measurement) checkRepeats(c *checks) {
	ref := m.plain[0]
	for k, cyc := range m.plain[1:] {
		for i, o := range cyc {
			if o.fp != ref[i].fp {
				c.failf(o.queries, "unit %d: repeat %d fingerprint %x != %x", i, k+1, o.fp, ref[i].fp)
			}
		}
	}
	for k, cyc := range m.traced {
		for i, o := range cyc {
			if o.fp != ref[i].fp {
				c.failf(o.queries, "unit %d: traced cycle %d fingerprint %x != %x", i, k, o.fp, ref[i].fp)
			}
		}
	}
}

// metric is one reported number; n is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// endToEnd computes the user-visible metrics of an untraced run. A
// percentile without ten samples beyond it fails the run.
func endToEnd(times []setupTimes, m *measurement, c *checks) []metric {
	var totals []time.Duration
	for _, t := range times {
		totals = append(totals, t.total())
	}
	all := sum(flatten(m.plain))
	ref := sum(m.plain[0])
	cycleWall, seqWalls := steady(m.plain)
	walls := durationsMS(seqWalls)
	resp := durationsMS(ref.responses)
	if !supported(len(walls), 90) || !supported(len(resp), 99) {
		c.failf(0, "percentiles lack support: %d explorations for p90, %d responses for p99", len(walls), len(resp))
	}
	out := []metric{
		{"setup_s", middle(totals).Seconds(), "s", len(totals)},
		{"throughput_qps", ratio(float64(ref.queries), cycleWall.Seconds()), "queries/s", all.queries},
		{"seq_wall_ms_p50", quantile(walls, 50), "ms", len(walls)},
		{"seq_wall_ms_p90", quantile(walls, 90), "ms", len(walls)},
		{"alloc_bytes_per_query", ratio(float64(m.alloc), float64(all.queries-ref.queries)), "B", all.queries - ref.queries},
		{"hit_rate", ratio(float64(ref.hitPages), float64(ref.totalPages)), "ratio", int(ref.totalPages)},
		{"speedup", ratio(float64(ref.cold), float64(ref.residual)), "x", int(ref.counted)},
		{"resp_ms_p50", quantile(resp, 50), "ms", len(resp)},
		{"resp_ms_p99", quantile(resp, 99), "ms", len(resp)},
		{"slo_violation_rate", ratio(float64(ref.violations), float64(ref.counted)), "ratio", int(ref.counted)},
		{"served_read_share", 1 - ratio(float64(ref.failedReads), float64(ref.demandReads)), "ratio", int(ref.demandReads)},
	}
	return out
}

// steady returns one cycle's wall time and its explorations' compute
// times, each unit and exploration taken as the median of its repeats
// across cycles: a disturbance on a shared host that slows one cycle does
// not move them.
func steady(cycles [][]outcome) (time.Duration, []time.Duration) {
	var wall time.Duration
	var seqs []time.Duration
	for i := range cycles[0] {
		var ws []time.Duration
		for _, c := range cycles {
			ws = append(ws, c[i].wall)
		}
		wall += middle(ws)
		for j := range cycles[0][i].seqWalls {
			var xs []time.Duration
			for _, c := range cycles {
				xs = append(xs, c[i].seqWalls[j])
			}
			seqs = append(seqs, middle(xs))
		}
	}
	return wall, seqs
}

// middle is the sample median: the middle value, or the mean of the two
// middle values.
func middle(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func flatten(cycles [][]outcome) []outcome {
	var out []outcome
	for _, c := range cycles {
		out = append(out, c...)
	}
	return out
}

// report prints the run configuration and a human-readable metric table.
func report(w io.Writer, cfg map[string]any, metrics []metric, m *measurement) {
	enc, _ := json.Marshal(cfg) // map of plain values: cannot fail
	fmt.Fprintf(w, "config %s\n", enc)
	for _, o := range m.plain[0] {
		if o.label != "" {
			fmt.Fprintf(w, "lost_pages %-18s %d\n", o.label, o.lost)
		}
	}
	fmt.Fprintf(w, "%-36s %16s %-10s %s\n", "metric", "value", "unit", "samples")
	for _, x := range metrics {
		fmt.Fprintf(w, "%-36s %16.6g %-10s %d\n", x.name, x.value, x.unit, x.n)
	}
}

func metricMap(metrics []metric) map[string]any {
	out := make(map[string]any, len(metrics))
	for _, x := range metrics {
		out[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return out
}

// writeRecord stores the result with its configuration, sample counts and
// check failures.
func writeRecord(o options, cfg map[string]any, metrics []metric, c checks) error {
	ms := make(map[string]any, len(metrics))
	for _, x := range metrics {
		ms[x.name] = map[string]any{"value": x.value, "unit": x.unit, "samples": x.n}
	}
	rec := map[string]any{"config": cfg, "metrics": ms, "failures": c.failures}
	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
