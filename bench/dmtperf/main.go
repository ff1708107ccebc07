// Command dmtperf is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process, checks the program's
// outputs, and prints one JSON line with every metric by name and unit:
//
//	bash bench/dmtperf/run.sh --workload preq-narrow --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package from source and passes its arguments on.
// The workloads and metrics are described in README.md. The seed drives
// the workload generators only: the program under test receives the
// generated rows and requests, and its own model seed is fixed.
//
// With -trace 1 the run measures the workload twice for half the time
// each, untraced and then traced, prints the per-layer metrics instead
// of the end-to-end ones, and writes the traced half's spans under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/registry"
	"repro/internal/stream"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload; README.md gives each workload's reading of them. None of
// them can be 0 in a valid run. setup_s and the preq-* timings are at
// the reference host speed (gauge.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"f1", "F1"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.dropped_spans", "count"},
	{"host.speed", "ratio"},
	{"core.learn_us_per_row", "us"},
	{"core.predict_us_per_row", "us"},
	{"core.complexity_us_per_iter", "us"},
	{"core.structure_changes", "count"},
	{"core.mean_splits", "splits"},
	{"hoeffding.learn_us_per_row", "us"},
	{"hoeffding.predict_us_per_row", "us"},
	{"ensemble.learn_us_per_row", "us"},
	{"ensemble.predict_us_per_row", "us"},
	{"eval.self_us_per_row", "us"},
	{"runtime.alloc_bytes_per_row", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_end_ratio", "ratio"},
	{"loadgen.max_rps", "rps"},
	{"client.predict_p99_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"net.client_overhead_p50_ms", "ms"},
	{"server.coalesce_rows_per_batch", "rows"},
	{"serve.predict_batch_us_p50", "us"},
	{"serve.learn_us_per_row", "us"},
	{"serve.learn_ms_p99", "ms"},
	{"serve.publishes_per_batch", "ratio"},
	{"serve.train_lag_p99_ms", "ms"},
	{"serve.structure_changes", "count"},
	{"serve.checkpoint_ms_p50", "ms"},
	{"serve.checkpoint_ms_p99", "ms"},
	{"serve.captures_per_change", "ratio"},
	{"serve.checkpoint_bytes_p50", "B"},
	{"serve.restore_ms_p50", "ms"},
	{"server.envelope_ttfb_ms_p50", "ms"},
	{"server.envelope_body_ms_p50", "ms"},
	{"server.envelope_wire_bytes_p50", "B"},
	{"server.deltas_served_ratio", "ratio"},
	{"persist.make_delta_ms_p50", "ms"},
	{"persist.apply_chain_ms_p50", "ms"},
	{"persist.delta_ratio", "ratio"},
	{"follow.installs", "count"},
	{"follow.delta_installs", "count"},
	{"follow.delta_fallbacks", "count"},
	{"follow.errors", "count"},
	{"follow.wire_bytes_per_install", "B"},
	{"replica.predict_p50_ms", "ms"},
	{"replica.predict_p99_ms", "ms"},
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for about d and checks its outputs.
	measure(ctx context.Context, d time.Duration) (*report, error)
	// close stops everything the instance started and waits for it.
	close()
}

// setupFunc builds a workload instance from the seed, for a run of
// length d; a non-nil tracer asks for the traced variant. The gauge is
// for the instance's own timings.
type setupFunc func(seed int64, d time.Duration, tr *tracer, g *gauge) (instance, error)

var workloads = map[string]setupFunc{
	"preq-narrow":  preqSetup("SEA", "Agrawal", "Electricity"),
	"preq-wide":    preqSetup("Hyperplane", "TueEyeQ", "Gas"),
	"serve-single": serveSetup,
	"fleet-follow": fleetSetup,
}

// modelSeed is the program's own seed for every model it builds; the
// workload seed reaches only the generated rows.
const modelSeed = 1

func modelOptions() []registry.Option { return []registry.Option{registry.WithSeed(modelSeed)} }

// materialise draws the first n rows of a full-size Table I stream (all
// of it when shorter) into one backing array, so the collector marks one
// object per stream rather than one per row while the run measures.
func materialise(dataset string, seed int64, n int) (stream.Schema, stream.Batch, error) {
	e, err := datasets.ByName(dataset)
	if err != nil {
		return stream.Schema{}, stream.Batch{}, err
	}
	s := e.New(1, seed)
	schema := s.Schema()
	n = min(n, e.Samples)
	m := schema.NumFeatures
	vals := make([]float64, 0, n*m)
	b := stream.Batch{X: make([][]float64, n), Y: make([]int, 0, n)}
	for len(b.Y) < n {
		inst, err := s.Next()
		if err != nil {
			return schema, b, fmt.Errorf("%s row %d: %w", dataset, len(b.Y), err)
		}
		vals = append(vals, inst.X...)
		b.Y = append(b.Y, inst.Y)
	}
	for i := range b.X {
		b.X[i] = vals[i*m : (i+1)*m : (i+1)*m]
	}
	return schema, b, nil
}

// report is what one measurement produced.
type report struct {
	rows      float64            // rows the workload's learner consumed
	e2e       map[string]float64 // rows_per_s, op_p50_ms, op_p90_ms, f1
	layer     map[string]float64
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation or check and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "dmtperf: check failed: "+format+"\n", args...)
}

// setupRounds is how many times an untraced run sets up; setup_s is the
// median of their times at the reference speed, and the last instance
// is the one measured.
const setupRounds = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: preq-narrow, preq-wide, serve-single or fleet-follow")
		seed    = flag.Int64("seed", 1, "seed of the workload generators")
		seconds = flag.Int("seconds", 25, "measured time of the run")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "dmtperf: need -workload preq-narrow|preq-wide|serve-single|fleet-follow, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d := time.Duration(*seconds) * time.Second
	var res output
	var err error
	if *trace == 1 {
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		res, err = runTraced(ctx, setup, *seed, d, spans)
	} else {
		res, err = runPlain(ctx, setup, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(ctx context.Context, setup setupFunc, seed int64, d time.Duration) (output, error) {
	g := newGauge()
	g.sample()
	var setups []float64
	var inst instance
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
			inst = nil // for the collector, before the next set-up allocates
		}
		wall, speed, err := g.timed(func() (err error) {
			inst, err = setup(seed, d, nil, g)
			return err
		})
		if err != nil {
			return output{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, wall.Seconds()*speed)
	}
	rep, err := inst.measure(ctx, d)
	inst.close()
	if err != nil {
		return output{}, err
	}
	vals := map[string]float64{"setup_s": median(setups), "max_rss_mb": maxRSSMB()}
	fmt.Fprintf(os.Stderr, "dmtperf: host speed %.3f of the reference over %d gauge samples\n", g.speed(), len(g.samples))
	for k, v := range rep.e2e {
		vals[k] = v
	}
	for _, m := range endToEnd {
		if vals[m.name] <= 0 {
			rep.fail("end-to-end metric %s reads %v", m.name, vals[m.name])
		}
	}
	return assemble(rep, endToEnd, vals), nil
}

// runTraced measures the workload untraced and then traced, for half
// the time each, and reports the per-layer metrics. The runtime
// counters come from the untraced half, where span bookkeeping does not
// allocate; trace.overhead_pct compares op_p50_ms of the two halves.
func runTraced(ctx context.Context, setup setupFunc, seed int64, d time.Duration, spanPath string) (output, error) {
	g := newGauge()
	base, rt, err := measureOnce(ctx, setup, seed, d/2, nil, g)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	rep, _, err := measureOnce(ctx, setup, seed, d/2, tr, g)
	if err != nil {
		return output{}, err
	}
	vals := map[string]float64{}
	for k, v := range rep.layer {
		vals[k] = v
	}
	for k, v := range spanLayers(tr, rep.rows) {
		vals[k] = v
	}
	vals["runtime.alloc_bytes_per_row"] = ratio(float64(rt.alloc), base.rows)
	vals["runtime.gc_pause_ms"] = ms(rt.pause)
	vals["runtime.gc_cycles"] = float64(rt.cycles)
	vals["host.speed"] = g.speed()
	vals["trace.overhead_pct"] = 100 * (ratio(rep.e2e["op_p50_ms"], base.e2e["op_p50_ms"]) - 1)
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return output{}, err
	}
	if err := tr.write(spanPath); err != nil {
		return output{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dmtperf: wrote %d spans to %s\n", int(vals["trace.spans"]), spanPath)
	rep.attempted += base.attempted
	rep.failed += base.failed
	return assemble(rep, perLayer, vals), nil
}

// runtimeDelta is what the Go runtime did during one measurement.
type runtimeDelta struct {
	alloc  uint64
	pause  time.Duration
	cycles uint32
}

func measureOnce(ctx context.Context, setup setupFunc, seed int64, d time.Duration, tr *tracer, g *gauge) (*report, runtimeDelta, error) {
	g.sample()
	inst, err := setup(seed, d, tr, g)
	if err != nil {
		return nil, runtimeDelta{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := inst.measure(ctx, d)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, runtimeDelta{}, err
	}
	return rep, runtimeDelta{
		alloc:  after.TotalAlloc - before.TotalAlloc,
		pause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		cycles: (after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC), // not the gauge's
	}, nil
}

// assemble builds the result line from the metric set and prints it as
// a table on stderr. A metric the run did not produce reads 0; one that
// is not a finite number fails the run.
func assemble(rep *report, defs []metricDef, vals map[string]float64) output {
	o := output{Attempted: max(rep.attempted, 1), Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("metric %s is not finite", m.name)
			v = 0
		}
		o.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", m.name, v, m.unit)
	}
	o.Failed = rep.failed
	o.Correct = rep.failed == 0 && rep.attempted > 0
	return o
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
