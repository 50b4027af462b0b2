// Command casperbench is the repository's benchmark: it serves an
// in-process Casper over the v2 wire protocol on loopback, drives it
// with one of the named workloads over 2 connections x 8 in flight,
// checks every answer against brute force, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	casperbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics: an open-loop Poisson phase
// at the workload's rate, then a closed-loop phase, S/2 seconds each,
// with set-up repeated in fresh processes for a median setup_s.
// --trace 1 reports the per-layer metrics: the same world and seed,
// replayed serially through core.Casper and through the composed
// layers with spans around every call, then the wire phases with rpc
// spans. Spans are written under --dir when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"casper/internal/anonymizer"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	role     string
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.role, "role", "", "internal: \"setup\" builds the world once and reports setup_s")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for WAL files and span dumps")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	// Every run must end well inside the caller's 180 s limit.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	if o.role == "setup" {
		in := makeInputs(w, o.seed)
		wd, d, err := newWorld(ctx, in, o.dir)
		if err != nil {
			return err
		}
		wd.close()
		fmt.Printf("{\"setup_s\": %.9f}\n", d.Seconds())
		return nil
	}

	var (
		res   result
		lines []string
	)
	if o.trace == 1 {
		res, lines, err = runTraced(ctx, w, o)
	} else {
		res, lines, err = runUntraced(ctx, w, o)
	}
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, spec := range metricSpecs(o.trace == 1) {
		m, ok := res.Metrics[spec.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", spec.name)
		}
		fmt.Printf("%-36s %14.6g %s\n", spec.name, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupSamples builds the world n times, each in a fresh process, so
// no set-up inherits another's heap or process-global telemetry.
func setupSamples(ctx context.Context, o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
			"--role", "setup", "--dir", o.dir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup process: %w", err)
		}
		var v struct {
			SetupS float64 `json:"setup_s"`
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
			return nil, fmt.Errorf("setup process output: %w", err)
		}
		out = append(out, v.SetupS)
	}
	return out, nil
}

// phases splits the measured seconds evenly between the open-loop and
// the closed-loop phase.
func phases(seconds int) (open, closed time.Duration) {
	half := time.Duration(seconds) * time.Second / 2
	return half, half
}

func runUntraced(ctx context.Context, w workload, o options) (result, []string, error) {
	setups, err := setupSamples(ctx, o, w.setupRuns-1)
	if err != nil {
		return result{}, nil, err
	}
	in := makeInputs(w, o.seed)
	wd, d, err := newWorld(ctx, in, o.dir)
	if err != nil {
		return result{}, nil, err
	}
	defer wd.close()
	setups = append(setups, d.Seconds())

	m, err := measureWire(ctx, wd, o, nil)
	if err != nil {
		return result{}, nil, err
	}
	ol, cl := m.open.t, m.closed
	openD, closedD := phases(o.seconds)
	tails := m.tails(openD)
	vals := map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"throughput_ops_s": windowedRate(cl.done, m.closedElapsed),
		"p50_ms":           quantile(latenciesMS(m.latAll()), 0.50),
		"within_slo_frac":  ratio(float64(ol.withinSLO), float64(ol.attempted)),
		"completed_frac":   1 - ratio(float64(m.failed()), float64(m.attempted())),
		"heap_peak_mb":     float64(m.heapPeak) / 1e6,
		"candidates_mean":  ratio(float64(ol.nnCands+cl.nnCands), float64(ol.nnCount+cl.nnCount)),
		"k_satisfied_frac": m.kSatisfied,
	}
	lines := []string{
		fmt.Sprintf("workload %s seed %d: %d users, %d targets, %d watches, open loop %.0f req/s for %s, closed loop for %s",
			w.name, o.seed, w.users, w.targets, w.watches, w.rate, openD, closedD),
		fmt.Sprintf("setup samples (s): %s", fmtFloats(setups)),
		fmt.Sprintf("open loop: %d attempted, %d ok, %d errors, %d server shed, %d client shed",
			ol.attempted, ol.ok, ol.errs, ol.srvShed, ol.clShd),
		tails.String(),
		fmt.Sprintf("closed loop: %d attempted, %d ok, %d errors, %d server shed in %.3f s",
			cl.attempted, cl.ok, cl.errs, cl.srvShed, m.closedElapsed.Seconds()),
		fmt.Sprintf("oracle: %d answers checked, %d wrong", m.checked, m.wrong),
	}
	if m.firstWrong != nil {
		lines = append(lines, fmt.Sprintf("first wrong answer: %v", m.firstWrong))
	}
	if m.firstErr != nil {
		lines = append(lines, fmt.Sprintf("first error: %v", m.firstErr))
	}
	return m.result(vals, false), lines, nil
}

// tailLatency is the open loop's p99 for all requests, updates and
// queries, with the sample and window counts behind each.
type tailLatency struct {
	p99          [3]float64
	samples, win [3]int
}

var tailNames = [3]string{"all", "update", "query"}

func (m *wireRun) latAll() []sample {
	return append(append([]sample(nil), m.open.t.updLat...), m.open.t.qryLat...)
}

func (m *wireRun) tails(openD time.Duration) tailLatency {
	var t tailLatency
	for i, xs := range [3][]sample{m.latAll(), m.open.t.updLat, m.open.t.qryLat} {
		t.p99[i], t.win[i] = windowedP99(xs, openD)
		t.samples[i] = len(xs)
	}
	return t
}

func (t tailLatency) String() string {
	parts := make([]string, 3)
	for i := range parts {
		parts[i] = fmt.Sprintf("%s %.3f ms (%d samples, %d windows)", tailNames[i], t.p99[i], t.samples[i], t.win[i])
	}
	return "open-loop p99: " + strings.Join(parts, "; ")
}

// wireRun is the account of one open-loop plus closed-loop pass.
type wireRun struct {
	open          openLoopResult
	closed        tally
	closedElapsed time.Duration
	rt            rtDelta
	heapPeak      uint64
	goroutines    int
	kSatisfied    float64
	churnFailed   int64
	checked       int64
	wrong         int64
	firstWrong    error
	firstErr      error
	extraAttempts int64
	extraFailed   int64
	moves         map[anonymizer.UserID]int // where the users ended on their tracks
}

func (m *wireRun) attempted() int64 { return m.open.t.attempted + m.closed.attempted + m.extraAttempts }
func (m *wireRun) failed() int64 {
	return m.open.t.failed() + m.closed.failed() + m.extraFailed
}

func (m *wireRun) result(vals map[string]float64, traced bool) result {
	res := result{
		Correct:   m.wrong == 0 && m.open.t.errs == 0 && m.closed.errs == 0 && m.churnFailed == 0 && m.firstErr == nil,
		Attempted: m.attempted(),
		Failed:    m.failed(),
		Metrics:   map[string]metric{},
	}
	for _, spec := range metricSpecs(traced) {
		res.Metrics[spec.name] = metric{Value: vals[spec.name], Unit: spec.unit}
	}
	return res
}

// measureWire runs the open-loop and closed-loop phases on a ready
// world, then checks every answer. Users start at moves on their
// tracks (nil: their first step).
func measureWire(ctx context.Context, wd *world, o options, moves map[anonymizer.UserID]int) (*wireRun, error) {
	m := &wireRun{}
	streams := make([]*opStream, workers)
	for k := range streams {
		streams[k] = newOpStream(wd.in, o.seed, k, moves)
	}
	defer func() {
		m.moves = make(map[anonymizer.UserID]int)
		for _, st := range streams {
			for uid, n := range st.moves {
				m.moves[uid] = n
			}
		}
	}()
	answers := make([][]answer, workers)
	rel0, vio0, err := wd.privacyTotals(ctx)
	if err != nil {
		return nil, err
	}
	stopChurn := wd.startChurn()
	smp := startSampler()
	rt0 := readRT()
	openD, closedD := phases(o.seconds)
	m.open = wd.openLoop(ctx, streams, openD, o.seed, answers)
	// Churn is a rate in time, so it runs against the open loop only:
	// against a closed loop its share of the CPU would grow as the loop
	// slows, and throughput would follow the host's speed twice.
	m.churnFailed = stopChurn()
	m.closed, m.closedElapsed = wd.closedLoop(ctx, streams, closedD, answers, nil)
	m.rt = readRT().since(rt0)
	smp.finish()
	m.heapPeak, m.goroutines = smp.heapPeak, smp.goroutinesPeak
	rel1, vio1, err := wd.privacyTotals(ctx)
	if err != nil {
		return nil, err
	}
	m.kSatisfied = 1 - ratio(float64(vio1-vio0), float64(rel1-rel0))
	m.firstErr = m.open.t.firstErr
	if m.firstErr == nil {
		m.firstErr = m.closed.firstErr
	}
	for _, a := range answers {
		m.checked += int64(len(a))
	}
	m.wrong, m.firstWrong = checkAnswers(wd.in.targets, wd.in.radius, answers)
	return m, nil
}

func runTraced(ctx context.Context, w workload, o options) (result, []string, error) {
	in := makeInputs(w, o.seed)
	wd, _, err := newWorld(ctx, in, o.dir)
	if err != nil {
		return result{}, nil, err
	}
	defer wd.close()
	ops := serialOps(in, o.seed, w.replayOps)
	coreRec, layerSpans, st, md, err := replay(wd, ops, o)
	if err != nil {
		return result{}, nil, err
	}
	rep := analyze(coreRec.all(), layerSpans, st, md)
	runtime.GC() // drop the replay stack before the wire phases

	// The wire: untraced phases for the runtime and generator numbers,
	// then a traced closed loop at the same concurrency. Users move on
	// from where the replay and then the untraced phases left them; the
	// traced loop's streams restart so its op ids match the replay's.
	m, err := measureWire(ctx, wd, o, movesOf(ops))
	if err != nil {
		return result{}, nil, err
	}
	streams := make([]*opStream, workers)
	for k := range streams {
		streams[k] = newOpStream(in, o.seed, k, m.moves)
	}
	rpcRec := &recorder{}
	answers := make([][]answer, workers)
	_, closedD := phases(o.seconds)
	traced, tracedElapsed := wd.closedLoop(ctx, streams, closedD, answers, rpcRec)
	wrong, firstWrong := checkAnswers(in.targets, in.radius, answers)
	m.wrong += wrong
	if m.firstWrong == nil {
		m.firstWrong = firstWrong
	}
	for _, a := range answers {
		m.checked += int64(len(a))
	}
	m.extraAttempts, m.extraFailed = traced.attempted, traced.failed()
	if m.firstErr == nil {
		m.firstErr = traced.firstErr
	}

	vals := rep.metrics
	rpcSpans := rpcRec.all()
	rtts := make([]float64, len(rpcSpans))
	for i, s := range rpcSpans {
		rtts[i] = float64(s.dur.Nanoseconds()) / 1e3
	}
	vals["protocol.rtt_p50_us"] = quantile(rtts, 0.5)
	vals["protocol.overhead_p50_us"] = overheadP50(rpcSpans, coreRec.all())
	vals["protocol.shed"] = float64(m.open.t.srvShed + m.open.t.clShd + m.closed.srvShed + traced.srvShed)
	if mon := wd.c.Monitor(); mon != nil {
		_, hw := mon.QueueStats()
		vals["continuous.queue_high_water"] = float64(hw)
	}
	if w.wal {
		vals["wal.log_bytes_per_live_byte"] = float64(wd.walBytes()) / float64(liveBytes(in))
	}
	vals["runtime.gc_cpu_frac"] = m.rt.gcCPUFrac
	vals["runtime.sched_latency_p99_us"] = m.rt.schedP99Seconds * 1e6
	vals["runtime.alloc_mb_per_kop"] = ratio(float64(m.rt.allocBytes)/1e6, float64(m.open.t.attempted+m.closed.attempted)/1e3)
	vals["runtime.goroutines_peak"] = float64(m.goroutines)
	openD, _ := phases(o.seconds)
	tails := m.tails(openD)
	vals["openloop.p99_ms"] = tails.p99[0]
	vals["openloop.update_p99_ms"] = tails.p99[1]
	vals["openloop.query_p99_ms"] = tails.p99[2]
	vals["gen.lateness_p99_ms"] = nsQuantileMS(m.open.lateness, 0.99)
	untracedTput := windowedRate(m.closed.done, m.closedElapsed)
	tracedTput := windowedRate(traced.done, tracedElapsed)
	vals["trace.throughput_ops_s"] = tracedTput
	vals["trace.overhead_frac"] = 1 - ratio(tracedTput, untracedTput)

	spanPath := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, o.seed))
	all := &recorder{}
	all.shards[0] = append(append(append(all.shards[0], rpcSpans...), coreRec.all()...), layerSpans...)
	if err := all.write(spanPath); err != nil {
		return result{}, nil, err
	}

	lines := []string{
		fmt.Sprintf("workload %s seed %d (traced): %d ops replayed serially through core and through the composed layers",
			w.name, o.seed, len(ops)),
		"self time by layer over the serial replay (share of core spans):",
	}
	for _, sh := range rep.shares {
		lines = append(lines, fmt.Sprintf("  %-12s %6.1f%%  heaviest call: %s", sh.layer, 100*sh.frac, sh.top))
	}
	lines = append(lines,
		fmt.Sprintf("largest layer self time: %s (%s)", rep.shares[0].layer, rep.shares[0].top),
		tails.String(),
		fmt.Sprintf("tracing overhead: closed-loop throughput %.1f ops/s traced vs %.1f untraced", tracedTput, untracedTput),
		fmt.Sprintf("oracle: %d answers checked, %d wrong", m.checked, m.wrong),
		fmt.Sprintf("spans written to %s", spanPath),
	)
	if m.firstWrong != nil {
		lines = append(lines, fmt.Sprintf("first wrong answer: %v", m.firstWrong))
	}
	if m.firstErr != nil {
		lines = append(lines, fmt.Sprintf("first error: %v", m.firstErr))
	}
	return m.result(vals, true), lines, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
