// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload through the simulator's public entry
// points (sim.PerfCentricSetOn, sim.RunSynthetic, sim.RunWorkload and an
// in-process serve.Server behind a loopback listener), checks that the
// simulated outputs are correct, and prints as the last line of standard
// output one JSON object with the verdict, the operation counts and the
// metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. A readable report goes to standard error.
//
//	bash perfbench/run.sh --workload synth_sweep_8x8 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve_mix --spread 5     # stability check over seeds 1..5
//
// Every measurement runs in a fresh child process with empty caches, as
// every CLI invocation and freshly started worker does. With -trace 0
// one child sets up and measures, and setupRepeats-1 more children only
// set up; setup_s is the median of their times from process start to
// the first measured operation. With -trace 1 an untraced child and a
// traced child (spans plus a CPU profile) both measure; the per-layer
// metrics come from the traced one, and trace_overhead.* is traced minus
// untraced.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	defaultSeed  = 1
	setupRepeats = 3
	readyLine    = "perfbench-ready"
	// runTimeout bounds one whole run, children included.
	runTimeout = 170 * time.Second
	outDir     = ".bench_build/trace"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	role     string // "" (orchestrator), "measure" or "setup"
	traced   bool   // measuring child: record spans and a CPU profile
	record   bool   // recording a new baseline: skip the digest comparison
	spread   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.role, "role", "", "internal: child process role (measure or setup)")
	flag.BoolVar(&o.traced, "traced", false, "internal: trace the measuring child")
	flag.BoolVar(&o.record, "record", false, "with -spread: write the medians, host and seed-1 digest to perfbench/baseline.json")
	flag.IntVar(&o.spread, "spread", 0, "run seeds 1..n and print each end-to-end metric's quartile spread")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if _, err := workloadByName(o.workload); err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	switch {
	case o.role != "":
		return child(o)
	case o.spread > 0:
		return spread(o)
	}
	res, err := orchestrate(o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res.output())
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childReport is a measuring child's last stdout line.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Digest    string             `json:"digest"`
	E2E       map[string]float64 `json:"e2e"`
	Workload  map[string]float64 `json:"workload"`
	Layer     map[string]float64 `json:"layer"`
	Accuracy  string             `json:"accuracy,omitempty"`
}

// child is one fresh process: set up, signal readiness, and (role
// measure) run the measured phase and report.
func child(o options) error {
	info, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	var (
		tr   *tracer
		prof *profiler
	)
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.traced {
		tr = &tracer{t0: time.Now()}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if prof, err = startProfile(outDir, name); err != nil {
			return err
		}
	}
	w, err := info.build(o.seed)
	if err != nil {
		return err
	}
	e := newEnv(o.seed, tr)
	if err := w.setup(e); err != nil {
		return errors.Join(fmt.Errorf("setup: %w", err), w.close())
	}
	fmt.Println(readyLine)
	if o.role == "setup" {
		return w.close()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := w.measure(e, time.Duration(o.seconds)*time.Second); err != nil {
		e.tally.record(fmt.Errorf("measure: %w", err))
	}
	runtime.ReadMemStats(&m1)
	if err := w.close(); err != nil {
		e.tally.record(fmt.Errorf("close: %w", err))
	}
	e.layer["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	e.layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	e.e2e["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	if o.traced {
		if err := prof.stop(); err != nil {
			return err
		}
		e.layer["process.cpu_s"] = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		if err := profileLayers(prof.path, e.layer); err != nil {
			return err
		}
		spanLayers(tr, e.layer)
		if err := tr.write(filepath.Join(outDir, name+".spans.json")); err != nil {
			return err
		}
	}
	if o.seed == defaultSeed && !o.record {
		want, ok := baseline.Digests[o.workload]
		if !ok {
			e.tally.record(fmt.Errorf("no digest recorded for %s in perfbench/baseline.json", o.workload))
		} else {
			e.tally.record(checkDigest(o.workload+" results at the default seed", e.digest, want))
		}
	}
	rep := childReport{
		Attempted: e.tally.attempted, Failed: e.tally.failed, Notes: e.tally.notes,
		Digest: e.digest, E2E: e.e2e, Workload: e.wl, Layer: e.layer,
	}
	if sw, ok := w.(*simWorkload); ok {
		rep.Accuracy = sw.accuracyLine()
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// profileLayers charges the CPU profile to modules and reports each
// module's seconds, their sum and the share of process CPU time the
// profile explains.
func profileLayers(path string, out map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cpu, err := attributeProfile(exe, path)
	if err != nil {
		return err
	}
	var sum float64
	for _, m := range cpuModules {
		out[m+".cpu_s"] = cpu[m]
		sum += cpu[m]
	}
	out["profile.cpu_s"] = sum
	out["profile.cpu_share"] = sum / out["process.cpu_s"]
	return nil
}

// childRun is one finished child: its setup time, measured from process
// start to its ready line, and its report (role measure).
type childRun struct {
	setup float64
	rep   childReport
}

func runChild(ctx context.Context, o options, role string, traced bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-role", role, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), fmt.Sprintf("-traced=%v", traced), fmt.Sprintf("-record=%v", o.record)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var (
		out  childRun
		last string
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); line == readyLine && out.setup == 0 {
			out.setup = time.Since(start).Seconds()
		} else {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return out, fmt.Errorf("%s child: %w", role, err)
	}
	if scanErr != nil {
		return out, scanErr
	}
	if out.setup == 0 {
		return out, fmt.Errorf("%s child never became ready", role)
	}
	if role == "measure" {
		if err := json.Unmarshal([]byte(last), &out.rep); err != nil {
			return out, fmt.Errorf("measure child report: %w", err)
		}
	}
	return out, nil
}

// runResult is one benchmark run's verdict and metrics.
type runResult struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	units             map[string]string
	digest            string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON result line.
func (r runResult) output() any {
	m := map[string]metricValue{}
	for name, v := range r.metrics {
		m[name] = metricValue{v, r.units[name]}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m}
}

func orchestrate(o options) (runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d, %ds, trace %d; %s\n", o.workload, o.seed, o.seconds, o.trace, hostNote())
	a, err := runChild(ctx, o, "measure", false)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{attempted: a.rep.Attempted, failed: a.rep.Failed, digest: a.rep.Digest,
		metrics: map[string]float64{}, units: map[string]string{}}
	notes := a.rep.Notes
	if o.trace == 0 {
		setups := []float64{a.setup}
		for i := 1; i < setupRepeats; i++ {
			p, err := runChild(ctx, o, "setup", false)
			if err != nil {
				return runResult{}, err
			}
			setups = append(setups, p.setup)
		}
		for _, m := range endToEnd {
			res.metrics[m.Name] = a.rep.E2E[m.Name]
			res.units[m.Name] = m.Unit
		}
		res.metrics["setup_s"] = median(setups)
	} else {
		b, err := runChild(ctx, o, "measure", true)
		if err != nil {
			return runResult{}, err
		}
		res.attempted += b.rep.Attempted
		res.failed += b.rep.Failed
		notes = append(notes, b.rep.Notes...)
		a.rep.E2E["setup_s"], b.rep.E2E["setup_s"] = a.setup, b.setup
		for _, m := range perLayer {
			res.metrics[m.Name] = b.rep.Layer[m.Name]
			res.units[m.Name] = m.Unit
		}
		for _, m := range workloadMetrics {
			res.metrics[m.Name] = a.rep.Workload[m.Name]
		}
		res.metrics["failed_ratio"] = float64(a.rep.Failed) / float64(max(a.rep.Attempted, 1))
		for _, m := range endToEnd {
			res.metrics["trace_overhead."+m.Name] = b.rep.E2E[m.Name] - a.rep.E2E[m.Name]
		}
		res.metrics["topology.planner_share"] = b.rep.Layer["topology.planner_s"] / b.setup
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.attempted++
			res.failed++
			notes = append(notes, fmt.Sprintf("metric %s is %v", name, v))
			res.metrics[name] = 0
		}
	}
	res.correct = res.failed == 0
	report(o, a.rep, res, notes)
	return res, nil
}

// report prints the readable summary to stderr: every end-to-end and
// workload metric with its unit, failures and the accuracy line.
func report(o options, a childReport, res runResult, notes []string) {
	w := os.Stderr
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.metrics[n], res.units[n])
	}
	if o.trace == 0 {
		for _, m := range workloadMetrics {
			if v, ok := a.Workload[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s (workload metric)\n", m.Name, v, m.Unit)
			}
		}
	}
	if a.Accuracy != "" {
		fmt.Fprintln(w, "  "+a.Accuracy)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d digest=%.16s\n", res.correct, res.attempted, res.failed, res.digest)
	for _, n := range notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
}
