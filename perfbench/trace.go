package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of a public call. Spans of one served job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	// Label qualifies the span: a grid for the planner, a design for a
	// simulation run, hit or cold for a served job.
	Label string `json:"label,omitempty"`
	// Work is the simulated router-cycles of a simulation-run span.
	Work    float64 `json:"work,omitempty"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name, job, label string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Label: label, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id, recording the simulated work it covered.
func (t *tracer) end(id int, work float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Work = work
}

// add records an already finished span and returns its id (0 on a nil
// tracer).
func (t *tracer) add(parent int, name, job, label string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Label: label,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id
}

// named returns the finished spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanLayers derives the span-based per-layer metrics.
func spanLayers(t *tracer, out map[string]float64) {
	var planner float64
	for _, s := range t.named("topology.PerfCentricSetOn") {
		out["topology.planner_s."+s.Label] += s.seconds()
		planner += s.seconds()
	}
	out["topology.planner_s"] = planner

	var runs []float64
	perDesign := map[string][]float64{}
	for _, name := range []string{"sim.RunSynthetic", "sim.RunWorkload"} {
		for _, s := range t.named(name) {
			runs = append(runs, s.seconds())
			if s.Work > 0 {
				perDesign[s.Label] = append(perDesign[s.Label], s.seconds()*1e9/s.Work)
			}
		}
	}
	out["sim.run_s_p50"] = median(runs)
	for _, d := range designNames {
		out["sim.run_ns_per_node_cycle."+d] = median(perDesign[d])
	}

	ms := func(name string, pick func(span) bool) []float64 {
		var v []float64
		for _, s := range t.named(name) {
			if pick(s) {
				v = append(v, s.seconds()*1e3)
			}
		}
		return v
	}
	all := func(span) bool { return true }
	out["serve.submit_ms_p50"] = median(ms("serve.submit", all))
	out["serve.wait_ms_p50"] = median(ms("serve.wait", all))
	out["serve.fetch_ms_p50"] = median(ms("serve.fetch", all))
	out["serve.hit_p90_ms"] = percentile(ms("serve.job", func(s span) bool { return s.Label == "hit" }), 0.9)
	gens := ms("search.generation", all)
	out["search.generation_s_p50"] = median(gens) / 1e3
}

// profiler is the CPU profile of a traced run, written under dir.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profiler, error) {
	path := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// attributeProfile charges every sample of a CPU profile to a module with
// the Go toolchain's pprof: to the innermost frame in a nord package, to
// perfbench for a frame of this benchmark's main package, and to runtime
// when the stack has neither. It returns CPU seconds per module.
func attributeProfile(exe, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----------+---" lines, each starting with a line holding the sample
// value and the innermost frame, followed by one caller frame per line.
func parseTraces(out []byte) (map[string]float64, error) {
	cpu := map[string]float64{}
	var (
		value         float64
		module        string
		inside, first bool
	)
	flush := func() {
		if inside && !first {
			if module == "" {
				module = "runtime"
			}
			cpu[module] += value
		}
		value, module = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inside, first = true, true
			continue
		}
		if !inside || line == "" {
			continue
		}
		frame := line
		if first {
			num, rest, _ := strings.Cut(line, " ")
			v, err := parseDuration(num)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value, frame, first = v, strings.TrimSpace(rest), false
		}
		if module == "" {
			module = frameModule(frame)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cpu, nil
}

// parseDuration parses a pprof sample value into seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}

// frameModule names the module a frame belongs to, or "" for a frame
// outside the repository (standard library, runtime).
func frameModule(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	switch {
	case strings.HasPrefix(frame, "main."):
		return "perfbench"
	case strings.HasPrefix(frame, "nord/internal/"):
		rest := strings.TrimPrefix(frame, "nord/internal/")
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(frame, "nord."):
		return "other"
	}
	return ""
}
