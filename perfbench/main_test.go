package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

func TestPercentileRule(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g %v, want 2.75 5.5 8.25", q1, q2, q3, err)
	}
	// Python: statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3, _ := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	if got := geomean([]float64{1, 4, 16}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
}

// TestFailureCounting: a refused submission (429) and a digest mismatch
// each count as one failed operation.
func TestFailureCounting(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"job queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	w := &serveMix{base: ts.URL, client: ts.Client()}
	e := newEnv(defaultSeed, nil)
	out := w.job(e, []byte(`{"kind":"synthetic"}`), false)
	var se *errStatus
	if !errors.As(out.err, &se) || se.code != http.StatusTooManyRequests {
		t.Fatalf("job against a 429 server: err = %v, want an HTTP 429 errStatus", out.err)
	}
	if e.tally.record(out.err) {
		t.Error("record(429) reported success")
	}
	err := checkDigest("cache hit k", digest([]byte("hit")), digest([]byte("cold")))
	if !errors.Is(err, errDigest) {
		t.Fatalf("checkDigest on different payloads = %v, want errDigest", err)
	}
	if e.tally.record(err) {
		t.Error("record(digest mismatch) reported success")
	}
	if !e.tally.record(checkDigest("same", "a", "a")) {
		t.Error("record(matching digest) reported failure")
	}
	if e.tally.attempted != 3 || e.tally.failed != 2 || len(e.tally.notes) != 2 {
		t.Errorf("tally = %d attempted, %d failed, %d notes; want 3, 2, 2", e.tally.attempted, e.tally.failed, len(e.tally.notes))
	}
	for _, code := range []int{200, 202, 299} {
		if err := statusErr("x", code); err != nil {
			t.Errorf("statusErr(%d) = %v, want nil", code, err)
		}
	}
	for _, code := range []int{199, 300, 404, 429, 503} {
		if statusErr("x", code) == nil {
			t.Errorf("statusErr(%d) = nil, want an error", code)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; want 1-16 and 1-128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("invalid metric name or unit: %q %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	var setup metricDef
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or malformed: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g", m.Name, m.Bound, setup.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: invalid name or why", w.name)
		}
	}
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

// expectedBenchmarkJSON is BENCHMARK.json as the catalog defines it.
func expectedBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchMetric{m.Name, m.Unit, m.Better, nil})
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	want := expectedBenchmarkJSON()
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate with: go test -run TestCatalogMatchesBenchmarkJSON -update")
	}
}

// TestLayerMapping checks that layers.json, the per-layer -> end-to-end
// mapping later changes cite, names only metrics and workloads that exist.
func TestLayerMapping(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mapping []struct {
			Layers []string `json:"layers"`
			Moves  []struct {
				Metric    string   `json:"metric"`
				Workloads []string `json:"workloads"`
				How       string   `json:"how"`
			} `json:"moves"`
		} `json:"mapping"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.Name] = true
	}
	target := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), workloadMetrics...) {
		target[m.Name] = true
	}
	covered := map[string]bool{}
	for _, entry := range doc.Mapping {
		for _, l := range entry.Layers {
			if !layer[l] {
				t.Errorf("layers.json: unknown per-layer metric %q", l)
			}
			covered[l] = true
		}
		for _, mv := range entry.Moves {
			if !target[mv.Metric] {
				t.Errorf("layers.json: unknown target metric %q", mv.Metric)
			}
			for _, w := range mv.Workloads {
				if _, err := workloadByName(w); err != nil {
					t.Errorf("layers.json: %v", err)
				}
			}
		}
	}
	for _, m := range cpuModules {
		if !covered[m+".cpu_s"] {
			t.Errorf("layers.json: %s.cpu_s has no mapping", m)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1.23s (100%)
-----------+-------------------------------------------------------
     1.20s   nord/internal/topology.(*Planner).Eval
             nord/internal/sim.PerfCentricSetOn
             main.primePlanners
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             encoding/json.Marshal
             nord/internal/serve.writeJSON (inline)
             net/http.HandlerFunc.ServeHTTP
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   crypto/sha256.block
             main.digest
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"topology": 1.2, "serve": 0.01, "runtime": 0.01, "perfbench": 0.01}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "2mins": 120, "250us": 250e-6} {
		if got, err := parseDuration(in); err != nil || got != want {
			t.Errorf("parseDuration(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	for frame, want := range map[string]string{
		"nord/internal/noc.(*Network).Step":          "noc",
		"nord/internal/fleet.(*Worker).run (inline)": "other",
		"main.(*serveMix).job.func1":                 "perfbench",
		"runtime.mallocgc":                           "",
	} {
		if got := frameModule(frame); got != want {
			t.Errorf("frameModule(%q) = %q, want %q", frame, got, want)
		}
	}
}
