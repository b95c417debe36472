package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostRecord names the machine a baseline was measured on. Figures are
// comparable only between runs with equal records.
type hostRecord struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func thisHost() hostRecord {
	return hostRecord{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

// stat is one metric's distribution over a spread run.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median.
	Spread float64 `json:"spread"`
}

// baselineFile is perfbench/baseline.json: the recorded host, the
// simulated-result digest of every workload at the default seed, and the
// end-to-end medians and spreads of the recorded spread runs.
type baselineFile struct {
	Host    hostRecord                 `json:"host"`
	Seconds int                        `json:"seconds"`
	Runs    int                        `json:"runs"`
	Digests map[string]string          `json:"digests"`
	Metrics map[string]map[string]stat `json:"metrics"`
}

//go:embed baseline.json
var baselineJSON []byte

var baseline = mustBaseline()

func mustBaseline() baselineFile {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic("perfbench: embedded baseline.json: " + err.Error())
	}
	return b
}

// hostNote states whether this host matches the baseline's.
func hostNote() string {
	h := thisHost()
	s := fmt.Sprintf("host cpus=%d GOMAXPROCS=%d %s %s", h.HostCPUs, h.GOMAXPROCS, h.GoVersion, h.OSArch)
	if h == baseline.Host {
		return s + " (same as the recorded baseline's)"
	}
	return s + " (differs from the recorded baseline's; do not compare figures)"
}

// spread runs the benchmark on seeds 1..n and prints, per end-to-end
// metric, the median and the quartile spread (Q3-Q1)/median next to a
// third of the metric's bound, the steadiness target. With -record it
// stores the results, the host and the seed-1 digest in
// perfbench/baseline.json.
func spread(o options) error {
	values := map[string][]float64{}
	var seed1Digest string
	for s := 1; s <= o.spread; s++ {
		run := o
		run.seed = int64(s)
		res, err := orchestrate(run)
		if err != nil {
			return err
		}
		if !res.correct {
			return fmt.Errorf("seed %d: run not correct", s)
		}
		if s == defaultSeed {
			seed1Digest = res.digest
		}
		for name, v := range res.metrics {
			values[name] = append(values[name], v)
		}
	}
	stats := map[string]stat{}
	var b strings.Builder
	fmt.Fprintf(&b, "%s over %d seeds (%ds each):\n", o.workload, o.spread, o.seconds)
	for _, m := range endToEnd {
		q1, q2, q3, err := quartiles(values[m.Name])
		if err != nil {
			return err
		}
		st := stat{Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / q2}
		stats[m.Name] = st
		verdict := "ok"
		if m.Name != "setup_s" && st.Spread >= m.Bound/3 {
			verdict = "SPREAD ABOVE A THIRD OF THE BOUND"
		}
		fmt.Fprintf(&b, "  %-24s median %12.6g %-4s spread %6.2f%% (bound/3 %5.2f%%) %s\n",
			m.Name, q2, m.Unit, st.Spread*100, m.Bound/3*100, verdict)
	}
	fmt.Print(b.String())
	if !o.record {
		return nil
	}
	// Digests do not depend on the host; figures from another host or
	// run length are dropped rather than mixed with these.
	rec := baseline
	if rec.Host != thisHost() || rec.Seconds != o.seconds || rec.Metrics == nil {
		rec.Metrics = map[string]map[string]stat{}
	}
	rec.Host, rec.Seconds, rec.Runs = thisHost(), o.seconds, o.spread
	if rec.Digests == nil {
		rec.Digests = map[string]string{}
	}
	if seed1Digest != "" {
		rec.Digests[o.workload] = seed1Digest
	}
	rec.Metrics[o.workload] = stats
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/baseline.json", append(out, '\n'), 0o644)
}
