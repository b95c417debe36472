package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nord/internal/search"
	"nord/internal/serve"
)

// serve_mix shape. Each round submits keysPerRound distinct 4x4 jobs
// (cold), then every key hitsPerKey more times (cache hits), so exactly
// hitsPerKey/(hitsPerKey+1) of all submissions are served from the
// cache. The barrier between the two segments keeps a hit from
// coalescing onto its still-running cold job.
const (
	serveClients = 2
	serveWorkers = 2
	keysPerRound = 24
	hitsPerKey   = 2
	jobWarmup    = 500
	jobMeasure   = 2000
	jobNodes     = 16
	// jobsShare is the share of the measured budget spent in the jobs
	// phase; the search phase follows.
	jobsShare = 0.9
)

var jobRates = []float64{0.03, 0.08, 0.15}

type serveMix struct {
	seed   int64
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return value
	base   string
	client *http.Client
}

func newServeMix(seed int64) (workload, error) { return &serveMix{seed: seed}, nil }

func (w *serveMix) setup(e *env) error {
	id := e.tr.begin(0, "setup", "", "")
	defer e.tr.end(id, 0)
	sid := e.tr.begin(id, "serve.New", "", "")
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv, err = serve.New(serve.Config{Workers: serveWorkers, CacheDir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	code, _, err := w.do(http.MethodGet, "/healthz", nil)
	if err == nil {
		err = statusErr("healthz", code)
	}
	e.tr.end(sid, 0)
	if err != nil {
		return err
	}
	return primePlanners(e, id, []grid{{"mesh", 4, 4}})
}

func (w *serveMix) close() error {
	if w.hs == nil {
		return os.RemoveAll(w.dir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.client.CloseIdleConnections()
	err = errors.Join(err, w.srv.Shutdown(ctx), os.RemoveAll(w.dir))
	return err
}

// do sends one request and returns the status code and body.
func (w *serveMix) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitEvents follows /v1/jobs/{id}/events to its end line; onFrame sees
// the phase of every progress frame. It fails unless the job ends done.
func (w *serveMix) waitEvents(id string, onFrame func(phase string)) error {
	resp, err := w.client.Get(w.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusErr("events "+id, resp.StatusCode); err != nil {
		return err
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var frame struct {
			Phase string `json:"phase"`
			Done  bool   `json:"done"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&frame); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if frame.Done {
			if frame.State != "done" {
				return fmt.Errorf("job %s ended %s: %s", id, frame.State, frame.Error)
			}
			return nil
		}
		if onFrame != nil {
			onFrame(frame.Phase)
		}
	}
}

type submitted struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
}

// submit posts a job or search body to path.
func (w *serveMix) submit(path string, body []byte) (submitted, error) {
	var sub submitted
	code, b, err := w.do(http.MethodPost, path, body)
	if err == nil {
		err = statusErr("submit", code)
	}
	if err == nil {
		err = json.Unmarshal(b, &sub)
	}
	return sub, err
}

// fetch GETs a finished job and returns its result payload.
func (w *serveMix) fetch(id string) ([]byte, error) {
	code, b, err := w.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err == nil {
		err = statusErr("fetch "+id, code)
	}
	if err != nil {
		return nil, err
	}
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	if st.State != "done" || len(st.Result) == 0 {
		return nil, fmt.Errorf("fetch %s: state %s with %d result bytes", id, st.State, len(st.Result))
	}
	return st.Result, nil
}

// jobOutcome is one served job as a client saw it.
type jobOutcome struct {
	key     string
	payload []byte
	total   time.Duration
	err     error
}

// job runs one submit -> wait on /events -> fetch sequence.
func (w *serveMix) job(e *env, body []byte, wantCached bool) jobOutcome {
	label := "cold"
	if wantCached {
		label = "hit"
	}
	t0 := time.Now()
	sub, err := w.submit("/v1/jobs", body)
	t1 := time.Now()
	if err == nil && sub.Cached != wantCached {
		err = fmt.Errorf("job %s: cached=%v, want %v", sub.ID, sub.Cached, wantCached)
	}
	if err == nil {
		err = w.waitEvents(sub.ID, nil)
	}
	t2 := time.Now()
	var payload []byte
	if err == nil {
		payload, err = w.fetch(sub.ID)
	}
	t3 := time.Now()
	root := e.tr.add(0, "serve.job", sub.ID, label, t0, t3)
	e.tr.add(root, "serve.submit", sub.ID, label, t0, t1)
	e.tr.add(root, "serve.wait", sub.ID, label, t1, t2)
	e.tr.add(root, "serve.fetch", sub.ID, label, t2, t3)
	return jobOutcome{key: sub.Key, payload: payload, total: t3.Sub(t0), err: err}
}

// segment runs bodies through serveClients closed-loop clients.
func (w *serveMix) segment(e *env, bodies [][]byte, wantCached bool) []jobOutcome {
	out := make([]jobOutcome, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				out[i] = w.job(e, bodies[i], wantCached)
			}
		}()
	}
	wg.Wait()
	return out
}

// roundJobs returns the distinct job bodies of one round. Seeds are
// distinct across rounds, so every round's keys are new to the cache.
func roundJobs(base int64, round int) ([][]byte, error) {
	designs := []string{"no_pg", "conv_pg", "conv_pg_opt", "nord"}
	warmup := jobWarmup
	bodies := make([][]byte, keysPerRound)
	for i := range bodies {
		req := serve.JobRequest{Kind: "synthetic", Synthetic: &serve.SyntheticSpec{
			Design: designs[i%len(designs)], Width: 4, Height: 4, Pattern: "uniform",
			Rate: jobRates[(i/len(designs))%len(jobRates)], Warmup: &warmup, Measure: jobMeasure,
			Seed: base + int64(round*keysPerRound+i),
		}}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// scrape reads the unlabeled series of /metrics.
func (w *serveMix) scrape() (map[string]float64, error) {
	code, b, err := w.do(http.MethodGet, "/metrics", nil)
	if err == nil {
		err = statusErr("metrics", code)
	}
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func (w *serveMix) measure(e *env, budget time.Duration) error {
	rng := rand.New(rand.NewSource(e.seed))
	base := rng.Int63n(1 << 40)
	before, err := w.scrape()
	if err != nil {
		return err
	}
	var (
		cold, hit, roundRate []float64
		coldPayload          = map[string]string{} // key -> payload digest
		firstRound           []string
		bytesSum, jobsWall   float64 // jobsWall: seconds of the jobs phase
		fetched, distinct    int
	)
	jobsBudget := time.Duration(float64(budget) * jobsShare)
	start := time.Now()
	for round := 0; ; round++ {
		bodies, err := roundJobs(base, round)
		if err != nil {
			return err
		}
		r0 := time.Now()
		colds := w.segment(e, bodies, false)
		var hitBodies [][]byte
		for _, b := range bodies {
			for k := 0; k < hitsPerKey; k++ {
				hitBodies = append(hitBodies, b)
			}
		}
		rng.Shuffle(len(hitBodies), func(i, j int) { hitBodies[i], hitBodies[j] = hitBodies[j], hitBodies[i] })
		hits := w.segment(e, hitBodies, true)
		rd := time.Since(r0).Seconds()
		jobsWall += rd
		roundRate = append(roundRate, float64(len(colds)+len(hits))/rd)
		distinct += len(colds)
		for _, o := range colds {
			if !e.tally.record(o.err) {
				continue
			}
			d := digest(o.payload)
			coldPayload[o.key] = d
			if round == 0 {
				firstRound = append(firstRound, o.key+" "+d)
			}
			cold = append(cold, o.total.Seconds()*1e3)
			bytesSum += float64(len(o.payload))
			fetched++
		}
		for _, o := range hits {
			if o.err == nil {
				o.err = checkDigest("cache hit "+o.key, digest(o.payload), coldPayload[o.key])
			}
			if !e.tally.record(o.err) {
				continue
			}
			hit = append(hit, o.total.Seconds()*1e3)
			bytesSum += float64(len(o.payload))
			fetched++
		}
		if stop(time.Since(start), round+1, jobsBudget) {
			break
		}
	}
	mid, err := w.scrape()
	if err != nil {
		return err
	}
	sims := mid["nord_sims_executed_total"] - before["nord_sims_executed_total"]
	e.tally.record(checkCount("simulations executed by the jobs phase", sims, float64(distinct)))

	front, searchDur, err := w.search(e)
	searchWall := searchDur.Seconds()
	e.tally.record(err)
	after, err := w.scrape()
	if err != nil {
		return err
	}
	searchSims := after["nord_sims_executed_total"] - mid["nord_sims_executed_total"]
	evals := after["nord_search_evaluations_total"] - mid["nord_search_evaluations_total"]
	searchHits := after["nord_search_cache_hits_total"] - mid["nord_search_cache_hits_total"]
	// The determinism repeat of the search runs after the scrape above.
	e.tally.record(w.searchRepeat(front))

	sp := searchSpec(e.seed)
	nodeCycles := float64(distinct)*(jobWarmup+jobMeasure)*jobNodes +
		searchSims*float64(sp.Warmup+sp.Measure)*jobNodes
	total := len(cold) + len(hit)
	e.digest = digest([]byte(strings.Join(firstRound, "\n") + "\n" + string(front)))
	e.e2e["sim_node_cycles_per_s"] = nodeCycles / (jobsWall + searchWall)
	e.e2e["run_ms_gmean"] = geomean(cold)
	e.wl["run_p50_ms"] = percentile(cold, 0.5)
	e.wl["run_p90_ms"] = percentile(cold, 0.9)
	e.e2e["ops_per_s"] = median(roundRate)
	e.wl["job_cold_p50_ms"] = percentile(cold, 0.5)
	e.wl["job_cold_p90_ms"] = percentile(cold, 0.9)
	e.wl["job_hit_p50_ms"] = percentile(hit, 0.5)
	e.wl["jobs_per_s"] = float64(total) / jobsWall
	e.wl["search_evals_per_s"] = evals / searchWall
	e.layer["serve.result_bytes_mean"] = bytesSum / float64(max(fetched, 1))
	hitsDelta := mid["nord_cache_hits_total"] - before["nord_cache_hits_total"]
	missDelta := mid["nord_cache_misses_total"] - before["nord_cache_misses_total"]
	e.layer["serve.cache_hit_ratio"] = hitsDelta / max(hitsDelta+missDelta, 1)
	e.layer["serve.sims_executed"] = sims
	e.layer["serve.rejected"] = after["nord_jobs_rejected_total"] - before["nord_jobs_rejected_total"]
	e.layer["search.evaluations"] = evals
	e.layer["search.cache_hit_ratio"] = searchHits / max(evals, 1)
	return nil
}

// checkCount fails unless a counter has the expected value.
func checkCount(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("%s: got %g, want %g", what, got, want)
	}
	return nil
}

// searchSpec is the seeded NSGA-II search of the search phase, over a
// 4x4 space of every design.
func searchSpec(seed int64) search.Spec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return search.Spec{
		Seed: rng.Int63n(1 << 30), SimSeed: rng.Int63n(1 << 30),
		Generations: 4, Population: 12, Warmup: 300, Measure: 2000,
		Space: search.Space{
			Designs:        []string{"No_PG", "Conv_PG", "Conv_PG_OPT", "NoRD"},
			Topologies:     []string{"mesh"},
			Widths:         []int{4},
			VCs:            []int{3, 4},
			BufferDepths:   []int{3, 5},
			GateIdle:       []int{1, 2},
			WakeThresholds: []int{3, 6},
			Rates:          []float64{0.05, 0.1, 0.2},
		},
	}
}

// runSearch submits the search spec and returns its front (as JSON) when
// it completes; onFrame sees each progress frame.
func (w *serveMix) runSearch(onFrame func(phase string)) ([]byte, error) {
	body, err := json.Marshal(searchSpec(w.seed))
	if err != nil {
		return nil, err
	}
	sub, err := w.submit("/v1/search", body)
	if err != nil {
		return nil, err
	}
	if err := w.waitEvents(sub.ID, onFrame); err != nil {
		return nil, err
	}
	payload, err := w.fetch(sub.ID)
	if err != nil {
		return nil, err
	}
	var res struct {
		Front json.RawMessage `json:"front"`
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, err
	}
	if len(res.Front) == 0 || string(res.Front) == "[]" || string(res.Front) == "null" {
		return nil, errors.New("search: empty Pareto front")
	}
	return res.Front, nil
}

// search runs the measured search and records one span per generation
// (from the previous frame to this one).
func (w *serveMix) search(e *env) ([]byte, time.Duration, error) {
	t0 := time.Now()
	root := e.tr.begin(0, "search.run", "", "")
	last := t0
	front, err := w.runSearch(func(phase string) {
		if phase != "generation" {
			return
		}
		now := time.Now()
		e.tr.add(root, "search.generation", "", "", last, now)
		last = now
	})
	e.tr.end(root, 0)
	return front, time.Since(t0), err
}

// searchRepeat reruns the search (its children now hit the cache) and
// checks that the front is byte-identical.
func (w *serveMix) searchRepeat(front []byte) error {
	if front == nil {
		return errors.New("search repeat skipped: no first front")
	}
	again, err := w.runSearch(nil)
	if err != nil {
		return err
	}
	return checkDigest("repeated search front", digest(again), digest(front))
}
