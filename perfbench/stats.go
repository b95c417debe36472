package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least a share p of all samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples for an even count. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive samples, or 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), in which the benchmark's stability rule is
// stated. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// digest returns the hex sha256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tally counts attempted and failed operations. An operation is one call
// into the program (a simulation run, an HTTP request sequence for one
// job) or one workload-level correctness check; it fails when its error
// is non-nil.
type tally struct {
	attempted, failed int
	notes             []string // the first maxNotes failures, for the report
}

const maxNotes = 10

// record counts one operation and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, err.Error())
	}
	return false
}

// errStatus is a non-2xx HTTP response. Refusals (429 queue full) are
// failures too: the caller did not get its result.
type errStatus struct {
	op   string
	code int
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("%s: HTTP %d %s", e.op, e.code, http.StatusText(e.code))
}

// statusErr returns nil for a 2xx status code and an *errStatus otherwise.
func statusErr(op string, code int) error {
	if code >= 200 && code < 300 {
		return nil
	}
	return &errStatus{op: op, code: code}
}

// errDigest is a simulated-result digest that differs from the one it
// must equal: a recorded baseline, an earlier repeat of the same run, or
// the cold payload of a cache hit.
var errDigest = errors.New("digest mismatch")

// checkDigest returns nil when got equals want, and an error wrapping
// errDigest that names what was compared otherwise.
func checkDigest(what, got, want string) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: %w: got %.16s, want %.16s", what, errDigest, got, want)
}
