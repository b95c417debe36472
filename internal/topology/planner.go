package topology

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Planner implements the offline program of Section 4.4: given a topology, its
// bypass ring, and a candidate set of powered-on routers, it evaluates the
// best achievable average node-to-node distance (hops) and average per-hop
// latency (cycles) over all-pairs min-cycle paths (Figure 6), and searches
// for the performance-centric router set.
//
// Edge admissibility mirrors NoRD connectivity: a link u->v is usable iff
//   - v is powered on (flit enters v's normal pipeline), or
//   - v is powered off and u is v's ring predecessor (flit enters v's
//     Bypass Inport and is forwarded through v's NI).
//
// Additionally a powered-off u can only emit flits on its Bypass Outport.
// Traversing a powered-on router costs PipeOnCycles per hop; bypassing a
// powered-off router costs PipeBypassCycles (2-cycle bypass + 1 LT versus
// the 4-stage pipeline + 1 LT, Section 6.8).
//
// The hop count of a pair is that of the min-cycle path the paper's
// Floyd–Warshall program keeps, which is not always a min-hop path among
// the min-cycle ones; the per-source evaluator reproduces it exactly (see
// DESIGN.md, "Perf-centric planner").
type Planner struct {
	Topo Topology
	Ring *Ring
	// PipeOnCycles is the per-hop latency through a powered-on router
	// (default 5: 4 pipeline stages + link traversal).
	PipeOnCycles int
	// PipeBypassCycles is the per-hop latency through a gated-off
	// router's NI bypass (default 3: 2 bypass stages + link traversal).
	PipeBypassCycles int
}

// NewPlanner returns a planner with the paper's default per-hop costs.
func NewPlanner(t Topology, r *Ring) *Planner {
	return &Planner{Topo: t, Ring: r, PipeOnCycles: 5, PipeBypassCycles: 3}
}

// exhaustiveMaxNodes is the largest network whose best on-set per K is
// found by enumerating every on-set; larger ones use greedy selection.
const exhaustiveMaxNodes = 16

// DefaultK is the size of the performance-centric class the simulator
// uses: 3N/8 routers, the paper's 6 of 16.
func (p *Planner) DefaultK() int { return 3 * p.Topo.N() / 8 }

// totals is an on-set's score: hop counts and cycle latencies summed over
// every ordered node pair. Candidates compare on it as integers; the
// averages Eval reports divide by a pair count that is fixed per network,
// so the order is the same.
type totals struct{ hops, cycles int64 }

// less orders totals as the planner prefers them: fewer hops, then fewer
// cycles.
func (a totals) less(b totals) bool {
	return a.hops < b.hops || (a.hops == b.hops && a.cycles < b.cycles)
}

// averages converts totals to the average distance and per-hop latency.
func (p *Planner) averages(t totals) (avgHops, perHopCycles float64) {
	n := p.Topo.N()
	return float64(t.hops) / float64(n*(n-1)), float64(t.cycles) / float64(t.hops)
}

// Eval computes the average node-to-node distance in hops and the average
// per-hop latency in cycles over all ordered node pairs, given the set of
// powered-on routers. It returns an error only if some pair is unreachable,
// which cannot happen for a valid ring (the ring connects everything).
func (p *Planner) Eval(on []bool) (avgHops, perHopCycles float64, err error) {
	if n := p.Topo.N(); len(on) != n {
		return 0, 0, fmt.Errorf("topology: on-set has %d entries, topology has %d nodes", len(on), n)
	}
	t, err := p.newEvaluator().eval(on)
	if err != nil {
		return 0, 0, err
	}
	avgHops, perHopCycles = p.averages(t)
	return avgHops, perHopCycles, nil
}

// evaluator is one worker's reusable scratch for scoring on-sets. Row s of
// each n×n table holds the pairs (s, v).
type evaluator struct {
	p     *Planner
	n     int
	on    []bool
	nbr   []int32     // 4 neighbours per node, -1 where the port is unwired
	start []int32     // usable links of the current on-set, CSR by source
	links []int32     // target<<1 | cost class (0 on, 1 bypass)
	dist  []int32     // cycles of the min-cycle path
	via   []int32     // k*: least possible largest intermediate node, -1 for the direct link
	hops  []int32     // hops of the path Floyd–Warshall keeps
	order []int32     // pair indices by ascending distance
	count []int32     // distance histogram for the counting sort
	queue [2][]uint64 // per cost class: distance<<32 | node

	// Scratch of flip, allocated on its first call.
	rstart []int32  // usable links CSR by target
	rlinks []int32  // source<<1 | cost class
	col    []int32  // distances to the flipped router
	colVia []int32  // k* to the flipped router (unused)
	mark   []uint32 // gen where the pair is affected in the current flip
	gen    uint32   // flips so far; a planner run makes far fewer than 2^32
	pairs  []int32  // affected pair indices
	seeds  []uint64 // distance<<32 | node offers from unaffected nodes
}

func (p *Planner) newEvaluator() *evaluator {
	n := p.Topo.N()
	e := &evaluator{
		p:     p,
		n:     n,
		on:    make([]bool, n),
		nbr:   make([]int32, 4*n),
		start: make([]int32, n+1),
		links: make([]int32, 0, 4*n),
		dist:  make([]int32, n*n),
		via:   make([]int32, n*n),
		hops:  make([]int32, n*n),
		order: make([]int32, n*n),
	}
	for u := 0; u < n; u++ {
		for d := East; d < Local; d++ {
			v, ok := p.Topo.Neighbor(u, d)
			if !ok {
				v = -1
			}
			e.nbr[4*u+int(d)] = int32(v)
		}
	}
	return e
}

var errCosts = errors.New("topology: planner per-hop cycle costs must be positive")

// inf marks an unreached node.
const inf = int32(1<<31 - 1)

// costs returns the cycles of a link by cost class.
func (e *evaluator) costs() ([2]int32, error) {
	c := [2]int32{int32(e.p.PipeOnCycles), int32(e.p.PipeBypassCycles)}
	if c[0] < 1 || c[1] < 1 {
		return c, errCosts
	}
	return c, nil
}

// link lists the usable links of an on-set, each as node<<1 | cost class.
func (e *evaluator) link(on []bool) {
	ring := e.p.Ring
	e.links = e.links[:0]
	for u := range on {
		e.start[u] = int32(len(e.links))
		if !on[u] {
			// A gated-off router can only emit on its Bypass Outport.
			v := int32(ring.Succ(u))
			if on[v] {
				e.links = append(e.links, v<<1)
			} else {
				e.links = append(e.links, v<<1|1)
			}
			continue
		}
		for _, v := range e.nbr[4*u : 4*u+4] {
			switch {
			case v < 0:
			case on[v]:
				e.links = append(e.links, v<<1)
			case ring.Pred(int(v)) == u:
				// An off router accepts flits only on its Bypass Inport.
				e.links = append(e.links, v<<1|1)
			}
		}
	}
	e.start[len(on)] = int32(len(e.links))
}

// dial fills dist and via from s over the links in CSR form (start,
// links) by Dial's algorithm with one FIFO of (distance, node) offers per
// link cost: nodes settle in distance order, so each FIFO stays sorted and
// the lower head is always the next to settle. It returns the sum and
// maximum of the distances and the number of nodes reached.
func (e *evaluator) dial(costs [2]int32, start, links []int32, s int, dist, via []int32) (sum int64, maxDist int32, settled int) {
	for v := range dist {
		dist[v] = inf
	}
	dist[s], via[s] = 0, -1
	q0, q1 := append(e.queue[0][:0], uint64(s)), e.queue[1][:0]
	for h0, h1 := 0, 0; ; {
		var x uint64
		switch {
		case h0 < len(q0) && (h1 == len(q1) || q0[h0] <= q1[h1]):
			x = q0[h0]
			h0++
		case h1 < len(q1):
			x = q1[h1]
			h1++
		default:
			e.queue = [2][]uint64{q0, q1}
			return sum, maxDist, settled
		}
		u, d := int32(x), int32(x>>32)
		if dist[u] != d {
			continue // superseded by a shorter path
		}
		settled++
		sum += int64(d)
		maxDist = max(maxDist, d)
		m := via[u]
		if int(u) != s && u > m {
			m = u
		}
		for _, l := range links[start[u]:start[u+1]] {
			v, nd := l>>1, d+costs[l&1]
			if nd < dist[v] {
				dist[v], via[v] = nd, m
				if x := uint64(nd)<<32 | uint64(v); l&1 == 0 {
					q0 = append(q0, x)
				} else {
					q1 = append(q1, x)
				}
			} else if nd == dist[v] && m < via[v] {
				via[v] = m
			}
		}
	}
}

// eval scores an on-set. It gives the same totals as Floyd–Warshall with a
// strict "<" update, whose hop count for (u, v) is that of the path found
// at the earliest stage k reaching the final distance: k*(u, v), the least
// largest intermediate node over all min-cycle u->v paths (-1 when the
// direct link is one). Then hops(u, v) is 1 for k* = -1 and otherwise
// hops(u, k*) + hops(k*, v), two pairs strictly closer than (u, v).
//
// One shortest-path pass per source finds dist and k*: a node u settled
// with k*(s, u) offers its successors max(k*(s, u), u) (or -1 from s
// itself), and an equal-distance relaxation keeps the smaller offer. The
// hop counts are then resolved over all pairs in ascending distance.
func (e *evaluator) eval(on []bool) (totals, error) {
	n := e.n
	costs, err := e.costs()
	if err != nil {
		return totals{}, err
	}
	e.link(on)
	var t totals
	var maxDist int32
	for s := 0; s < n; s++ {
		sum, m, settled := e.dial(costs, e.start, e.links, s, e.dist[s*n:(s+1)*n], e.via[s*n:(s+1)*n])
		if settled < n {
			return totals{}, errUnreachable(slices.Index(e.dist[s*n:(s+1)*n], inf), s)
		}
		t.cycles += sum
		maxDist = max(maxDist, m)
	}

	// Hops, resolved in ascending distance (a stable counting sort).
	count := e.histogram(maxDist)
	for _, d := range e.dist {
		count[d+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for i, d := range e.dist {
		e.order[count[d]] = int32(i)
		count[d]++
	}
	// The first n entries are the diagonal, the only zero distances.
	for _, i := range e.order[n:] {
		h := int32(1)
		if k := e.via[i]; k >= 0 {
			u, v := int(i)/n, int(i)%n
			h = e.hops[u*n+int(k)] + e.hops[int(k)*n+v]
		}
		e.hops[i] = h
		t.hops += int64(h)
	}
	return t, nil
}

// histogram returns a cleared count table for distances up to maxDist,
// offset by one for the prefix sums of a counting sort.
func (e *evaluator) histogram(maxDist int32) []int32 {
	if need := int(maxDist) + 2; cap(e.count) < need {
		e.count = make([]int32, need)
	}
	count := e.count[:maxDist+2]
	clear(count)
	return count
}

// errUnreachable reports a pair with no path, which a valid ring rules
// out.
func errUnreachable(v, s int) error {
	return fmt.Errorf("topology: node %d unreachable from %d", v, s)
}

// flip scores b's on-set plus router c, which b has off, from b's tables
// and totals (b must hold eval(b.on)). Only links into and out of c
// change, so a pair (s, x) can change only if c lies on one of its
// min-cycle paths before the flip (dB(s,c) + dB(c,x) = dB(s,x)) or on a
// path after it no longer than before (d'(s,c) + d'(c,x) <= dB(s,x)); row
// c and column c are always affected. Every other pair keeps its min-cycle
// paths, hence its dist, k* and hops. The sub-pairs and DAG predecessors
// of such a pair lie on its min paths, so they are unaffected too, and
// each row's affected nodes can be solved by Dial seeded from their
// unaffected in-neighbours (DESIGN.md §15).
func (e *evaluator) flip(b *evaluator, bt totals, c int) (totals, error) {
	n := e.n
	costs, err := e.costs()
	if err != nil {
		return totals{}, err
	}
	if e.mark == nil {
		e.rstart = make([]int32, n+1)
		e.col = make([]int32, n)
		e.colVia = make([]int32, n)
		e.mark = make([]uint32, n*n)
		e.pairs = make([]int32, 0, n*n)
	}
	e.gen++
	gen := e.gen
	copy(e.on, b.on)
	e.on[c] = true
	e.link(e.on)
	e.reverse()

	// Row c from scratch, then the distances into c over reversed links.
	rc := e.dist[c*n : (c+1)*n]
	_, maxDist, settled := e.dial(costs, e.start, e.links, c, rc, e.via[c*n:(c+1)*n])
	if settled < n {
		return totals{}, errUnreachable(slices.Index(rc, inf), c)
	}
	if _, _, settled := e.dial(costs, e.rstart, e.rlinks, c, e.col, e.colVia); settled < n {
		return totals{}, errUnreachable(c, slices.Index(e.col, inf))
	}
	pairs := e.pairs[:0]
	for x := range rc {
		if x != c {
			e.mark[c*n+x] = gen
			pairs = append(pairs, int32(c*n+x))
		}
	}

	dc := b.dist[c*n : (c+1)*n]
	q0, q1 := e.queue[0], e.queue[1]
	for s := 0; s < n; s++ {
		if s == c {
			continue
		}
		row := s * n
		bd, bv := b.dist[row:row+n], b.via[row:row+n]
		dist, via, mark := e.dist[row:row+n], e.via[row:row+n], e.mark[row:row+n]
		first := len(pairs)
		dsc, dcs := bd[c], e.col[s]
		for x, d := range bd {
			// x = c passes the first test, as dB(c,c) = 0.
			if dsc+dc[x] == d || dcs+rc[x] <= d {
				mark[x] = gen
				pairs = append(pairs, int32(row+x))
			}
		}

		// Seed each affected node with its best offer from unaffected
		// in-neighbours, whose paths are final; s itself is one of them.
		seeds := e.seeds[:0]
		for _, i := range pairs[first:] {
			x := i - int32(row)
			d, k := inf, int32(0)
			for _, l := range e.rlinks[e.rstart[x]:e.rstart[x+1]] {
				u := l >> 1
				if mark[u] == gen {
					continue
				}
				du, m := bd[u]+costs[l&1], bv[u]
				if int(u) != s && u > m {
					m = u
				}
				if du < d || du == d && m < k {
					d, k = du, m
				}
			}
			dist[x], via[x] = d, k
			if d < inf {
				seeds = append(seeds, uint64(d)<<32|uint64(x))
			}
		}
		slices.Sort(seeds)
		e.seeds = seeds

		// Dial over the affected nodes, merging the sorted seeds with the
		// two cost FIFOs.
		q0, q1 = q0[:0], q1[:0]
		settled := 0
	settle:
		for h, h0, h1 := 0, 0, 0; ; {
			var x uint64
			switch {
			case h < len(seeds) && (h0 == len(q0) || seeds[h] <= q0[h0]) && (h1 == len(q1) || seeds[h] <= q1[h1]):
				x = seeds[h]
				h++
			case h0 < len(q0) && (h1 == len(q1) || q0[h0] <= q1[h1]):
				x = q0[h0]
				h0++
			case h1 < len(q1):
				x = q1[h1]
				h1++
			default:
				break settle
			}
			u, d := int32(x), int32(x>>32)
			if dist[u] != d {
				continue // superseded by a shorter path
			}
			settled++
			maxDist = max(maxDist, d)
			m := max(via[u], u) // u != s: s is never affected
			for _, l := range e.links[e.start[u]:e.start[u+1]] {
				v := l >> 1
				if mark[v] != gen {
					continue
				}
				if nd := d + costs[l&1]; nd < dist[v] {
					dist[v], via[v] = nd, m
					if x := uint64(nd)<<32 | uint64(v); l&1 == 0 {
						q0 = append(q0, x)
					} else {
						q1 = append(q1, x)
					}
				} else if nd == dist[v] && m < via[v] {
					via[v] = m
				}
			}
		}
		if settled < len(pairs)-first {
			for _, i := range pairs[first:] {
				if e.dist[i] == inf {
					return totals{}, errUnreachable(int(i)-row, s)
				}
			}
		}
	}
	e.queue = [2][]uint64{q0, q1}
	e.pairs = pairs

	// Hops of the affected pairs in ascending new distance; a sub-pair is
	// either affected and already resolved, or keeps its base hops.
	count := e.histogram(maxDist)
	for _, i := range pairs {
		count[e.dist[i]+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for _, i := range pairs {
		d := e.dist[i]
		e.order[count[d]] = i
		count[d]++
	}
	t := bt
	for _, i := range e.order[:len(pairs)] {
		h := int32(1)
		if k := e.via[i]; k >= 0 {
			u, v := int(i)/n, int(i)%n
			h = e.hop(b, u*n+int(k)) + e.hop(b, int(k)*n+v)
		}
		e.hops[i] = h
		t.hops += int64(h - b.hops[i])
		t.cycles += int64(e.dist[i] - b.dist[i])
	}
	return t, nil
}

// hop returns the hops of pair i during a flip from b.
func (e *evaluator) hop(b *evaluator, i int) int32 {
	if e.mark[i] == e.gen {
		return e.hops[i]
	}
	return b.hops[i]
}

// reverse builds the reversed CSR (rstart, rlinks) of the current links.
func (e *evaluator) reverse() {
	n := e.n
	clear(e.rstart)
	for _, l := range e.links {
		e.rstart[l>>1+1]++
	}
	for v := 1; v <= n; v++ {
		e.rstart[v] += e.rstart[v-1]
	}
	if cap(e.rlinks) < len(e.links) {
		e.rlinks = make([]int32, len(e.links), cap(e.links))
	}
	e.rlinks = e.rlinks[:len(e.links)]
	// rstart[v] serves as v's fill cursor, ending at the start of v+1.
	for u := 0; u < n; u++ {
		for _, l := range e.links[e.start[u]:e.start[u+1]] {
			v := l >> 1
			e.rlinks[e.rstart[v]] = int32(u)<<1 | l&1
			e.rstart[v]++
		}
	}
	copy(e.rstart[1:], e.rstart[:n])
	e.rstart[0] = 0
}

// evaluators returns one evaluator per worker.
func (p *Planner) evaluators() []*evaluator {
	ws := make([]*evaluator, runtime.GOMAXPROCS(0))
	for i := range ws {
		ws[i] = p.newEvaluator()
	}
	return ws
}

// best scores candidates 0..m-1 across the workers and returns the one with
// the lowest (totals, index), so the result is the first-wins choice of a
// serial scan. score rates candidate i on a worker's evaluator; ctx is
// checked before every candidate, and a panicking score is returned as the
// step's error.
func best(ctx context.Context, ws []*evaluator, m int, score func(e *evaluator, i int) (totals, error)) (int, totals, error) {
	type result struct {
		i   int
		t   totals
		err error
	}
	res := make([]result, min(len(ws), m))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range res {
		wg.Add(1)
		go func(e *evaluator, r *result) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					r.err = fmt.Errorf("topology: planner panicked: %v", v)
				}
			}()
			r.i = -1
			// Each worker takes indices in increasing order, so a strict
			// "<" keeps its lowest index among equal totals.
			for i := int(next.Add(1) - 1); i < m; i = int(next.Add(1) - 1) {
				if r.err = ctx.Err(); r.err != nil {
					return
				}
				t, err := score(e, i)
				if err != nil {
					r.err = err
					return
				}
				if r.i < 0 || t.less(r.t) {
					r.i, r.t = i, t
				}
			}
		}(ws[w], &res[w])
	}
	wg.Wait()
	b := result{i: -1}
	for _, r := range res {
		if r.err != nil {
			return -1, totals{}, r.err
		}
		if r.i >= 0 && (b.i < 0 || r.t.less(b.t) || (r.t == b.t && r.i < b.i)) {
			b = r
		}
	}
	return b.i, b.t, nil
}

// TradeoffPoint is one point of the Figure 6 curve: with K routers
// powered on, the best achievable average distance and the per-hop latency
// of that configuration.
type TradeoffPoint struct {
	K            int
	OnSet        []int
	AvgHops      float64
	PerHopCycles float64
}

// Tradeoff computes the Figure 6 curve for K = 0..N powered-on routers.
// For networks up to 16 nodes the best on-set per K is found exhaustively
// (as the paper's offline program can); for larger networks a greedy
// forward-selection is used. The returned points are ordered by K.
func (p *Planner) Tradeoff() ([]TradeoffPoint, error) {
	ctx := context.Background()
	n := p.Topo.N()
	ws := p.evaluators()
	if n <= exhaustiveMaxNodes {
		points := make([]TradeoffPoint, n+1)
		for k := range points {
			mask, t, err := p.exhaustive(ctx, ws, k)
			if err != nil {
				return nil, err
			}
			h, c := p.averages(t)
			points[k] = TradeoffPoint{K: k, OnSet: maskToSet(mask), AvgHops: h, PerHopCycles: c}
		}
		return points, nil
	}
	t, err := ws[0].eval(make([]bool, n))
	if err != nil {
		return nil, err
	}
	h, c := p.averages(t)
	points := []TradeoffPoint{{K: 0, AvgHops: h, PerHopCycles: c}}
	chosen := make([]int, 0, n)
	err = p.greedy(ctx, ws, n, func(v int, t totals) {
		chosen = append(chosen, v)
		set := append([]int(nil), chosen...)
		sort.Ints(set)
		h, c := p.averages(t)
		points = append(points, TradeoffPoint{K: len(set), OnSet: set, AvgHops: h, PerHopCycles: c})
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// exhaustive returns the best on-set of exactly k routers as a bit mask,
// scanning the masks of popcount k in increasing order (first wins).
func (p *Planner) exhaustive(ctx context.Context, ws []*evaluator, k int) (uint32, totals, error) {
	n := p.Topo.N()
	var masks []uint32
	// Gosper's hack: the next larger mask with the same popcount.
	for m := uint32(1)<<k - 1; m < 1<<n; {
		masks = append(masks, m)
		if m == 0 {
			break
		}
		c := m & -m
		r := m + c
		m = (r^m)>>2/c | r
	}
	i, t, err := best(ctx, ws, len(masks), func(e *evaluator, i int) (totals, error) {
		for v := range e.on {
			e.on[v] = masks[i]>>v&1 != 0
		}
		return e.eval(e.on)
	})
	if err != nil {
		return 0, totals{}, err
	}
	return masks[i], t, nil
}

// greedy turns on k routers one at a time, each time the off router whose
// addition gives the lowest (totals, id), and reports every pick in order.
// Each step evaluates its base on-set once; the candidates are scored from
// it by flip.
func (p *Planner) greedy(ctx context.Context, ws []*evaluator, k int, pick func(v int, t totals)) error {
	n := p.Topo.N()
	base := p.newEvaluator()
	on := base.on
	cands := make([]int, 0, n)
	for step := 0; step < k; step++ {
		bt, err := base.eval(on)
		if err != nil {
			return err
		}
		cands = cands[:0]
		for v := range on {
			if !on[v] {
				cands = append(cands, v)
			}
		}
		i, t, err := best(ctx, ws, len(cands), func(e *evaluator, i int) (totals, error) {
			return e.flip(base, bt, cands[i])
		})
		if err != nil {
			return err
		}
		on[cands[i]] = true
		pick(cands[i], t)
	}
	return nil
}

// GreedySet grows a performance-centric set of exactly k routers by
// greedy forward-selection (adding whichever router most reduces the
// average distance), without evaluating the full trade-off curve. For
// networks beyond the exhaustive planner's reach this is the practical way
// to pick the Section 4.4 class. Each step's candidates are scored in
// parallel; ctx is checked between candidates and its error returned.
func (p *Planner) GreedySet(ctx context.Context, k int) ([]int, error) {
	n := p.Topo.N()
	if k < 0 || k > n {
		return nil, fmt.Errorf("topology: greedy set size %d out of range [0,%d]", k, n)
	}
	chosen := make([]int, 0, k)
	if err := p.greedy(ctx, p.evaluators(), k, func(v int, _ totals) { chosen = append(chosen, v) }); err != nil {
		return nil, err
	}
	sort.Ints(chosen)
	return chosen, nil
}

// PerformanceCentric selects the K-router performance-centric class for
// asymmetric wakeup thresholds (Section 4.4): the best K-router on-set by
// exhaustive search for networks up to 16 nodes, otherwise GreedySet. For
// the paper's 4x4 example K=6 is the knee of the Figure 6 curve (see
// DefaultK).
func (p *Planner) PerformanceCentric(ctx context.Context, k int) ([]int, error) {
	n := p.Topo.N()
	if k < 0 || k > n {
		return nil, fmt.Errorf("topology: performance-centric set size %d out of range [0,%d]", k, n)
	}
	if n > exhaustiveMaxNodes {
		return p.GreedySet(ctx, k)
	}
	mask, _, err := p.exhaustive(ctx, p.evaluators(), k)
	if err != nil {
		return nil, err
	}
	return maskToSet(mask), nil
}

// Knee picks the K whose point maximises the distance-reduction per
// latency-increase trade-off: the largest K such that adding routers past
// it improves average distance by less than minGain hops. It is a simple
// automated stand-in for the paper's visual selection of 6 routers.
func Knee(points []TradeoffPoint, minGain float64) int {
	for k := 1; k < len(points); k++ {
		if points[k-1].AvgHops-points[k].AvgHops < minGain {
			return k - 1
		}
	}
	return len(points) - 1
}

func maskToSet(mask uint32) []int {
	var out []int
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		out = append(out, v)
		mask &^= 1 << v
	}
	return out
}
