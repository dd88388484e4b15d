package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"time"
)

// Request classes of the closed loop. A hit enters at an owner of a
// cached decision, a proxy at the node that does not own it (one hop to
// a peer, X-Cache: remote), and a miss carries a fingerprint the fleet
// has never seen.
type class int

const (
	classHit class = iota
	classProxy
	classMiss
)

// Mix: hot decisions are entered at an owner two times in three, which
// is the share a uniformly chosen entry node would give with two owners
// out of three nodes, but fixed by the seed instead of by where the
// ring places each fingerprint (which moves with the ports when the
// fleet has to fall back to ephemeral ones).
const hitShare = 2.0 / 3

// target is one decision the fleet holds.
type target struct {
	key   string
	req   []byte
	id    string
	own   [replication]int
	other int
	body  []byte
}

// request is one generated request; entry is an owner slot for hits, a
// node index for misses, and unused for proxies.
type request struct {
	cls   class
	hot   int // index into the hot targets (hit and proxy)
	bench string
	toq   float64
	entry int
}

// generator yields the closed loop's seeded request sequence. Sweep
// TOQs are drawn without repeats from the 1e-5 grid in [0.80, 0.99),
// minus the hot-set TOQs, so every miss is a fingerprint never
// requested before. The grid outlasts any window: a fast run sends
// ~2,300 sweeps in 40 s.
type generator struct {
	rng        *rand.Rand
	hot        int
	benches    []string
	sweepShare float64
	toqs       []int
}

func newGenerator(seed int64, hot int, benches []string, sweepShare float64) *generator {
	g := &generator{
		rng: rand.New(rand.NewSource(seed * 1_000_003)), hot: hot,
		benches: benches, sweepShare: sweepShare,
	}
	if sweepShare > 0 {
		g.toqs = g.rng.Perm(19000)
	}
	return g
}

func (g *generator) next() request {
	if g.sweepShare > 0 && g.rng.Float64() < g.sweepShare && len(g.toqs) > 0 {
		k := g.toqs[0]
		g.toqs = g.toqs[1:]
		if k%5000 == 0 { // a hot-set TOQ
			return g.next()
		}
		return request{
			cls: classMiss, bench: g.benches[g.rng.Intn(len(g.benches))],
			toq: float64(80000+k) / 100000, entry: g.rng.Intn(fleetSize),
		}
	}
	r := request{hot: g.rng.Intn(g.hot), cls: classProxy}
	if g.rng.Float64() < hitShare {
		r.cls, r.entry = classHit, g.rng.Intn(replication)
	}
	return r
}

// sequenceDigest hashes the first n requests of the sequence. Two calls
// with the same arguments must agree: the request sequence is a function
// of the seed alone.
func sequenceDigest(seed int64, hot int, benches []string, sweepShare float64, n int) string {
	h := sha256.New()
	g := newGenerator(seed, hot, benches, sweepShare)
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%+v\n", g.next())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// serveResult is what the closed loop measured.
type serveResult struct {
	lat    [3][]sample // per class
	done   int
	wall   time.Duration
	cache  map[string]int // X-Cache header counts
	sweeps map[string][]byte
	recent []string // sweep decision ids, latest first
}

// serve runs the closed loop against f for d. It has one client, which
// waits for each reply before it sends the next request, as a
// prescaler -daemon caller does. Latency is then the fleet's service
// time and no queueing behind other clients: on the 2-vCPU VM this
// benchmark was tuned on, four clients set a hit p99 of ~10 ms whose
// run-to-run spread exceeded 0.25, and one client sets 1.1 to 2.3 ms,
// as the VM runs fast or slow, with spreads of 0.04 to 0.13.
//
// Every reply is checked: a hot request must return its decision's
// exact body from the cache it was routed to, and replies sharing a
// decision id must be identical.
func serve(r *run, f *fleet, hot []*target, benches []string, sweepShare float64, d time.Duration) serveResult {
	res := serveResult{cache: map[string]int{}, sweeps: map[string][]byte{}}
	cl := newClient()
	defer cl.close()
	g := newGenerator(r.cfg.seed, len(hot), benches, sweepShare)
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		q := g.next()
		var entry *node
		var body []byte
		var t *target
		switch q.cls {
		case classMiss:
			entry, body = f.nodes[q.entry], scaleRequest(q.bench, q.toq)
		case classHit:
			t = hot[q.hot]
			entry, body = f.nodes[t.own[q.entry]], t.req
		case classProxy:
			t = hot[q.hot]
			entry, body = f.nodes[t.other], t.req
		}
		t0 := time.Now()
		rep, err := cl.scale(entry, body)
		done := time.Now()
		r.attempted++
		switch {
		case err != nil:
			r.fail("serve: %v", err)
			continue
		case rep.status != http.StatusOK:
			r.fail("serve: status %d: %s", rep.status, rep.body)
			continue
		}
		res.cache[rep.cache]++
		res.lat[q.cls] = append(res.lat[q.cls], sample{at: done.Sub(start), ms: ms(done.Sub(t0))})
		if t == nil {
			if prev, ok := res.sweeps[rep.id]; ok && !bytes.Equal(prev, rep.body) {
				r.fail("serve: sweep decision %s changed between replies", rep.id)
			}
			res.sweeps[rep.id] = rep.body
			res.recent = append(res.recent, rep.id)
			continue
		}
		want := [...]string{classHit: "hit", classProxy: "remote"}[q.cls]
		if rep.id != t.id || !bytes.Equal(rep.body, t.body) || rep.cache != want {
			r.fail("serve: %s via node %s: id %s cache %q (want %s), body identical %v",
				t.key, entry.addr, rep.id, rep.cache, want, bytes.Equal(rep.body, t.body))
		}
	}
	res.wall = time.Since(start)
	for _, l := range res.lat {
		res.done += len(l)
	}
	slices.Reverse(res.recent)
	return res
}

// sample is one completed request: when it completed, relative to the
// start of the loop, and its latency.
type sample struct {
	at time.Duration
	ms float64
}

// Segments: the closed-loop figures are computed on each quarter of the
// window separately and reported as the median of the four, so that one
// burst of CPU steal on a shared machine moves a tail percentile of one
// segment, not of the run.
const segments = 4

// segmented applies fn to the latencies of each segment of a window of
// length wall and returns the median of the results.
func segmented(xs []sample, wall time.Duration, fn func([]float64) float64) float64 {
	per := make([][]float64, segments)
	for _, x := range xs {
		i := min(int(x.at*segments/wall), segments-1)
		per[i] = append(per[i], x.ms)
	}
	out := make([]float64, segments)
	for i, p := range per {
		out[i] = fn(p)
	}
	return median(out)
}

// percentile returns a function computing the q-quantile.
func percentile(q float64) func([]float64) float64 {
	return func(xs []float64) float64 { return quantile(xs, q) }
}

// rate is completed requests per second, the median over segments.
func (sr serveResult) rate() float64 {
	var all []sample
	for _, l := range sr.lat {
		all = append(all, l...)
	}
	seg := sr.wall.Seconds() / segments
	return segmented(all, sr.wall, func(xs []float64) float64 { return float64(len(xs)) / seg })
}

// checkReplicas fetches the n latest sweep decisions (older ones may
// have left the nodes' LRU caches) from both of their owners and
// requires the stored bodies to equal the one served. The replica copy
// arrives by asynchronous warm push, so each fetch retries briefly.
func checkReplicas(r *run, f *fleet, sr serveResult, n int) {
	ids := sr.recent
	if len(ids) > n {
		ids = ids[:n]
	}
	c := newClient()
	defer c.close()
	for _, id := range ids {
		own, _ := f.owners(id)
		for _, i := range own {
			var rep *reply
			var err error
			for try := 0; try < 50; try++ {
				if rep, err = c.decision(f.nodes[i], id); err == nil && rep.status == http.StatusOK {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			r.check(err == nil && rep.status == http.StatusOK && bytes.Equal(rep.body, sr.sweeps[id]),
				"sweep decision %s on owner %s missing or not byte-identical to the served body", id, f.nodes[i].addr)
		}
	}
}
