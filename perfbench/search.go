package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// item is one decision request: a benchmark at a TOQ, default inputs,
// on the target system.
type item struct {
	bench string
	toq   float64
}

func (it item) key() string { return fmt.Sprintf("%s@%.2f", it.bench, it.toq) }

// decided is one decision of a cold pass.
type decided struct {
	item
	wall time.Duration // the Scale call alone
	w    *prog.Workload
	sp   *core.ScaledProgram
	body []byte
}

// pass is one cold pass over a list of items.
type pass struct {
	wall   time.Duration // the items' own time, collections between them left out
	out    []decided
	cache  prog.EvalStats
	rt     runtimeDelta
	phases *phaseTrace // nil when untraced
}

// coldPass scales every item in order with the paper's default options
// (TOQ from the item, default inputs, Retries 2) at Workers=1, on a
// fresh framework and freshly built workloads. With shareCache the
// items of one benchmark share one EvalCache, as the service's searches
// do; otherwise every search gets its own.
//
// Each item starts on a collected heap, so that its time does not
// depend on the garbage the items before it left, which the seeded
// order changes: without it, the median per-decision time of
// search-suite spread 0.23 over five seeds, against 0.15 for the pass.
func coldPass(e env, items []item, shareCache, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		p.phases = newPhaseTrace()
	}
	var shared map[string]*prog.EvalCache
	if shareCache {
		shared = map[string]*prog.EvalCache{}
	}
	rt0 := sampleRuntime()
	fw := core.NewFramework(e.system())
	for _, it := range items {
		runtime.GC()
		start := time.Now()
		w := e.lookup(it.bench)
		if w == nil {
			return nil, fmt.Errorf("unknown benchmark %s", it.bench)
		}
		opts := scaler.DefaultOptions()
		opts.TOQ, opts.Workers = it.toq, 1
		c := shared[it.bench]
		if c == nil {
			c = prog.NewEvalCache()
			if shared != nil {
				shared[it.bench] = c
			}
		}
		opts.EvalCache = c
		if traced {
			opts.Progress = p.phases.event
		}
		before := c.Stats()
		t := time.Now()
		sp, err := fw.Scale(context.Background(), w, opts)
		d := time.Since(t)
		if err != nil {
			return nil, err
		}
		after := c.Stats()
		p.cache.Hits += after.Hits - before.Hits
		p.cache.Misses += after.Misses - before.Misses
		var buf bytes.Buffer
		if err := api.EncodeDecision(&buf, api.NewDecision(fw.System(), w, sp.Search, opts.TOQ, opts.InputSet)); err != nil {
			return nil, err
		}
		p.out = append(p.out, decided{item: it, wall: d, w: w, sp: sp, body: buf.Bytes()})
		p.wall += time.Since(start)
	}
	p.rt = sampleRuntime().since(rt0)
	return p, nil
}

// passOrder is the seeded benchmark order of pass i. Decisions must not
// depend on it; the digests check that they do not.
func passOrder(seed int64, i int, items []item) []item {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	out := make([]item, len(items))
	for j, k := range rng.Perm(len(items)) {
		out[j] = items[k]
	}
	return out
}

// checkDecision compares a decision body with its recorded digest and,
// for TOQ 0.90, with the prescaler columns of the fig9 results.
func (r *run) checkDecision(it item, body []byte) {
	sum := fmt.Sprintf("%x", sha256.Sum256(body))
	want := r.cfg.expect[it.key()]
	r.check(want == sum, "decision %s: digest %.12s, expected %.12s", it.key(), sum, want)
	row, ok := r.cfg.fig9[it.bench]
	if !ok || it.toq != 0.90 {
		return
	}
	rep, err := decisionReport(body)
	got := fmt.Sprintf("%.2f,%.4f,%d", rep.Speedup, rep.Quality, rep.Trials)
	r.check(err == nil && got == row, "decision %s: speedup,quality,trials %s, fig9 has %s", it.key(), got, row)
}

// decisionReport parses the search report out of a decision body.
func decisionReport(body []byte) (api.SearchReport, error) {
	var d api.Decision
	err := json.Unmarshal(body, &d)
	return d.Search, err
}

// publish stores every decision of a pass on both of its owners through
// the warm-push route, then reads it back from each owner: the stored
// bodies must equal the decision the pass computed.
func publish(r *run, f *fleet, out []decided) ([]*target, error) {
	c := newClient()
	defer c.close()
	var ts []*target
	for _, d := range out {
		t := &target{key: d.key(), req: scaleRequest(d.bench, d.toq), body: d.body}
		id, _, err := c.fingerprint(f.nodes[0], t.req)
		if err != nil {
			return nil, err
		}
		t.id = id
		t.own, t.other = f.owners(id)
		for _, i := range t.own {
			if err := c.warm(f.nodes[i], id, d.body); err != nil {
				return nil, err
			}
			rep, err := c.decision(f.nodes[i], id)
			r.check(err == nil && rep.status == http.StatusOK && bytes.Equal(rep.body, d.body),
				"decision %s on owner %s not byte-identical to the computed body", t.key, f.nodes[i].addr)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// warmUp is the serve workload's cold pass: every hot item is requested
// once, in order, through node 0 of the fleet. It returns once both
// owners of every decision hold it.
func warmUp(r *run, f *fleet, items []item) ([]*target, time.Duration, error) {
	c := newClient()
	defer c.close()
	var ts []*target
	start := time.Now()
	for _, it := range items {
		t := &target{key: it.key(), req: scaleRequest(it.bench, it.toq)}
		rep, err := c.scale(f.nodes[0], t.req)
		if err != nil {
			return nil, 0, err
		}
		if rep.status != http.StatusOK {
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %s", t.key, rep.status, rep.body)
		}
		t.id, t.body = rep.id, rep.body
		t.own, t.other = f.owners(t.id)
		r.checkDecision(it, rep.body)
		ts = append(ts, t)
	}
	wall := time.Since(start)
	for _, t := range ts {
		for _, i := range t.own {
			cached := false
			for try := 0; try < 250 && !cached; try++ {
				if _, cached, _ = c.fingerprint(f.nodes[i], t.req); !cached {
					time.Sleep(20 * time.Millisecond)
				}
			}
			r.check(cached, "hot decision %s never reached owner %s", t.key, f.nodes[i].addr)
		}
	}
	return ts, wall, nil
}

// readFig9 loads the prescaler columns of a fig9 results CSV as
// "speedup,quality,trials" per benchmark.
func readFig9(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil || len(rows) == 0 {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	for _, h := range []string{"benchmark", "prescaler", "prescaler quality", "trials"} {
		if _, ok := col[h]; !ok {
			return nil, fmt.Errorf("%s: no %q column", path, h)
		}
	}
	out := map[string]string{}
	for _, row := range rows[1:] {
		if row[col["trials"]] == "" {
			continue // the geomean row
		}
		out[row[col["benchmark"]]] = strings.Join([]string{
			row[col["prescaler"]], row[col["prescaler quality"]], row[col["trials"]]}, ",")
	}
	return out, nil
}

// runtimeDelta is Go runtime activity over an interval.
type runtimeDelta struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i := range s {
		s[i].Name = runtimeMetrics[i]
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeDelta{v[0], v[1], v[2]}
}

func (a runtimeDelta) since(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
