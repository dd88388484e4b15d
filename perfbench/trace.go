package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Tracing. Every span here is recorded by the benchmark around calls
// into a layer's public functions and hooks; nothing inside the program
// is instrumented. Spans live in memory and are reduced to per-layer
// metrics when the run ends.

// phaseTrace turns scaler.Options.Progress events into spans. Each
// event closes the span that began at the previous event of the same
// search and is charged to the phase the event belongs to.
type phaseTrace struct {
	last, start time.Time
	phase       map[string]time.Duration
	trialMs     []float64 // executed (not memoized) trials
	memoized    int
	covered     time.Duration // start to final, summed over searches
}

func newPhaseTrace() *phaseTrace { return &phaseTrace{phase: map[string]time.Duration{}} }

func (p *phaseTrace) event(ev scaler.ProgressEvent) {
	now := time.Now()
	gap := now.Sub(p.last)
	p.last = now
	switch ev.Kind {
	case "start":
		p.start = now
	case "profile":
		p.phase["profile"] += gap
	case "trial":
		switch {
		case strings.HasPrefix(ev.Label, "uniform "):
			p.phase["prefp"] += gap
		case ev.Label == "final" || strings.HasPrefix(ev.Label, "fallback"):
			p.phase["validation"] += gap
		default:
			p.phase["object"] += gap
		}
		if ev.Memoized {
			p.memoized++
		} else {
			p.trialMs = append(p.trialMs, ms(gap))
		}
	case "object":
		p.phase["object"] += gap
	case "final":
		p.phase["validation"] += gap
		p.covered += now.Sub(p.start)
	}
}

// scalerMetrics reduces the last traced pass. The tracing overhead
// compares traced pass walls with the untraced ones after the first.
func (r *run) scalerMetrics(ps passes) {
	traced, p := ps.traced, ps.traced.phases
	r.m["scaler.profile_s"] = p.phase["profile"].Seconds()
	r.m["scaler.prefp_s"] = p.phase["prefp"].Seconds()
	r.m["scaler.object_s"] = p.phase["object"].Seconds()
	r.m["scaler.validation_s"] = p.phase["validation"].Seconds()
	r.m["scaler.trial_ms_p50"] = median(p.trialMs)
	r.m["scaler.trials_memoized"] = float64(p.memoized)
	r.m["scaler.phase_coverage"] = p.covered.Seconds() / traced.wall.Seconds()
	r.m["trace.overhead_pct"] = 100 * (median(ps.tracedWalls)/median(ps.untraced[1:]) - 1)
	st := traced.cache
	r.m["prog.evalcache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	r.m["runtime.alloc_mb"] = traced.rt.allocBytes / (1 << 20)
	r.m["runtime.gc_cpu_frac"] = ratio(traced.rt.gcCPU, traced.rt.totalCPU)
}

// replayHook charges the wall gap before each runtime event to the
// event's layer: kernels to kir, transfers and conversions to convert.
// The clock starts when the workload's input generator returns; the
// generator's own time is charged to polybench.
type replayHook struct {
	last                       time.Time
	inputs, kernel, htod, dtoh time.Duration
	ops, bytes                 float64
}

// wrap returns a copy of w whose input generator is timed by h.
func (h *replayHook) wrap(w *prog.Workload) *prog.Workload {
	c := *w
	c.MakeInputs = func(set prog.InputSet) map[string][]float64 {
		t := time.Now()
		in := w.MakeInputs(set)
		h.last = time.Now()
		h.inputs += h.last.Sub(t)
		return in
	}
	return &c
}

func (h *replayHook) BufferCreated(*ocl.Buffer) {}

func (h *replayHook) EventRecorded(e ocl.Event) {
	now := time.Now()
	gap := now.Sub(h.last)
	h.last = now
	switch {
	case e.Kind == ocl.EvKernel:
		h.kernel += gap
		h.ops += countOps(e.Counts)
	case e.Dir == ocl.DirDtoH:
		h.dtoh += gap
	default:
		h.htod += gap
	}
	if e.Kind == ocl.EvWrite || e.Kind == ocl.EvRead {
		h.bytes += float64(e.Bytes)
	}
}

func countOps(c kir.Counts) float64 {
	n := c.IntOps + c.ConvOps
	for _, f := range c.Flops {
		n += f
	}
	return n
}

// lowerLayers replays each decision's baseline and chosen configuration
// through prog.Run with a replayHook and times the quality metric
// directly. The replayed quality must reproduce the decision's.
func (r *run) lowerLayers(e env, out []decided) error {
	sys := e.system()
	h := &replayHook{}
	var runWall time.Duration
	var quality []float64
	for _, d := range out {
		w := h.wrap(d.w)
		var res [2]*prog.Result
		for i, cfg := range []*prog.Config{nil, d.sp.Config} {
			t := time.Now()
			rr, err := prog.Run(sys, w, prog.InputDefault, cfg, h)
			runWall += time.Since(t)
			if err != nil {
				return fmt.Errorf("replay %s: %w", d.key(), err)
			}
			res[i] = rr
		}
		var q float64
		quality = append(quality, timeN(5, func() { q = prog.Quality(res[0], res[1]) }))
		r.check(fmt.Sprintf("%.4f", q) == fmt.Sprintf("%.4f", d.sp.Quality()),
			"replay of %s: quality %.4f, decision says %.4f", d.key(), q, d.sp.Quality())
	}
	r.m["prog.run_s"] = runWall.Seconds()
	r.m["prog.quality_us"] = median(quality)
	r.m["polybench.inputs_s"] = h.inputs.Seconds()
	r.m["kir.kernel_s"] = h.kernel.Seconds()
	r.m["kir.ops"] = h.ops
	r.m["kir.ns_per_op"] = ratio(h.kernel.Seconds()*1e9, h.ops)
	r.m["convert.htod_s"] = h.htod.Seconds()
	r.m["convert.dtoh_s"] = h.dtoh.Seconds()
	r.m["convert.bytes"] = h.bytes
	return nil
}

// serviceMetrics reads the fleet's counters and histograms from a
// /metrics scrape of every node, then times the service plane's steps
// in process: request decode, the inspector-DB marshal the fingerprint
// hashes, and fingerprint-only and hit requests on one node's Handler.
func (r *run) serviceMetrics(e env, f *fleet, t *target, sr serveResult) error {
	c := newClient()
	defer c.close()
	tot := map[string]float64{}
	for _, n := range f.nodes {
		m, err := c.scrape(n)
		if err != nil {
			return err
		}
		for k, v := range m {
			tot[k] += v
		}
	}
	meanMs := func(h string) float64 { return 1e3 * ratio(tot[h+"_sum"], tot[h+"_count"]) }
	r.m["service.queue_wait_ms"] = meanMs("service_queue_wait_seconds")
	r.m["service.search_ms"] = meanMs("service_search_seconds")
	r.m["service.coalesced"] = tot[`service_cache{result="coalesced"}`]
	r.m["service.warm_pushes"] = tot[`service_warm{result="stored"}`]
	shed := 0.0
	for k, v := range tot {
		if strings.HasPrefix(k, "service_shed") {
			shed += v
		}
	}
	r.m["service.shed"] = shed
	r.m["service.hit_ratio"] = ratio(float64(sr.cache["hit"]), float64(sr.done))
	r.m["service.remote_ratio"] = ratio(float64(sr.cache["remote"]), float64(sr.done))

	r.m["api.decode_us"] = timeN(2000, func() { api.DecodeScaleRequest(bytes.NewReader(t.req)) })
	fw := core.NewFramework(e.system())
	var db []byte
	r.m["inspect.db_marshal_us"] = timeN(200, func() { db, _ = json.Marshal(fw.DB()) })
	r.m["inspect.db_kb"] = float64(len(db)) / 1024
	h := f.nodes[t.own[0]].srv.Handler()
	inproc := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(t.req)))
		return w
	}
	r.m["service.fingerprint_us"] = timeN(300, func() { inproc("/v1/scale?fingerprint=1") })
	var last *httptest.ResponseRecorder
	r.m["service.hit_handler_us"] = timeN(300, func() { last = inproc("/v1/scale") })
	r.check(last.Code == http.StatusOK && last.Header().Get("X-Cache") == "hit" && bytes.Equal(last.Body.Bytes(), t.body),
		"in-process hit for %s: status %d, X-Cache %q", t.key, last.Code, last.Header().Get("X-Cache"))
	rtt, err := loopbackRTT(2000)
	r.m["net.loopback_rtt_us"] = rtt
	return err
}

// loopbackRTT is the median round trip of one byte over a loopback TCP
// connection: the network floor under a proxy hop.
func loopbackRTT(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := []byte{1}
	var ioErr error
	rtt := timeN(n, func() {
		if _, err := c.Write(buf); err != nil {
			ioErr = err
		} else if _, err := io.ReadFull(c, buf); err != nil {
			ioErr = err
		}
	})
	c.Close()
	<-done
	return rtt, ioErr
}
