// Command perfbench is the repository benchmark: it measures PreScaler's
// time to a decision, cold from the library and warm from a prescalerd
// fleet, and checks every decision it is given. See README.md.
//
//	go run . --root .. --workload search-suite --seed 1 --seconds 40 --trace 0
//
// It runs from the repository root (or with --root), prints one line
// per metric with its unit and direction, and ends with one JSON line.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/prog"
)

// env resolves benchmarks and the target system. The self-test swaps in
// polybench.SmallSuite sizes.
type env struct {
	lookup func(string) *prog.Workload
	system func() *hw.System
}

var fullEnv = env{lookup: polybench.ByName, system: hw.System1}

func smallEnv() env {
	// The service builds a fresh workload per request; so does this.
	return env{system: hw.System1, lookup: func(name string) *prog.Workload {
		for _, w := range polybench.SmallSuite() {
			if w.Name == strings.ToUpper(name) {
				return w
			}
		}
		return nil
	}}
}

// workload is one benchmark workload.
type workload struct {
	items []item
	// viaFleet runs the cold pass as requests to the fleet (the
	// warm-up of a serving fleet) instead of core.Framework.Scale calls.
	viaFleet bool
	// sweepShare is the share of closed-loop requests that carry a
	// fresh TOQ, so the fleet has to search.
	sweepShare float64
}

var (
	hotBenches = []string{"GEMM", "SYRK", "SYR2K", "3MM"}
	hotTOQs    = []float64{0.80, 0.85, 0.90, 0.95}
)

func at(toq float64, benches ...string) []item {
	out := make([]item, len(benches))
	for i, b := range benches {
		out[i] = item{b, toq}
	}
	return out
}

func hotItems() []item {
	var out []item
	for _, b := range hotBenches {
		for _, q := range hotTOQs {
			out = append(out, item{b, q})
		}
	}
	return out
}

var workloads = map[string]workload{
	"search-suite": {items: at(0.90, polybench.Names()...)},
	"serve-fleet":  {items: hotItems(), viaFleet: true, sweepShare: 0.05},
}

// setupReps is how many times a run sets up: it builds the workload's
// benchmarks and brings up the fleet, whose nodes each inspect the
// target system on their first request. setup_s is the median. On the
// serve workload the last warmReps fresh fleets also take the cold
// warm-up pass, whose median wall time is search_s.
const (
	setupReps = 15
	warmReps  = 7
)

// searchShare is the share of the window a search workload spends on
// cold passes, at least minPasses of them; the closed loop over their
// decisions gets the rest, and at least minServeShare.
const (
	searchShare   = 0.7
	minServeShare = 0.3
	minPasses     = 2
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	expect   map[string]string // decision key -> sha256 of the body
	fig9     map[string]string // benchmark -> "speedup,quality,trials"
}

// run accumulates one run's checks and metrics.
type run struct {
	cfg               config
	attempted, failed int
	m                 map[string]float64
	log               io.Writer
}

func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "perfbench: check failed: "+format+"\n", args...)
	}
}

// execute runs one workload and returns its metrics, end-to-end and
// (when cfg.trace) per-layer.
func execute(e env, cfg config, log io.Writer) (*run, error) {
	def, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, m: map[string]float64{}, log: log}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	plan := func() string {
		h := sequenceDigest(cfg.seed, len(def.items), hotBenches, def.sweepShare, 4000)
		for i := 0; i < 8; i++ {
			h += fmt.Sprint(passOrder(cfg.seed, i, def.items))
		}
		return h
	}
	r.check(plan() == plan(), "seed %d does not reproduce its benchmark order and request sequence", cfg.seed)

	var (
		setups  []float64
		f       *fleet
		targets []*target
		ps      passes
		err     error
	)
	probe := scaleRequest(def.items[0].bench, def.items[0].toq)
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t := time.Now()
		for _, it := range def.items {
			e.lookup(it.bench)
		}
		if f, err = startFleet(e.lookup, probe); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if def.viaFleet && i >= setupReps-warmReps {
			var wall time.Duration
			if targets, wall, err = warmUp(r, f, def.items); err != nil {
				f.close()
				return nil, err
			}
			ps.untraced = append(ps.untraced, wall.Seconds())
		}
	}
	defer f.close()
	r.m["setup_s"] = median(setups)

	start := time.Now()
	serveFor := budget
	if !def.viaFleet {
		if ps, err = searchPasses(r, e, def.items, false, start.Add(time.Duration(searchShare*float64(budget)))); err != nil {
			return nil, err
		}
		if targets, err = publish(r, f, ps.first.out); err != nil {
			return nil, err
		}
		ps.first = nil
		serveFor = max(budget-time.Since(start), time.Duration(minServeShare*float64(budget)))
	}
	// The closed loop starts on a collected heap whose free pages are
	// already back with the OS, so neither the passes' garbage nor the
	// background scavenger's release of it runs on the loop's clock.
	debug.FreeOSMemory()
	var trials int
	var speedups []float64
	for _, t := range targets {
		rep, err := decisionReport(t.body)
		if err != nil {
			return nil, err
		}
		trials += rep.Trials
		speedups = append(speedups, rep.Speedup)
	}

	sr := serve(r, f, targets, hotBenches, def.sweepShare, serveFor)
	if def.sweepShare > 0 {
		checkReplicas(r, f, sr, 8)
	}

	r.m["search_s"] = median(ps.untraced)
	r.m["trials"] = float64(trials)
	r.m["speedup_geomean"] = geomean(speedups)
	r.m["hit_p50_ms"] = segmented(sr.lat[classHit], sr.wall, percentile(0.50))
	r.m["hit_p99_ms"] = segmented(sr.lat[classHit], sr.wall, percentile(0.99))
	r.m["proxy_p50_ms"] = segmented(sr.lat[classProxy], sr.wall, percentile(0.50))
	r.m["proxy_p99_ms"] = segmented(sr.lat[classProxy], sr.wall, percentile(0.99))
	if def.sweepShare > 0 {
		r.m["miss_p50_ms"] = segmented(sr.lat[classMiss], sr.wall, percentile(0.50))
		r.m["miss_p90_ms"] = segmented(sr.lat[classMiss], sr.wall, percentile(0.90))
	} else {
		r.m["miss_p50_ms"] = quantile(ps.missMs, 0.50)
		r.m["miss_p90_ms"] = quantile(ps.missMs, 0.90)
	}
	r.m["rps"] = sr.rate()
	fmt.Fprintf(log, "perfbench: %s seed %d: %d untraced search pass(es); served %d requests in %.1fs (hit %d, proxy %d, miss %d)\n",
		cfg.workload, cfg.seed, len(ps.untraced), sr.done, sr.wall.Seconds(),
		len(sr.lat[classHit]), len(sr.lat[classProxy]), len(sr.lat[classMiss])+len(ps.missMs))

	if cfg.trace {
		if def.viaFleet {
			// The fleet's searches cannot be hooked from outside, so the
			// scaler and lower layers are traced on the same hot items
			// searched directly, sharing a cache per benchmark as the
			// service does.
			if ps, err = searchPasses(r, e, def.items, true, time.Now()); err != nil {
				return nil, err
			}
		}
		r.scalerMetrics(ps)
		if err := r.lowerLayers(e, ps.traced.out); err != nil {
			return nil, err
		}
		if err := r.serviceMetrics(e, f, targets[0], sr); err != nil {
			return nil, err
		}
	}
	r.m["peak_rss_mb"] = peakRSSMB()
	r.m["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
	return r, nil
}

// passes is what a sequence of direct cold passes measured.
type passes struct {
	first       *pass
	traced      *pass     // the last traced pass
	untraced    []float64 // pass walls, s
	tracedWalls []float64
	missMs      []float64 // per-decision Scale walls of untraced passes
}

// searchPasses runs cold passes in seeded orders, at least minPasses,
// until one more pass would end after until. A traced run alternates
// untraced and traced passes, at least three, so that the traced pass
// can be compared with an untraced pass that, like it, is not the
// process's first.
func searchPasses(r *run, e env, items []item, shareCache bool, until time.Time) (passes, error) {
	var ps passes
	least := minPasses
	if r.cfg.trace {
		least = max(least, 3)
	}
	for i := 0; ; i++ {
		p, err := coldPass(e, passOrder(r.cfg.seed, i, items), shareCache, r.cfg.trace && i%2 == 1)
		if err != nil {
			return ps, err
		}
		for _, d := range p.out {
			r.checkDecision(d.item, d.body)
		}
		if ps.first == nil {
			ps.first = p
		}
		if p.phases != nil {
			ps.traced = p
			ps.tracedWalls = append(ps.tracedWalls, p.wall.Seconds())
		} else {
			ps.untraced = append(ps.untraced, p.wall.Seconds())
			for _, d := range p.out {
				ps.missMs = append(ps.missMs, ms(d.wall))
			}
		}
		if i+1 >= least && time.Now().Add(p.wall).After(until) {
			return ps, nil
		}
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the metrics BENCHMARK.json lists for this mode, prints
// one line each with unit and direction, and returns the result line.
// A listed metric the run did not produce is an error.
func report(w io.Writer, r *run, specs []metricSpec) (*result, error) {
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := r.m[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		dir := "higher is better"
		if s.Better == "lower" {
			dir = "lower is better"
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s (%s)\n", s.Name, v, s.Unit, dir)
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// expectPath is where the decision digests live, relative to the root.
const expectPath = "perfbench/expect.json"

// expectations computes every decision a workload checks directly with
// core.Framework.Scale and returns the digests of their bodies.
func expectations(e env) (map[string]string, error) {
	seen := map[string]bool{}
	var items []item
	for _, name := range []string{"search-suite", "serve-fleet"} {
		for _, it := range workloads[name].items {
			if !seen[it.key()] {
				seen[it.key()] = true
				items = append(items, it)
			}
		}
	}
	p, err := coldPass(e, items, false, false)
	if err != nil {
		return nil, err
	}
	digests := map[string]string{}
	for _, d := range p.out {
		digests[d.key()] = fmt.Sprintf("%x", sha256.Sum256(d.body))
	}
	return digests, nil
}

func main() {
	name := flag.String("workload", "", "workload: search-suite or serve-fleet")
	seed := flag.Int64("seed", 1, "seed for benchmark order, request mix and sweep TOQs")
	seconds := flag.Float64("seconds", 40, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
	root := flag.String("root", ".", "repository root")
	record := flag.Bool("write-expect", false, "recompute the decision digests into "+expectPath+" and exit")
	flag.Parse()
	if err := os.Chdir(*root); err != nil {
		fatal(err)
	}
	if *record {
		digests, err := expectations(fullEnv)
		if err != nil {
			fatal(err)
		}
		b, _ := json.MarshalIndent(digests, "", "  ")
		if err := os.WriteFile(expectPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		return
	}
	var spec benchSpec
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := loadJSON("BENCHMARK.json", &spec); err != nil {
		fatal(err)
	}
	if err := loadJSON(expectPath, &cfg.expect); err != nil {
		fatal(err)
	}
	fig9, err := readFig9(filepath.Join("results", "fig9-system1.csv"))
	if err != nil {
		fatal(err)
	}
	cfg.fig9 = fig9
	r, err := execute(fullEnv, cfg, os.Stderr)
	if err != nil {
		fatal(err)
	}
	specs := spec.EndToEnd
	if cfg.trace {
		specs = spec.PerLayer
	}
	res, err := report(os.Stdout, r, specs)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
