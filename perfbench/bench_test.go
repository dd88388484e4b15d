package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at polybench.SmallSuite sizes for a
// one-second window, untraced and traced, and checks that each metric
// BENCHMARK.json names is produced with its unit and that a wrong
// expectation is reported as a failed check.

func smallExpect(t *testing.T) map[string]string {
	t.Helper()
	digests, err := expectations(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	return digests
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := loadJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	expect := smallExpect(t)
	for _, name := range []string{"search-suite", "serve-fleet"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, expect: expect}
			var log strings.Builder
			r, err := execute(smallEnv(), cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			specs := spec.EndToEnd
			if trace {
				specs = spec.PerLayer
			}
			res, err := report(io.Discard, r, specs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			for _, s := range specs {
				if got := res.Metrics[s.Name].Unit; got != s.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, s.Name, got, s.Unit)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(specs))
			}
		}
	}
}

func TestCorruptExpectationFails(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range []string{"search-suite", "serve-fleet"} {
		expect := smallExpect(t)
		expect["GEMM@0.90"] = strings.Repeat("0", 64)
		var log strings.Builder
		r, err := execute(smallEnv(), config{workload: name, seed: 3, seconds: 1, expect: expect}, &log)
		if err != nil {
			t.Fatal(err)
		}
		res, err := report(io.Discard, r, spec.EndToEnd)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted GEMM digest not reported: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		if !strings.Contains(log.String(), "GEMM@0.90") {
			t.Errorf("%s: failure log does not name the decision:\n%s", name, log.String())
		}
	}
}

func TestSeedReproducesPlan(t *testing.T) {
	items := workloads["search-suite"].items
	a := sequenceDigest(5, 16, hotBenches, 0.05, 1000) + fmt.Sprint(passOrder(5, 0, items))
	b := sequenceDigest(5, 16, hotBenches, 0.05, 1000) + fmt.Sprint(passOrder(5, 0, items))
	c := sequenceDigest(6, 16, hotBenches, 0.05, 1000) + fmt.Sprint(passOrder(6, 0, items))
	if a != b {
		t.Error("same seed, different plan")
	}
	if a == c {
		t.Error("different seeds, same plan")
	}
}
