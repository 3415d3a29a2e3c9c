package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// run runs the benchmark in-process for one batch and returns its exit
// status and the result on its last line.
func run(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := mainArgs(append([]string{"--seconds", "0", "--trace-out", ""}, args...), &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	var res result
	if i := strings.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v\nstderr: %s", args, out, err, stderr.String())
	}
	return code, res, stdout.String()
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			code, res, _ := run(t, "--workload", w.name, "--trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, correct %t, %d of %d failed", w.name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestSelftestTrips(t *testing.T) {
	code, res, out := run(t, "--workload", "corpus-served", "--selftest")
	if code == 0 || res.Correct || res.Failed == 0 || !strings.Contains(out, "MISMATCH") {
		t.Errorf("selftest passed: exit %d, correct %t, failed %d\n%s", code, res.Correct, res.Failed, out)
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			p, err := w.plan(context.Background(), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return p.digest(w.name)
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "lat_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 100, 101, 99, 100, 100, 102, 98, 100, 100}
	noisy := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	for _, c := range []struct {
		name       string
		m          specMetric
		a, b       []float64
		wins, pair int
		want       string
	}{
		{"same", lower, steady, steady, 0, 10, "unchanged"},
		{"slower within the bound", lower, steady, scale(steady, 1.05), 0, 10, "unchanged"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.5), 0, 10, "regressed"},
		{"faster", lower, steady, scale(steady, 0.5), 10, 10, "improved"},
		{"faster by a hair in every pair", lower, steady, scale(steady, 0.999), 10, 10, "unchanged"},
		{"fewer ops per second", higher, steady, scale(steady, 0.5), 0, 10, "regressed"},
		{"noisy, overlapping", lower, noisy, scale(noisy, 1.05), 4, 10, "unresolved"},
		{"noisy, every run slower", lower, noisy, scale(noisy, 3), 0, 10, "regressed"},
		{"noisy, every run faster but few pairs won", lower, noisy, scale(noisy, 0.3), 0, 0, "unchanged"},
	} {
		if got := verdict(c.m, c.a, c.b, c.wins, c.pair); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
