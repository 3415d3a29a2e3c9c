package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// floors are absolute allowances under which a worsening never counts as a
// regression, for metrics whose bound as a share is smaller than their
// run-to-run jitter at small values.
var floors = map[string]float64{"setup_s": 0.2, "peak_rss_mb": 10}

// readRecords loads every run record in dir.
func readRecords(dir string) ([]runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s: not a run record", path)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return out, nil
}

// verdict applies the paired-run rule: a gain needs the change (b)
// to win at least nine tenths of the pairs and its median to differ from
// the parent's (a) by more than the parent's spread and by more than a tenth
// of the bound (a count that nearly repeats, such as allocs_per_op, would
// otherwise read as a gain on a difference of a few allocations in 10^5);
// a loss is a median
// worse by more than the bound. When the spread is wider than the bound,
// only every b run beating every a run reads as unchanged, and only every b
// run losing to every a run, with the median worse by more than the bound,
// as regressed; anything else is unresolved.
func verdict(m specMetric, a, b []float64, wins, pairs int) string {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	// dominates reports whether every run in xs is better than every run
	// in ys.
	dominates := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	medA, medB := quantile(a, 0.5), quantile(b, 0.5)
	allowed := math.Max(m.Bound*math.Abs(medA), floors[m.Name])
	spread := math.Max(quantile(a, 0.75)-quantile(a, 0.25), quantile(b, 0.75)-quantile(b, 0.25))
	worse := better(medA, medB) && math.Abs(medB-medA) > allowed
	gain := math.Abs(medB - medA)
	if pairs > 0 && 10*wins >= 9*pairs && better(medB, medA) &&
		gain > quantile(a, 0.75)-quantile(a, 0.25) && gain > m.Bound/10*math.Abs(medA) {
		return "improved"
	}
	if spread > allowed {
		switch {
		case dominates(b, a):
			return "unchanged"
		case worse && dominates(a, b):
			return "regressed"
		}
		return "unresolved"
	}
	if worse {
		return "regressed"
	}
	return "unchanged"
}

// compareMain prints, for each workload and end-to-end metric, both sides'
// median and quartiles, the share of same-seed pairs the second side wins,
// and a verdict. It exits 1 when anything regressed and 2 when the runs
// cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "benchmark: usage: benchmark compare [--spec FILE] DIR_A DIR_B")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var sides [2]map[string]map[int64]runRecord // workload → seed → run
	procs := 0
	for k := range sides {
		recs, err := readRecords(fs.Arg(k))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sides[k] = map[string]map[int64]runRecord{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if sides[k][r.Workload] == nil {
				sides[k][r.Workload] = map[int64]runRecord{}
			}
			sides[k][r.Workload][r.Seed] = r
			if procs != 0 && r.GOMAXPROCS != procs {
				fmt.Fprintf(stderr, "benchmark: refusing to compare runs made at GOMAXPROCS %d and %d\n", procs, r.GOMAXPROCS)
				return 2
			}
			procs = r.GOMAXPROCS
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-17s %30s %30s %7s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "B wins", "verdict")
	for _, w := range workloads {
		a, b := sides[0][w.name], sides[1][w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for seed, ra := range a {
			if rb, ok := b[seed]; ok && ra.Digest != rb.Digest {
				fmt.Fprintf(stderr, "benchmark: refusing to compare %s seed %d: input digests differ (%s vs %s)\n", w.name, seed, ra.Digest, rb.Digest)
				return 2
			}
		}
		for _, m := range sp.EndToEnd {
			var va, vb []float64
			wins, pairs := 0, 0
			for seed, ra := range a {
				va = append(va, ra.Metrics[m.Name].Value)
				if rb, ok := b[seed]; ok {
					pairs++
					x, y := rb.Metrics[m.Name].Value, ra.Metrics[m.Name].Value
					if (m.Better == "higher" && x > y) || (m.Better != "higher" && x < y) {
						wins++
					}
				}
			}
			for _, rb := range b {
				vb = append(vb, rb.Metrics[m.Name].Value)
			}
			v := verdict(m, va, vb, wins, pairs)
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-17s %30s %30s %7.3f %3d/%-2d  %s\n", w.name, m.Name, summary(va), summary(vb),
				ratio(quantile(vb, 0.5), quantile(va, 0.5)), wins, pairs, v)
		}
	}
	return status
}

func summary(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// reference is the block recordMain writes: this host's medians.
type reference struct {
	Host struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"numcpu"`
		CPU        string `json:"cpu"`
		GoVersion  string `json:"go"`
		Commit     string `json:"commit"`
		// KernelMs is the median time of the calibration kernel over the
		// runs recorded (calib.go).
		KernelMs float64 `json:"kernel_ms"`
	} `json:"host"`
	Recorded  string                        `json:"recorded"`
	Runs      map[string]int                `json:"runs"`
	Medians   map[string]map[string]float64 `json:"medians"`
	PerLayer  map[string]map[string]float64 `json:"per_layer_medians"`
	Digests   map[string][]string           `json:"digests"`
	Seconds   float64                       `json:"seconds"`
	Benchmark string                        `json:"benchmark"`
}

// recordMain writes the medians of the runs kept in the given directories,
// with this host's description, to the reference file.
func recordMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	out := fs.String("out", "benchmark/reference.json", "file to write")
	if err := fs.Parse(args); err != nil || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "benchmark: usage: benchmark record [--spec FILE] [--out FILE] DIR...")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var recs []runRecord
	for _, dir := range fs.Args() {
		rs, err := readRecords(dir)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		recs = append(recs, rs...)
	}
	var ref reference
	var kernel []float64
	for _, r := range recs {
		if r.KernelMs > 0 {
			kernel = append(kernel, r.KernelMs)
		}
	}
	ref.Host.KernelMs = quantile(kernel, 0.5)
	ref.Host.GOMAXPROCS, ref.Host.NumCPU, ref.Host.CPU = runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()
	ref.Host.GoVersion, ref.Host.Commit = runtime.Version(), commit()
	ref.Recorded = time.Now().UTC().Format(time.RFC3339)
	ref.Benchmark = "bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 --out DIR; then record DIR"
	ref.Runs, ref.Medians, ref.PerLayer, ref.Digests = map[string]int{}, map[string]map[string]float64{}, map[string]map[string]float64{}, map[string][]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			metrics, dst := sp.EndToEnd, ref.Medians
			if traced {
				metrics, dst = sp.PerLayer, ref.PerLayer
			}
			var rs []runRecord
			for _, r := range recs {
				if r.Workload == w.name && r.Trace == traced {
					if r.GOMAXPROCS != ref.Host.GOMAXPROCS {
						fmt.Fprintf(stderr, "benchmark: %s seed %d ran at GOMAXPROCS %d, this host has %d\n", r.Workload, r.Seed, r.GOMAXPROCS, ref.Host.GOMAXPROCS)
						return 2
					}
					rs = append(rs, r)
				}
			}
			if len(rs) == 0 {
				continue
			}
			key := w.name
			if traced {
				key += "/trace"
			} else {
				ref.Seconds = rs[0].Seconds
				for _, r := range rs {
					ref.Digests[w.name] = append(ref.Digests[w.name], fmt.Sprintf("seed %d: %s", r.Seed, r.Digest))
				}
			}
			ref.Runs[key] = len(rs)
			dst[w.name] = map[string]float64{}
			for _, m := range metrics {
				var vs []float64
				for _, r := range rs {
					vs = append(vs, r.Metrics[m.Name].Value)
				}
				dst[w.name][m.Name] = quantile(vs, 0.5)
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s from %d runs\n", *out, len(recs))
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
