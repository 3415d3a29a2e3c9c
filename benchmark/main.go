// Command benchmark measures the verifier end to end, through the calls a
// user makes, on five seeded workloads, and layer by layer in a separate
// traced run. See README.md for the workloads, the metrics and how to run,
// trace and compare.
//
// Usage:
//
//	benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	          [--selftest] [--out DIR] [--trace-out DIR]
//	benchmark compare [--spec FILE] DIR_A DIR_B
//	benchmark record [--spec FILE] [--out FILE] DIR...
//
// A run prints human-readable lines and then, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paramra"
	"paramra/internal/obs"
)

// workload is one set of inputs and the way they are sent.
type workload struct {
	name    string
	clients int // closed-loop callers
	plan    func(ctx context.Context, seed int64) (*plan, error)
	start   func(ctx context.Context, clients int) (executor, error)
}

func startLibrary(o paramra.Options) func(context.Context, int) (executor, error) {
	return func(context.Context, int) (executor, error) { return library{opts: o}, nil }
}

func startServed(context.Context, int) (executor, error) {
	o, err := servedOptions()
	return library{opts: o}, err
}

var workloads = []workload{
	{"corpus-served", 1, func(_ context.Context, seed int64) (*plan, error) { return libraryPlan(seed, nil, nil) }, startServed},
	{"fixpoint", 1, func(_ context.Context, seed int64) (*plan, error) { return libraryPlan(seed, nil, tqbfInputs) }, startLibrary(paramra.Options{})},
	{"datalog", 1, func(_ context.Context, seed int64) (*plan, error) { return libraryPlan(seed, slowDatalog, nil) }, startLibrary(paramra.Options{Datalog: true})},
	{"service-cold", 2, coldPlan, startService},
	{"service-hot", 2, hotPlan, startService},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	selftest bool
	outDir   string
	traceDir string
}

type metric struct {
	name  string
	unit  string
	value float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is what --out keeps of a run, for compare and record.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Digest     string  `json:"digest"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go"`
	// KernelMs is the median time of the calibration kernel (calib.go).
	KernelMs float64 `json:"kernel_ms,omitempty"`
	result
}

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "record":
			return recordMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase; 0 runs one batch")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.BoolVar(&cfg.selftest, "selftest", false, "flip one expected verdict; the run must then fail")
	fs.StringVar(&cfg.outDir, "out", "", "directory to keep a JSON record of the run in, for compare and record")
	fs.StringVar(&cfg.traceDir, "trace-out", ".bench_build/traces", "directory the traced run writes its span trees to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	cfg.trace = trace == 1
	ctx := context.Background()
	if cfg.workload == "" {
		return runChildren(ctx, args, stdout, stderr)
	}
	res, err := runWorkload(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChildren runs every workload in a process of its own, so that each
// one's peak RSS and runtime state are its own.
func runChildren(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		cmd := exec.CommandContext(ctx, self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// opRecord is the outcome of one op.
type opRecord struct {
	id     int
	unsafe bool
	err    error
	lat    time.Duration
}

// runBatch sends stream with the workload's closed-loop callers. With acc
// set, every op is traced into it.
func runBatch(ctx context.Context, ex executor, p *plan, stream []int, clients int, acc *layerAcc) []opRecord {
	out := make([]opRecord, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				in := &p.inputs[stream[i]]
				t0 := time.Now()
				var r opRecord
				if acc != nil {
					r.unsafe, r.err = tracedOp(ctx, ex, in, acc)
				} else {
					r.unsafe, _, r.err = ex.op(ctx, in, nil)
				}
				r.id, r.lat = stream[i], time.Since(t0)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// tracedOp records one op's spans in a capture of its own, grafts the
// program spans the service returned under the request span, and accounts
// the tree.
func tracedOp(ctx context.Context, ex executor, in *input, acc *layerAcc) (bool, error) {
	c := obs.NewCapture("")
	root := c.Tracer.Start("op", nil)
	unsafe, graft, err := ex.op(ctx, in, root)
	root.End()
	trees, terr := c.Tree()
	if terr != nil {
		return unsafe, fmt.Errorf("reading the op's trace: %w", terr)
	}
	if len(trees) != 1 {
		return unsafe, fmt.Errorf("op trace has %d roots", len(trees))
	}
	for _, n := range trees[0].Children {
		if n.Name == "serve.request" {
			n.Children = append(n.Children, graft...)
		}
	}
	acc.add(trees[0])
	return unsafe, err
}

// cyclic returns the n ops of the stream starting at pos, wrapping around.
func cyclic(ops []int, pos, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = ops[(pos+i)%len(ops)]
	}
	return out
}

// setUp starts the system under test and sends the warm-up stream.
func setUp(ctx context.Context, w workload, p *plan) (executor, error) {
	ex, err := w.start(ctx, w.clients)
	if err != nil {
		return nil, err
	}
	for _, r := range runBatch(ctx, ex, p, p.warm, w.clients, nil) {
		if r.err != nil {
			ex.close()
			return nil, fmt.Errorf("warm-up: %s: %w", p.inputs[r.id].name, r.err)
		}
	}
	return ex, nil
}

func runWorkload(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload (have corpus-served, fixpoint, datalog, service-cold, service-hot)")
	}
	p, err := w.plan(ctx, cfg.seed)
	if err != nil {
		return result{}, err
	}
	if p.gen != nil {
		p.gen.report(stdout)
	}
	// Judging generated systems can take hundreds of MB; peak_rss_mb counts
	// from here on.
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	// Set-up is timed from here on: it starts and warms the system under
	// test. Drawing the inputs above is the load generator's work.
	cal, err := newCalibrator()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	// Each set-up is scaled by the host's speed around it, as a batch is.
	var (
		ex             executor
		setups, scaled []float64
	)
	k0 := cal.measure()
	for i := 0; i < setupRepeats; i++ {
		if ex != nil {
			if err := ex.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		if ex, err = setUp(ctx, w, p); err != nil {
			return result{}, err
		}
		d := time.Since(t0).Seconds()
		k1 := cal.measure()
		setups = append(setups, d)
		scaled = append(scaled, d*speed(k0, k1))
		k0 = k1
	}
	defer ex.close()
	digest := p.digest(w.name)
	fmt.Fprintf(stdout, "workload %s seed %d digest %s gomaxprocs %d numcpu %d clients %d trace %t\n",
		w.name, cfg.seed, digest, runtime.GOMAXPROCS(0), runtime.NumCPU(), w.clients, cfg.trace)

	ph, err := runPhase(ctx, cfg, w, p, ex, cal)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	// Verdict oracle over every distinct input sent.
	if cfg.selftest {
		in := &p.inputs[p.ops[0]]
		in.unsafe = !in.unsafe
		fmt.Fprintf(stdout, "selftest: expecting the wrong verdict for %s\n", in.name)
	}
	wrong := ph.wrongVerdicts(p, stdout)
	attempted := ph.untracedOps() + ph.tracedOps
	failed := ph.errs + wrong
	if ph.firstErr != nil {
		fmt.Fprintf(stdout, "%d ops failed; first: %v\n", ph.errs, ph.firstErr)
	}
	fmt.Fprintf(stdout, "ops %d failed %d (errors %d, wrong verdicts %d) fail_ratio %.6f\n",
		attempted, failed, ph.errs, wrong, ratio(float64(failed), float64(attempted)))

	var ms []metric
	if cfg.trace {
		ms = ph.acc.metrics(ratio(float64(ph.tracedWall), float64(ph.tracedOps)),
			ratio(float64(ph.untracedWall()), float64(ph.untracedOps())))
		ph.acc.printLayers(stdout)
		if err := writeTrace(cfg, ph.acc); err != nil {
			return result{}, err
		}
	} else {
		fmt.Fprintf(stdout, "set-up: median of %d, %.6g s unscaled\n", setupRepeats, quantile(setups, 0.5))
		ms = append([]metric{{"setup_s", "s", quantile(scaled, 0.5)}}, ph.endToEnd(stdout)...)
		ms = append(ms,
			metric{"peak_rss_mb", "MB", rss},
			metric{"ok_ratio", "ratio", float64(attempted-failed) / float64(attempted)})
	}
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if cfg.outDir != "" {
		rec := runRecord{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Digest: digest,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), result: res}
		var ks []float64
		for _, k := range ph.kernel {
			ks = append(ks, float64(k)/1e6)
		}
		rec.KernelMs = quantile(ks, 0.5)
		if err := writeRecord(cfg, rec); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// resetPeakRSS returns the freed heap to the operating system and restarts
// the kernel's count of the process's peak resident set size (Linux).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(v, "%g kB", &kib); err != nil {
				return 0, fmt.Errorf("reading the peak RSS: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("reading the peak RSS: no VmHWM in /proc/self/status")
}

func writeRecord(cfg config, rec runRecord) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed)
	if rec.Trace {
		name = fmt.Sprintf("%s-seed%d-trace.json", rec.Workload, rec.Seed)
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}

func writeTrace(cfg config, acc *layerAcc) (err error) {
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return acc.writeKept(f)
}
