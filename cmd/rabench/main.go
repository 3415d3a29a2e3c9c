// Command rabench regenerates the paper's tables and figures and the
// repository's experiment suite (see EXPERIMENTS.md for the index), and
// merges observability artifacts into machine-readable run reports.
//
// Usage:
//
//	rabench [-j N] [-timeout D] [table|table1|corpus|fig3|fig4|fig5|mincache|threads|ablations|robust|scaling|gap|slice|parallel|cache|all]
//	rabench report trace.jsonl... [tracedir...] [metrics.json]
//	rabench fuzz [-seeds N] [-profile P] [-seed-base B] [-repro-dir D] [-seed-timeout T] [-selftest]
//
// report accepts any mix of trace files and directories of per-request
// server traces (raserved -trace-dir); spans are aggregated across all of
// them into per-phase count/total/min/max and p50/p95/p99 durations. A
// trailing .json argument is read as a -metrics-out snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"paramra/internal/bench"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

var (
	baseline  = flag.String("baseline", "", "parallel experiment: also write the rows to this JSON file")
	compareTo = flag.String("compare", "", "parallel experiment: compare against this baseline JSON and exit 1 on regression")
	tolerance = flag.Float64("tolerance", 2.0, "parallel -compare: allowed calibrated slowdown factor per entry")
	injectFlg = flag.String("inject-slowdown", "", "parallel -compare selftest: NAME=FACTOR[,NAME=FACTOR...] multiplies measured wall times")
	reqProcs  = flag.Bool("require-procs-match", false, "parallel -compare: fail (exit 1) when the baseline's recorded GOMAXPROCS differs from this run's")
	obsf      *obs.Flags
)

// runCtx carries the SIGINT/-timeout context to the experiments; runSpan is
// the tool-level trace span the per-experiment spans nest under.
var (
	runCtx  = context.Background()
	runSpan *obs.Span
)

const usage = "usage: rabench [-j N] [-timeout D] [table|table1|corpus|fig3|fig4|fig5|mincache|threads|ablations|robust|scaling|gap|slice|parallel|cache|all]\n" +
	"       rabench report trace.jsonl... [tracedir...] [metrics.json]\n" +
	"       rabench fuzz [-seeds N] [-profile P] [-seed-base B] [-repro-dir D] [-seed-timeout T] [-selftest]\n"

func main() {
	os.Exit(run())
}

func run() int {
	obsf = obs.RegisterFlags(flag.CommandLine)
	obsf.RegisterRunFlags(flag.CommandLine)
	flag.Parse()

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	if what == "report" {
		return report(flag.Args()[1:])
	}

	ctx, stop := obsf.Context()
	defer stop()
	runCtx = ctx
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabench:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rabench:", err)
		}
	}()
	runSpan = sess.Tracer.Start("rabench", nil)
	defer runSpan.End()
	bench.SetInstrumentation(bench.Instrumentation{Trace: runSpan, Metrics: sess.Metrics})

	if what == "fuzz" {
		if err := fuzz(flag.Args()[1:], sess.Metrics); err != nil {
			if errors.Is(err, errFuzzUsage) {
				fmt.Fprintln(os.Stderr, "rabench fuzz:", err)
				return 2
			}
			fmt.Fprintln(os.Stderr, "rabench fuzz:", err)
			return 1
		}
		return 0
	}

	run := map[string]func() error{
		"table":     classTable,
		"table1":    table1,
		"corpus":    corpus,
		"fig3":      fig3,
		"fig4":      fig4,
		"fig5":      fig5,
		"mincache":  mincache,
		"cache":     vcache,
		"threads":   threads,
		"ablations": ablations,
		"robust":    robust,
		"scaling":   scaling,
		"gap":       gap,
		"slice":     slice_,
		"parallel":  parallel,
	}
	// timed wraps one experiment in a child span named after it.
	timed := func(name string, f func() error) error {
		span := runSpan.Child(name)
		err := f()
		span.End()
		return err
	}
	if what == "all" {
		for _, name := range []string{"table", "table1", "corpus", "fig3", "fig4", "fig5", "mincache", "threads", "ablations", "robust", "scaling", "gap", "slice", "parallel", "cache"} {
			if err := timed(name, run[name]); err != nil {
				fmt.Fprintf(os.Stderr, "rabench %s: %v\n", name, err)
				return 1
			}
			fmt.Println()
		}
		return 0
	}
	f, ok := run[what]
	if !ok {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	if err := timed(what, f); err != nil {
		fmt.Fprintf(os.Stderr, "rabench %s: %v\n", what, err)
		return 1
	}
	return 0
}

// report merges -trace-out JSONL files and/or directories of per-request
// server traces, plus an optional trailing -metrics-out JSON snapshot, into
// one machine-readable run report on stdout.
func report(args []string) int {
	if len(args) < 1 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	metrics := ""
	if last := args[len(args)-1]; bench.IsMetricsArg(last) {
		metrics = last
		args = args[:len(args)-1]
	}
	traces, err := bench.ExpandTraceArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabench report:", err)
		return 2
	}
	rep, err := bench.BuildMergedRunReport(traces, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabench report:", err)
		return 2
	}
	if err := rep.WriteJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rabench report:", err)
		return 2
	}
	for _, p := range rep.TopPhases(3) {
		fmt.Fprintf(os.Stderr, "rabench report: %-24s %4d span(s)  total %s  p50 %s  p95 %s  p99 %s\n",
			p.Name, p.Count, time.Duration(p.TotalNs).Round(time.Microsecond),
			time.Duration(p.P50Ns).Round(time.Microsecond),
			time.Duration(p.P95Ns).Round(time.Microsecond),
			time.Duration(p.P99Ns).Round(time.Microsecond))
	}
	return 0
}

// errFuzzUsage marks bad fuzz invocations (exit 2, like every other
// usage error) as opposed to campaign findings (exit 1).
var errFuzzUsage = errors.New("usage error")

// fuzz runs a differential fuzzing campaign: random systems through every
// backend, cross-checked, disagreements shrunk to minimal repros. A non-nil
// error (and exit 1) reports unresolved disagreements — the campaign is a
// correctness gate, not just a report.
func fuzz(args []string, metrics *obs.Registry) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seeds := fs.Int("seeds", 500, "number of systems to generate and cross-check")
	profile := fs.String("profile", "default", "system shape: "+strings.Join(fuzzgen.ProfileNames(), "|"))
	seedBase := fs.Int64("seed-base", 0, "first seed of the campaign (seeds are seed-base..seed-base+seeds-1)")
	reproDir := fs.String("repro-dir", "", "persist shrunk disagreements as commented .ra files under this directory")
	seedTimeout := fs.Duration("seed-timeout", 10*time.Second, "oracle budget per seed (a seed hitting it is inconclusive, not a failure)")
	selftest := fs.Bool("selftest", false, "inject a lying Datalog backend to prove the harness detects and minimizes disagreements")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errFuzzUsage, err)
	}
	prof, ok := fuzzgen.ProfileByName(*profile)
	if !ok {
		return fmt.Errorf("%w: unknown profile %q (have %s)", errFuzzUsage, *profile, strings.Join(fuzzgen.ProfileNames(), ", "))
	}

	var check fuzzgen.CheckOptions
	if *selftest {
		check.InjectFault = func(backend string, _ *lang.System, unsafe bool) bool {
			if backend == fuzzgen.BackendDatalog {
				return !unsafe
			}
			return unsafe
		}
		// The injected fault makes the concrete backends disagree too;
		// narrowing to fixpoint-vs-datalog keeps the selftest fast.
		check.NoConcrete = true
		check.NoDeadlocks = true
		check.NoPrepass = true
		check.NoCache = true
	}

	res, err := fuzzgen.Campaign(runCtx, fuzzgen.CampaignOptions{
		Seeds:       *seeds,
		SeedBase:    *seedBase,
		Profile:     prof,
		Check:       check,
		SeedTimeout: *seedTimeout,
		ReproDir:    *reproDir,
		Log:         os.Stderr,
		Trace:       runSpan,
		Metrics:     metrics,
	})
	if err != nil {
		return err
	}

	fmt.Printf("fuzz: %d/%d seeds checked (profile %s), %d disagreement(s), %d timed out\n",
		res.Seeds, *seeds, prof.Name, res.Disagreed, res.TimedOut)
	classes := make([]string, 0, len(res.ByClass))
	for c := range res.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  %5d  %s\n", res.ByClass[c], c)
	}
	for _, r := range res.Repros {
		fmt.Printf("repro: seed %d kind %s -> %d threads / %d stmts%s\n",
			r.Seed, r.Kind, r.Threads, r.Stmts, reproPath(r.Path))
	}
	if res.Cancelled {
		return fmt.Errorf("campaign cancelled after %d seeds", res.Seeds)
	}
	if *selftest {
		if res.Disagreed == 0 {
			return fmt.Errorf("selftest: injected fault produced no disagreement")
		}
		fmt.Println("selftest: injected fault detected and shrunk")
		return nil
	}
	if res.Disagreed > 0 {
		return fmt.Errorf("%d unresolved disagreement(s)", res.Disagreed)
	}
	return nil
}

func reproPath(p string) string {
	if p == "" {
		return ""
	}
	return " -> " + p
}

// parallel measures the layered engine's scaling over worker counts. With
// -compare it becomes the bench regression gate: re-measure, calibrate to
// the machine, and fail on entries slower than the baseline beyond the
// tolerance (or with drifted deterministic macro-state counts).
func parallel() error {
	counts := []int{1, 2, 4, 8}
	if obsf.Workers > 0 {
		counts = []int{1, obsf.Workers}
	}
	if *compareTo != "" {
		inject, err := bench.ParseInjectSlowdown(*injectFlg)
		if err != nil {
			return err
		}
		rep, err := bench.CompareParallel(runCtx, *compareTo, counts, *tolerance, inject)
		if err != nil {
			return err
		}
		fmt.Print(bench.CompareTable(rep).String())
		if rep.ProcsWarning != "" {
			fmt.Fprintln(os.Stderr, "rabench parallel: WARNING:", rep.ProcsWarning)
			if *reqProcs {
				return fmt.Errorf("baseline/run GOMAXPROCS mismatch (%s)", rep.ProcsWarning)
			}
		}
		if len(rep.Regressions) > 0 {
			for _, r := range rep.Regressions {
				fmt.Fprintln(os.Stderr, "regression:", r)
			}
			return fmt.Errorf("%d entr%s regressed against %s",
				len(rep.Regressions), plural(len(rep.Regressions), "y", "ies"), *compareTo)
		}
		fmt.Printf("no regression against %s\n", *compareTo)
		return nil
	}
	rows, err := bench.ParallelExperiment(runCtx, counts)
	if err != nil {
		return err
	}
	fmt.Print(bench.ParallelTable(rows).String())
	if *baseline != "" {
		if err := bench.WriteParallelBaseline(*baseline, rows); err != nil {
			return err
		}
		fmt.Printf("baseline written to %s\n", *baseline)
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func table1() error {
	fmt.Print(bench.Table1().String())
	return nil
}

// classTable prints the per-thread lang.Classify signature (acyc/nocas) of
// every corpus system, the static counterpart of the verdict table.
func classTable() error {
	fmt.Print(bench.ClassTable().String())
	return nil
}

func corpus() error {
	reps, err := bench.RunCorpus()
	if err != nil {
		return err
	}
	fmt.Print(bench.CorpusTable(reps).String())
	return nil
}

func fig3() error {
	rows, err := bench.Fig3(6)
	if err != nil {
		return err
	}
	fmt.Print(bench.Fig3Table(rows).String())
	return nil
}

func fig4() error {
	s, err := bench.Fig4()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func fig5() error {
	rows, err := bench.Fig5(6)
	if err != nil {
		return err
	}
	fmt.Print(bench.Fig5Table(rows).String())
	return nil
}

// mincache is E8, the Lemma 4.4 minimal-Datalog-cache experiment (formerly
// the `cache` subcommand; renamed when the verdict cache took that name).
func mincache() error {
	rows, err := bench.CacheExperiment()
	if err != nil {
		return err
	}
	fmt.Print(bench.CacheTable(rows).String())
	return nil
}

// vcache is E20: the content-addressed verdict cache on the corpus.
func vcache() error {
	rows, err := bench.VerdictCacheExperiment(runCtx)
	if err != nil {
		return err
	}
	fmt.Print(bench.VerdictCacheTable(rows).String())
	return nil
}

func threads() error {
	rows, err := bench.ThreadBoundExperiment(6)
	if err != nil {
		return err
	}
	fmt.Print(bench.ThreadTable(rows).String())
	return nil
}

func ablations() error {
	rows, err := bench.Ablations()
	if err != nil {
		return err
	}
	fmt.Print(bench.AblationTable(rows).String())
	return nil
}

func robust() error {
	rows, err := bench.RobustnessExperiment(2_000_000)
	if err != nil {
		return err
	}
	fmt.Print(bench.RobustTable(rows).String())
	return nil
}

func scaling() error {
	rows, err := bench.ScalingExperiment()
	if err != nil {
		return err
	}
	fmt.Print(bench.ScalingTable(rows).String())
	return nil
}

func gap() error {
	rows, err := bench.GapExperiment(5, 2_000_000)
	if err != nil {
		return err
	}
	fmt.Print(bench.GapTable(rows).String())
	return nil
}

func slice_() error {
	rows, err := bench.SliceExperiment()
	if err != nil {
		return err
	}
	fmt.Print(bench.SliceTable(rows).String())
	return nil
}
