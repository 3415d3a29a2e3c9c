// Command raverify decides parameterized safety under release-acquire for a
// system description file.
//
// Usage:
//
//	raverify [flags] system.ra
//
// The input syntax is documented in the paramra package. The exit code is 0
// for SAFE, 1 for UNSAFE, and 2 on errors. SIGINT (and -timeout) cancel the
// verification cleanly through its context. The shared observability flags
// (-trace-out, -metrics-addr, -metrics-out, -pprof-addr, -cpuprofile,
// -memprofile) record a phase-span trace, expose live metrics, and profile
// the run; see internal/obs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"paramra"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// jsonReport is the machine-readable output shape (-json).
type jsonReport struct {
	System         string   `json:"system"`
	Class          string   `json:"class"`
	Verdict        string   `json:"verdict"`
	Complete       bool     `json:"complete"`
	Underapprox    bool     `json:"underapprox,omitempty"`
	MacroStates    int      `json:"macroStates"`
	DisTransitions int      `json:"disTransitions"`
	EnvConfigs     int      `json:"envConfigs"`
	EnvMsgs        int      `json:"envMsgs"`
	EnvThreadBound int64    `json:"envThreadBound"`
	WallMS         int64    `json:"wallMs,omitempty"`
	Witness        []string `json:"witness,omitempty"`
	Slice          string   `json:"slice,omitempty"`
	DecidedBy      string   `json:"decidedBy,omitempty"`
	PrepassReason  string   `json:"prepassReason,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		datalogBackend = flag.Bool("datalog", false, "use the makeP→Datalog backend (Theorem 4.1) instead of the fixpoint engine")
		unroll         = flag.Int("unroll", 0, "unroll looping dis threads k times (bounded under-approximation)")
		maxStates      = flag.Int("max-states", 0, "cap on macro states (0 = unlimited)")
		goalVar        = flag.String("goal-var", "", "Message Generation mode: goal variable")
		goalVal        = flag.Int("goal-val", 0, "Message Generation mode: goal value")
		showGraph      = flag.Bool("graph", false, "print the dependency graph of the violation")
		showClass      = flag.Bool("class", false, "print the system class and exit")
		jsonOut        = flag.Bool("json", false, "emit a machine-readable JSON report")
		confirm        = flag.Bool("confirm", false, "on UNSAFE, confirm with a concrete instance and print its interleaving")
		doSlice        = flag.Bool("slice", false, "run the verdict-preserving slicer before verification")
		progress       = flag.Bool("progress", false, "report search progress to stderr while verifying")
		prepass        = flag.Bool("prepass", true, "try the static abstract-interpretation prepass before searching")
		verbose        = flag.Bool("v", false, "print the per-thread classification signature (acyc/nocas)")
	)
	obsf := obs.RegisterFlags(flag.CommandLine)
	obsf.RegisterRunFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: raverify [flags] system.ra")
		flag.PrintDefaults()
		return 2
	}
	ctx, stop := obsf.Context()
	defer stop()
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raverify:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "raverify:", err)
		}
	}()
	root := sess.Tracer.Start("raverify", nil)
	defer root.End()
	root.SetAttr("file", flag.Arg(0))

	pspan := root.Child("parse")
	sys, err := paramra.ParseFile(flag.Arg(0))
	pspan.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raverify:", err)
		return 2
	}
	if *showClass {
		fmt.Println(paramra.Classify(sys))
		return 0
	}
	var sliceStats paramra.SliceStats
	if *doSlice {
		// The goal variable must survive slicing: the query is about it.
		var keep []string
		if *goalVar != "" {
			keep = append(keep, *goalVar)
		}
		sspan := root.Child("slice")
		sys, sliceStats = paramra.Slice(sys, keep...)
		sspan.End()
	}
	opts := paramra.Options{
		MaxMacroStates: *maxStates,
		UnrollDis:      *unroll,
		Datalog:        *datalogBackend,
		// -graph asks for the violation's dependency graph, an artifact only
		// the fixpoint search produces — it overrides the static fast path.
		Prepass:   *prepass && !*showGraph,
		Tracer:    sess.Tracer,
		TraceSpan: root,
		Metrics:   sess.Metrics,
	}
	if *goalVar != "" {
		opts.Goal = &paramra.Goal{Var: *goalVar, Val: *goalVal}
	}
	// Strict validation up front: a typo like -max-states=-1 dies with the
	// offending flag named instead of being silently clamped mid-run.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "raverify:", err)
		return 2
	}
	if *progress {
		opts.Progress = func(s paramra.Stats) {
			fmt.Fprintf(os.Stderr, "raverify: %d macro states, %d dedup hits, frontier peak %d, %s\n",
				s.MacroStates, s.DedupHits, s.PeakFrontier, s.Wall.Round(time.Millisecond))
		}
	}
	res, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "raverify: interrupted (%v) after %d macro states; verdict unknown\n",
				ctx.Err(), res.Stats.MacroStates)
			return 2
		}
		fmt.Fprintln(os.Stderr, "raverify:", err)
		return 2
	}
	// The verdict spelling is shared with the raserved wire API, so the CLI
	// and the service cannot drift.
	verdict := serve.Verdict(res)
	if *jsonOut {
		rep := jsonReport{
			System: sys.Name, Class: res.Class.String(), Verdict: verdict,
			Slice:    sliceDesc(*doSlice, sliceStats),
			Complete: res.Complete, Underapprox: res.Underapprox,
			MacroStates: res.Stats.MacroStates, DisTransitions: res.Stats.DisTransitions,
			EnvConfigs: res.Stats.EnvConfigs, EnvMsgs: res.Stats.EnvMsgs,
			EnvThreadBound: res.EnvThreadBound, Witness: res.Witness,
			WallMS:    res.Stats.Wall.Milliseconds(),
			DecidedBy: res.DecidedBy, PrepassReason: res.PrepassReason,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "raverify:", err)
			return 2
		}
		if res.Unsafe {
			return 1
		}
		return 0
	}
	fmt.Printf("system:   %s\n", sys.Name)
	fmt.Printf("class:    %s\n", res.Class)
	if *verbose {
		printThreadSignature(sys)
	}
	if *doSlice {
		fmt.Printf("slice:    %s\n", sliceStats)
	}
	fmt.Printf("verdict:  %s\n", verdict)
	if res.DecidedBy != "" {
		fmt.Printf("decided:  %s\n", res.DecidedBy)
	}
	if res.DecidedBy == "prepass" {
		fmt.Printf("reason:   %s\n", res.PrepassReason)
		if res.Unsafe && res.EnvThreadBound >= 0 {
			fmt.Printf("bound:    %d env thread(s) suffice (confirming instance)\n", res.EnvThreadBound)
		}
		if res.Unsafe && len(res.Witness) > 0 {
			fmt.Println("confirming interleaving:")
			for _, w := range res.Witness {
				fmt.Println("  ", w)
			}
		}
		if res.Unsafe {
			return 1
		}
		return 0
	}
	if !*datalogBackend {
		fmt.Printf("stats:    macro-states=%d dis-transitions=%d env-configs=%d env-msgs=%d\n",
			res.Stats.MacroStates, res.Stats.DisTransitions, res.Stats.EnvConfigs, res.Stats.EnvMsgs)
	} else {
		fmt.Printf("stats:    skeletons=%d facts=%d rules=%d fixpoint-rounds=%d atoms=%d\n",
			res.Stats.Skeletons, res.Stats.DatalogFacts, res.Stats.DatalogRules,
			res.Stats.FixpointRounds, res.Stats.DatalogAtoms)
	}
	if res.Unsafe && res.EnvThreadBound >= 0 {
		fmt.Printf("bound:    %d env thread(s) suffice (§4.3 cost bound)\n", res.EnvThreadBound)
	}
	if res.Unsafe && len(res.Witness) > 0 {
		fmt.Println("violating thread read, in order:")
		for _, w := range res.Witness {
			fmt.Println("  ", w)
		}
	}
	if *showGraph && res.Graph != nil {
		fmt.Println("\ndependency graph:")
		fmt.Print(res.Graph.String())
	}
	if *confirm && res.Unsafe {
		n, witness, err := paramra.ConfirmViolation(ctx, sys, res, 8, paramra.Options{
			MaxStates: 2_000_000,
			Tracer:    sess.Tracer,
			TraceSpan: root,
			Metrics:   sess.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "raverify: confirmation failed:", err)
		} else {
			fmt.Printf("\nconfirmed with %d env thread(s); interleaving:\n%s", n, witness)
		}
	}
	if res.Unsafe {
		return 1
	}
	return 0
}

// printThreadSignature lists every thread's classification with its name,
// one line per thread (the -v expansion of the class signature).
func printThreadSignature(sys *paramra.System) {
	fmt.Println("threads:")
	if sys.Env != nil {
		fmt.Printf("  env %-12s %s\n", sys.Env.Name, paramra.ClassifyProgram(sys.Env))
	}
	for _, d := range sys.Dis {
		fmt.Printf("  dis %-12s %s\n", d.Name, paramra.ClassifyProgram(d))
	}
	fmt.Printf("decidable: %v\n", paramra.Classify(sys).Decidable())
}

// sliceDesc renders the slice stats for the JSON report ("" when -slice is
// off, so the field is omitted).
func sliceDesc(sliced bool, stats paramra.SliceStats) string {
	if !sliced {
		return ""
	}
	return stats.String()
}
