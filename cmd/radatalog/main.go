// Command radatalog is the Datalog side of the toolchain. Given a system
// description (.ra) it decides parameterized safety through the makeP
// encoding (§4.1): paramra.Verify with Options.Datalog runs the prepass,
// walks the dis-run skeletons, and evaluates the ∃-over-skeletons semantics
// of Theorem 4.1 on the engine's workers as the walk emits them, stopping
// at the first instance that derives unsafe(). -dump and -stats instead
// evaluate the query instances one by one, in walk order, listing each. Given a
// plain Datalog file (.dl) it evaluates its `?-` queries directly,
// optionally under a Cache Datalog bound.
//
// Usage:
//
//	radatalog [-dump] [-stats] [-max-skeletons N] [-j N] [-timeout D] system.ra
//	radatalog [-cache k] program.dl
//
// For a system, the verdict line and the exit code are raverify's for the
// same result (0 SAFE, 1 UNSAFE, 2 on errors); a skeleton cap that cut the
// enumeration short without an UNSAFE instance reads UNKNOWN.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"paramra"
	"paramra/internal/datalog"
	"paramra/internal/encode"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dump         = flag.Bool("dump", false, "print the generated Datalog program(s), evaluating them in order")
		maxSkeletons = flag.Int("max-skeletons", 100_000, "cap on dis-run skeleton enumeration (0 = the library default, 100000)")
		stats        = flag.Bool("stats", false, "evaluate the query instances in order, printing each one's rule count")
		cacheBound   = flag.Int("cache", 0, ".dl mode: decide queries under the Cache Datalog bound ⊢_k")
		doSlice      = flag.Bool("slice", false, ".ra mode: run the verdict-preserving slicer before encoding")
		prepass      = flag.Bool("prepass", true, ".ra mode: try the static abstract-interpretation prepass before encoding")
	)
	obsf := obs.RegisterFlags(flag.CommandLine)
	obsf.RegisterRunFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: radatalog [flags] system.ra | program.dl")
		flag.PrintDefaults()
		return 2
	}
	opts := paramra.Options{
		Datalog:      true,
		Prepass:      *prepass,
		MaxSkeletons: *maxSkeletons,
		Parallelism:  obsf.Workers,
	}
	// Strict knob validation with the offending flag named, shared with the
	// library and the service.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	ctx, stop := obsf.Context()
	defer stop()
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "radatalog:", err)
		}
	}()
	root := sess.Tracer.Start("radatalog", nil)
	defer root.End()
	root.SetAttr("file", flag.Arg(0))
	opts.Tracer, opts.TraceSpan, opts.Metrics = sess.Tracer, root, sess.Metrics

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	if strings.HasSuffix(flag.Arg(0), ".dl") {
		return runDatalogFile(string(data), *cacheBound, *dump)
	}
	pspan := root.Child("parse")
	sys, err := lang.ParseSystem(string(data))
	pspan.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	if *doSlice {
		sspan := root.Child("slice")
		var st paramra.SliceStats
		sys, st = paramra.Slice(sys)
		sspan.End()
		fmt.Printf("slice:     %s\n", st)
	}
	fmt.Printf("system:    %s\n", sys.Name)

	list := *stats || *dump
	var res paramra.Result
	if list {
		res, err = listInstances(ctx, sys, opts, *dump, *stats)
	} else {
		res, err = paramra.Verify(ctx, sys, opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "radatalog: interrupted:", ctx.Err())
			return 2
		}
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	// The verdict spelling is shared with raverify and the raserved wire
	// API, so the frontends cannot drift.
	verdict := serve.Verdict(res)
	switch {
	case res.DecidedBy == "prepass":
		fmt.Printf("prepass:   %s — %s\n", verdict, res.PrepassReason)
	case !list:
		fmt.Printf("stats:     skeletons=%d facts=%d rules=%d fixpoint-rounds=%d atoms=%d\n",
			res.Stats.Skeletons, res.Stats.DatalogFacts, res.Stats.DatalogRules,
			res.Stats.FixpointRounds, res.Stats.DatalogAtoms)
	}
	fmt.Printf("verdict:   %s\n", verdict)
	fmt.Printf("decided:   %s\n", res.DecidedBy)
	if res.Unsafe {
		return 1
	}
	return 0
}

// listInstances is the -dump/-stats path. Unless the prepass decides, it
// evaluates the query instances paramra.Verify would evaluate (same cap,
// same grounding) sequentially, in order, as the skeleton walk emits them,
// printing each, and stops at the first that holds, so the listing is
// reproducible line for line. The Result carries only what the listing
// decided.
func listInstances(ctx context.Context, sys *paramra.System, opts paramra.Options, dump, stats bool) (paramra.Result, error) {
	if opts.Prepass {
		out, err := paramra.Prepass(ctx, sys, opts)
		if err != nil || out.Verdict != paramra.PrepassInconclusive {
			return paramra.Result{Unsafe: out.Verdict == paramra.PrepassUnsafe, Complete: true,
				DecidedBy: "prepass", PrepassReason: out.Reason}, err
		}
	}
	res := paramra.Result{DecidedBy: "datalog"}
	// As in paramra.Verify: the shared prefix's model once, then each
	// instance as a continuation of it.
	var model *datalog.DB
	var evalErr error
	complete, err := paramra.DatalogInstances(ctx, sys, opts, func(p *encode.Problem) bool {
		if model == nil {
			if model, _, evalErr = datalog.Eval(ctx, p.Prefix, nil); evalErr != nil {
				return false
			}
		}
		i := res.Stats.Skeletons
		res.Stats.Skeletons++
		var hit bool
		if _, hit, _, evalErr = datalog.Continue(ctx, model, p.Rules, p.Goal, nil); evalErr != nil {
			return false
		}
		if stats || hit {
			fmt.Printf("instance %d: rules=%d query=%v\n", i, len(p.Prefix.Rules)+len(p.Rules), hit)
		}
		if dump {
			fmt.Printf("--- instance %d ---\n%s", i, p.Program().String())
		}
		res.Unsafe = hit
		return !hit
	})
	if err == nil {
		err = evalErr
	}
	if err != nil {
		return res, err
	}
	fmt.Printf("skeletons: %d (exhaustive=%v)\n", res.Stats.Skeletons, complete)
	res.Complete = res.Unsafe || complete
	return res, nil
}

// runDatalogFile evaluates a plain .dl program's queries.
func runDatalogFile(src string, cacheBound int, dump bool) int {
	p, queries, err := datalog.ParseProgram(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "radatalog:", err)
		return 2
	}
	if dump {
		fmt.Print(p.String())
	}
	fmt.Printf("rules=%d linear=%v derivable-atoms=%d\n",
		len(p.Rules), p.IsLinear(), datalog.EvalSemiNaive(p).Size())
	anyFalse := false
	for _, q := range queries {
		var holds bool
		if cacheBound > 0 {
			holds = datalog.QueryCache(p, q, cacheBound)
			fmt.Printf("?- %s  ⊢_%d %v\n", p.GroundString(q), cacheBound, holds)
		} else {
			holds = datalog.Query(p, q)
			fmt.Printf("?- %s  %v\n", p.GroundString(q), holds)
		}
		if !holds {
			anyFalse = true
		}
	}
	if anyFalse {
		return 1
	}
	return 0
}
