// Command raexplore explores a *fixed instance* of a system under the
// concrete release-acquire semantics (Figure 2 of the paper), reporting
// whether an assertion violation is reachable and, if so, a full
// interleaving witness.
//
// Usage:
//
//	raexplore [-env N] [-max-states M] [-timeout D] system.ra
package main

import (
	"flag"
	"fmt"
	"os"

	"paramra"
	"paramra/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nEnv      = flag.Int("env", 1, "number of environment threads in the instance")
		maxStates = flag.Int("max-states", 1_000_000, "state cap (0 = unlimited)")
		sweep     = flag.Int("sweep", 0, "explore instances with 0..N env threads and report each")
		deadlocks = flag.Bool("deadlocks", false, "classify sink states (terminal vs stuck threads) instead of checking safety")
		prepass   = flag.Bool("prepass", true, "try the static abstract-interpretation prepass before exploring")
	)
	obsf := obs.RegisterFlags(flag.CommandLine)
	obsf.RegisterRunFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: raexplore [flags] system.ra")
		flag.PrintDefaults()
		return 2
	}
	ctx, stop := obsf.Context()
	defer stop()
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raexplore:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "raexplore:", err)
		}
	}()
	root := sess.Tracer.Start("raexplore", nil)
	defer root.End()
	root.SetAttr("file", flag.Arg(0))

	pspan := root.Child("parse")
	sys, err := paramra.ParseFile(flag.Arg(0))
	pspan.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raexplore:", err)
		return 2
	}
	opts := paramra.Options{
		MaxStates: *maxStates,
		Tracer:    sess.Tracer,
		TraceSpan: root,
		Metrics:   sess.Metrics,
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "raexplore:", err)
		return 2
	}
	if *prepass && !*deadlocks {
		// A parameterized SAFE proof covers every instance, so any requested
		// exploration (single n or sweep) can be skipped. An UNSAFE witness
		// transfers only when its replica count matches the request.
		out, perr := paramra.Prepass(ctx, sys, opts)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "raexplore:", perr)
			return 2
		}
		switch {
		case out.Verdict == paramra.PrepassSafe:
			fmt.Printf("instance: %s (all env thread counts)\n", sys.Name)
			fmt.Printf("prepass:  %s\n", out.Reason)
			fmt.Println("verdict:  SAFE (static prepass, every instance)")
			return 0
		case out.Verdict == paramra.PrepassUnsafe && *sweep == 0 && out.EnvThreads == *nEnv:
			fmt.Printf("instance: %s with %d env thread(s)\n", sys.Name, *nEnv)
			fmt.Printf("prepass:  %s\n", out.Reason)
			fmt.Println("verdict:  UNSAFE")
			fmt.Println("witness:")
			fmt.Print(out.Witness)
			return 1
		}
	}
	if *deadlocks {
		rep, err := paramra.FindDeadlocks(ctx, sys, *nEnv, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raexplore:", err)
			return 2
		}
		fmt.Printf("instance: %s with %d env thread(s)\n", sys.Name, *nEnv)
		fmt.Printf("sinks:    %d terminal, %d deadlocked (complete=%v)\n",
			rep.Terminal, rep.Deadlocks, rep.Complete)
		if rep.Deadlocks > 0 {
			fmt.Printf("stuck threads: %v\nexample state:\n%s", rep.StuckThreads, rep.Example)
			return 1
		}
		return 0
	}
	if *sweep > 0 {
		for n := 0; n <= *sweep; n++ {
			res, err := paramra.VerifyInstance(ctx, sys, n, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "raexplore:", err)
				return 2
			}
			fmt.Printf("env=%d: unsafe=%v states=%d complete=%v\n", n, res.Unsafe, res.States, res.Complete)
		}
		return 0
	}
	res, err := paramra.VerifyInstance(ctx, sys, *nEnv, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raexplore:", err)
		return 2
	}
	fmt.Printf("instance: %s with %d env thread(s)\n", sys.Name, *nEnv)
	fmt.Printf("states:   %d (complete=%v)\n", res.States, res.Complete)
	if res.Unsafe {
		fmt.Println("verdict:  UNSAFE")
		fmt.Println("witness:")
		fmt.Print(res.Witness)
		return 1
	}
	fmt.Println("verdict:  SAFE (within explored bounds)")
	return 0
}
