// Command ratqbf exercises the PSPACE-hardness reduction of Theorem 5.1:
// it reads a quantified Boolean formula, builds the Figure 6 PureRA system,
// verifies it with the parameterized verifier, and cross-checks the verdict
// against a brute-force QBF evaluation.
//
// Usage:
//
//	ratqbf [-timeout D] 'forall u0 exists e1 forall u1 : (u0 | ~e1) & (e1 | u1)'
//	ratqbf -random -n 2 -clauses 3 -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/simplified"
	"paramra/internal/tqbf"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		random  = flag.Bool("random", false, "generate a random formula instead of reading one")
		n       = flag.Int("n", 1, "existential levels for -random (2n+1 variables)")
		clauses = flag.Int("clauses", 2, "CNF clauses for -random")
		seed    = flag.Int64("seed", 1, "random seed")
		dump    = flag.Bool("dump", false, "print the generated PureRA system")
	)
	obsf := obs.RegisterFlags(flag.CommandLine)
	obsf.RegisterRunFlags(flag.CommandLine)
	flag.Parse()

	var q *tqbf.QBF
	switch {
	case *random:
		q = tqbf.Random(rand.New(rand.NewSource(*seed)), *n, *clauses)
	case flag.NArg() == 1:
		var err error
		q, err = tqbf.Parse(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratqbf:", err)
			return 2
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ratqbf [flags] 'forall u0 exists e1 forall u1 : (u0 | ~e1)'")
		flag.PrintDefaults()
		return 2
	}
	ctx, stop := obsf.Context()
	defer stop()
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratqbf:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ratqbf:", err)
		}
	}()
	root := sess.Tracer.Start("ratqbf", nil)
	defer root.End()

	q = q.Normalize()
	fmt.Printf("formula:  %s\n", q)
	truth := q.Eval()
	fmt.Printf("QBF eval: %v\n", truth)

	rspan := root.Child("reduce")
	sys, err := tqbf.Reduce(q)
	rspan.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratqbf:", err)
		return 2
	}
	fmt.Printf("system:   %d shared variables, class %s, PureRA=%v\n",
		len(sys.Vars), lang.Classify(sys), lang.PureRA(sys))
	if *dump {
		fmt.Println(strings.TrimSpace(lang.Print(sys)))
	}
	v, err := simplified.New(sys, simplified.Options{
		Trace:   root,
		Metrics: sess.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratqbf:", err)
		return 2
	}
	res := v.VerifyContext(ctx)
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "ratqbf: interrupted (%v); verdict unknown\n", res.Err)
		return 2
	}
	fmt.Printf("verifier: unsafe=%v (env-configs=%d, env-msgs=%d, saturation-steps=%d)\n",
		res.Unsafe, res.Stats.EnvConfigs, res.Stats.EnvMsgs, res.Stats.SaturationSteps)
	if res.Unsafe != truth {
		fmt.Println("MISMATCH: Theorem 5.1 violated — this is a bug")
		return 2
	}
	fmt.Println("agreement: verifier verdict matches QBF truth (Theorem 5.1)")
	return 0
}
