package paramra

import (
	"context"
	"fmt"
)

// The resumable engines of the prepass schedule, run to their end in
// slices for the slice-equivalence tests: with step > 0 the n-th slice
// pauses once the engine has spent n·step meter units, with step 0 the
// engine runs in one slice. Each returns the engine's answer, the number
// of slices, and ok = false when the engine cannot run on the system.

// ReplayInSlicesForTest runs the prepass replay of sys under opts.
func ReplayInSlicesForTest(ctx context.Context, sys *System, opts Options, step int64) (out PrepassOutcome, slices int, ok bool, err error) {
	_, rep := startPrepass(sys, opts)
	if rep == nil {
		return out, 0, false, nil
	}
	slices, err = inSlices(step, func() int64 { return int64(rep.States()) }, func(pause func() bool) (bool, error) {
		o, ended, err := rep.Run(ctx, pause)
		out = o
		return ended, err
	})
	return out, slices, true, err
}

// FixpointInSlicesForTest runs the fixpoint's search of sys under opts, as
// the schedule's backend.
func FixpointInSlicesForTest(ctx context.Context, sys *System, opts Options, step int64) (res Result, slices int, ok bool, err error) {
	ver, err := newFixpoint(sys, opts, nil)
	if err != nil {
		return res, 0, false, nil
	}
	return backendInSlices(ctx, &fixpointBackend{work: sys, base: Result{EnvThreadBound: -1}, search: ver.NewSearch()}, step)
}

// DatalogInSlicesForTest runs the Datalog backend of sys under opts.
func DatalogInSlicesForTest(ctx context.Context, sys *System, opts Options, step int64) (res Result, slices int, ok bool, err error) {
	d := newDatalog(sys, opts, Result{EnvThreadBound: -1})
	if d.prepare() != nil {
		return res, 0, false, nil
	}
	return backendInSlices(ctx, d, step)
}

func backendInSlices(ctx context.Context, b backend, step int64) (res Result, slices int, ok bool, err error) {
	slices, err = inSlices(step, b.units, func(pause func() bool) (bool, error) {
		r, ended, err := b.run(ctx, nil, pause)
		res = r
		return ended, err
	})
	return res, slices, true, err
}

// inSlices calls run until it reports that its engine ended, each time
// with the pause function of the next slice, and returns the number of
// slices.
func inSlices(step int64, units func() int64, run func(pause func() bool) (bool, error)) (int, error) {
	for n := int64(1); ; n++ {
		var pause func() bool
		if step > 0 {
			target := n * step
			pause = func() bool { return units() >= target }
		}
		ended, err := run(pause)
		if ended || err != nil {
			return int(n), err
		}
		if n > 1<<22 {
			return int(n), fmt.Errorf("no end after %d slices", n)
		}
	}
}
