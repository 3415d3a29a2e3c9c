package fuzzgen

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"paramra"
	"paramra/internal/cache"
	"paramra/internal/lang"
)

// Backend names used in verdicts, disagreement kinds and fault injection.
const (
	BackendFixpoint = "fixpoint"
	BackendDatalog  = "datalog"
	BackendSlice    = "slice"
	BackendConcrete = "concrete"
	BackendConfirm  = "confirm"
	BackendPrepass  = "prepass"
	BackendCache    = "cache"
)

// CheckOptions bounds the differential oracle. The zero value selects the
// defaults noted on each field.
type CheckOptions struct {
	// MaxMacroStates caps the fixpoint search (default 4000).
	MaxMacroStates int
	// MaxStates caps each concrete instance exploration (default 20000).
	MaxStates int
	// MaxSkeletons caps Datalog dis-run enumeration (default 3000).
	MaxSkeletons int
	// UnrollDis is the unroll factor applied once, up front, to systems
	// with cyclic dis threads; all backends then see the same acyclic
	// system (default 2).
	UnrollDis int
	// ConfirmMaxN caps env-thread counts for concrete confirmation
	// (default 2).
	ConfirmMaxN int
	// NoDatalog / NoConcrete / NoPrepass / NoCache skip the corresponding
	// backends (for narrow campaigns).
	NoDatalog  bool
	NoConcrete bool
	NoPrepass  bool
	NoCache    bool
	// InjectFault, when non-nil, post-processes each backend's boolean
	// verdict. It exists so the shrinker's acceptance tests and the
	// `rabench fuzz -selftest` smoke can prove the harness detects and
	// minimizes a lying backend; production campaigns leave it nil.
	InjectFault func(backend string, sys *lang.System, unsafe bool) bool
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.MaxMacroStates == 0 {
		o.MaxMacroStates = 4000
	}
	if o.MaxStates == 0 {
		o.MaxStates = 20000
	}
	if o.MaxSkeletons == 0 {
		o.MaxSkeletons = 3000
	}
	if o.UnrollDis == 0 {
		o.UnrollDis = 2
	}
	if o.ConfirmMaxN == 0 {
		o.ConfirmMaxN = 2
	}
	return o
}

// Verdict is one backend's answer.
type Verdict struct {
	Backend  string
	Ran      bool // false when the backend does not apply to this system
	Unsafe   bool
	Complete bool
	// ErrClass is "" on success, else one of "env-cas", "dis-cyclic",
	// "cancelled", or "other:<message>".
	ErrClass string
	Detail   string
}

func (v Verdict) String() string {
	if !v.Ran {
		return fmt.Sprintf("%s: skipped (%s)", v.Backend, v.Detail)
	}
	if v.ErrClass != "" {
		return fmt.Sprintf("%s: error %s", v.Backend, v.ErrClass)
	}
	return fmt.Sprintf("%s: unsafe=%v complete=%v", v.Backend, v.Unsafe, v.Complete)
}

// definitive verdict helpers: an UNSAFE answer is a witness and always
// definitive; a SAFE answer is definitive only when the search completed.
func (v Verdict) definitiveUnsafe() bool { return v.Ran && v.ErrClass == "" && v.Unsafe }
func (v Verdict) definitiveSafe() bool {
	return v.Ran && v.ErrClass == "" && !v.Unsafe && v.Complete
}

// Disagreement is one cross-backend inconsistency. Kind is stable under
// shrinking (the shrinker preserves it); Detail is free-form.
type Disagreement struct {
	Kind   string
	Detail string
}

func (d Disagreement) String() string { return d.Kind + ": " + d.Detail }

// Report is the oracle's full answer for one system.
type Report struct {
	Class         string
	Unrolled      bool
	Verdicts      []Verdict
	Disagreements []Disagreement
}

// Agree reports whether every backend pair was consistent.
func (r *Report) Agree() bool { return len(r.Disagreements) == 0 }

// Verdict returns the named backend's verdict (zero Verdict if absent).
func (r *Report) Verdict(backend string) Verdict {
	for _, v := range r.Verdicts {
		if v.Backend == backend {
			return v
		}
	}
	return Verdict{Backend: backend}
}

func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, paramra.ErrEnvCAS):
		return "env-cas"
	case errors.Is(err, paramra.ErrDisCyclic):
		return "dis-cyclic"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "other:" + err.Error()
	}
}

// Check runs every applicable backend on sys and cross-checks the results.
// It never modifies sys. Cancellation surfaces as "cancelled" verdicts and
// suppresses the comparisons involving them (a cancelled run is not
// evidence of anything).
func Check(ctx context.Context, sys *lang.System, opts CheckOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{Class: lang.Classify(sys).String()}

	// Normalize cyclic dis threads once so every backend, including the
	// concrete one, answers the question about the same acyclic system.
	work := sys
	if cls := lang.Classify(sys); hasCyclicDis(cls) {
		work = lang.UnrollSystem(sys, opts.UnrollDis)
		rep.Unrolled = true
	}

	base := paramra.Options{
		MaxMacroStates: opts.MaxMacroStates,
		MaxStates:      opts.MaxStates,
		MaxSkeletons:   opts.MaxSkeletons,
	}

	applyFault := func(backend string, unsafe bool) bool { return fault(opts, backend, work, unsafe) }
	disagree := func(kind, format string, args ...any) {
		rep.Disagreements = append(rep.Disagreements, Disagreement{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	// Backend 1: simplified-semantics fixpoint (the reference).
	fixRes, fixErr := paramra.Verify(ctx, work, base)
	fix := Verdict{
		Backend: BackendFixpoint, Ran: true,
		Unsafe:   applyFault(BackendFixpoint, fixRes.Unsafe),
		Complete: fixRes.Complete,
		ErrClass: classifyErr(fixErr),
	}
	rep.Verdicts = append(rep.Verdicts, fix)
	// A fixpoint UNSAFE carries the dependency graph (Definition 1) of its
	// violating computation, rebuilt from the provenance on its messages;
	// one that fails to resolve comes back as an error. With no goal, that
	// is the fixpoint's only error outside the classes above, and it is
	// reported here too: comparePair sees it only when another backend
	// decides the same system.
	if strings.HasPrefix(fix.ErrClass, "other:") {
		disagree("depgraph", "fixpoint violation has no dependency graph: %s", fix.ErrClass)
	}

	// Backend 2: makeP → Datalog (Theorem 4.1). Needs an env program.
	if !opts.NoDatalog {
		dl := Verdict{Backend: BackendDatalog}
		if work.Env == nil {
			dl.Detail = "no env program"
		} else {
			dopts := base
			dopts.Datalog = true
			// The Datalog backend always grounds with abstract-value hints,
			// and base runs no prepass in front of it: every seed then
			// differentially checks the hinted encoding against the
			// fixpoint reference.
			dRes, dErr := paramra.Verify(ctx, work, dopts)
			dl.Ran = true
			dl.Unsafe = applyFault(BackendDatalog, dRes.Unsafe)
			dl.Complete = dRes.Complete
			dl.ErrClass = classifyErr(dErr)
		}
		rep.Verdicts = append(rep.Verdicts, dl)
		comparePair(rep, disagree, fix, dl)
	}

	// Backend 3: verdict-preserving slicer in front of the fixpoint.
	{
		sliced, _ := paramra.Slice(work)
		sRes, sErr := paramra.Verify(ctx, sliced, base)
		sl := Verdict{
			Backend: BackendSlice, Ran: true,
			Unsafe:   applyFault(BackendSlice, sRes.Unsafe),
			Complete: sRes.Complete,
			ErrClass: classifyErr(sErr),
		}
		rep.Verdicts = append(rep.Verdicts, sl)
		comparePair(rep, disagree, fix, sl)
	}

	// Backend 4: bounded concrete RA exploration (Figure 2) of small
	// instances. An UNSAFE instance refutes a definitive SAFE symbolic
	// verdict outright; for env-less systems an exhausted instance search
	// is the exact parameterized answer.
	if !opts.NoConcrete {
		conc := checkConcrete(ctx, rep, disagree, work, fix, opts)
		rep.Verdicts = append(rep.Verdicts, conc)
	}

	// Backend 5: when the fixpoint proves UNSAFE, Theorem 3.4 promises a
	// concrete instance within the §4.3 env-thread bound. Failing to
	// confirm with uncapped instance searches inside that bound is a
	// disagreement.
	if !opts.NoConcrete && fix.definitiveUnsafe() && fix.ErrClass == "" && fixRes.Unsafe {
		cf := Verdict{Backend: BackendConfirm}
		n, _, err := paramra.ConfirmViolation(ctx, work, fixRes, opts.ConfirmMaxN, base)
		var ce *paramra.ConfirmError
		switch {
		case err == nil:
			cf.Ran, cf.Unsafe, cf.Complete = true, true, true
			cf.Detail = fmt.Sprintf("confirmed with %d env threads", n)
		case errors.As(err, &ce):
			cf.Ran = true
			cf.Detail = ce.Error()
			switch {
			case ce.Err != nil:
				cf.ErrClass = classifyErr(ce.Err)
			case ce.StateCapHit:
				// Inconclusive: raise MaxStates to decide.
			case fixRes.EnvThreadBound >= 0 && fixRes.EnvThreadBound <= int64(opts.ConfirmMaxN):
				// The full §4.3 bound was searched exhaustively and no
				// instance exhibits the violation: Theorem 3.4 is broken.
				disagree("confirm", "fixpoint UNSAFE (env-thread bound %d) but no concrete instance within the bound confirms: %v",
					fixRes.EnvThreadBound, ce)
			}
		default:
			cf.ErrClass = classifyErr(err)
		}
		rep.Verdicts = append(rep.Verdicts, cf)
	}

	// Backend 6: the static abstract-interpretation prepass. It never
	// errors — it decides systems the symbolic backends reject (env CAS,
	// cyclic dis) — so it joins only the definitive-vs-definitive
	// comparisons, never the error-shape ones. Both of its fast paths claim
	// soundness (SAFE: abstract proof for every replica count; UNSAFE:
	// concrete replayed witness), so any definitive conflict with another
	// backend is a real bug in one of them.
	if !opts.NoPrepass {
		pre := Verdict{Backend: BackendPrepass, Ran: true}
		pout, perr := paramra.Prepass(ctx, work, base)
		if perr != nil {
			pre.ErrClass = classifyErr(perr)
		} else {
			pre.Detail = pout.Reason
			pre.Unsafe = applyFault(BackendPrepass, pout.Verdict == paramra.PrepassUnsafe)
			// An inconclusive outcome is a non-definitive SAFE: never
			// compared, never a disagreement.
			pre.Complete = pout.Verdict != paramra.PrepassInconclusive
		}
		for _, other := range rep.Verdicts {
			comparePrepass(disagree, pre, other)
		}
		rep.Verdicts = append(rep.Verdicts, pre)
	}

	// Backend 7: the content-addressed verdict cache. Three runs through a
	// fresh cache — cold, warm (identical resubmission), and a renamed
	// clone — must agree with each other, and the cold run must agree with
	// the fixpoint reference like any other backend.
	if !opts.NoCache {
		cc := checkCache(ctx, disagree, work, opts, base)
		rep.Verdicts = append(rep.Verdicts, cc)
		comparePair(rep, disagree, fix, cc)
	}
	return rep
}

// comparePair cross-checks two backends that decide the same problem
// exactly: their error classes must match, and definitive verdicts must not
// conflict. The slice backend alone may answer where a is rejected, because
// the slicer may remove the very statements that put a system outside a
// class (e.g. a dis loop behind a never-true assume). Every other backend,
// the cache included, sees the submitted system up to names and dis order.
// Cancelled runs are not compared.
func comparePair(rep *Report, disagree func(kind, format string, args ...any), a, b Verdict) {
	if !a.Ran || !b.Ran || a.ErrClass == "cancelled" || b.ErrClass == "cancelled" {
		return
	}
	kind := "verdict:" + a.Backend + "/" + b.Backend
	if a.ErrClass != b.ErrClass {
		if b.Backend == BackendSlice && b.ErrClass == "" {
			return
		}
		disagree("error-shape:"+a.Backend+"/"+b.Backend, "%s vs %s", a, b)
		return
	}
	if a.ErrClass != "" {
		return // both rejected identically
	}
	if (a.definitiveUnsafe() && b.definitiveSafe()) || (a.definitiveSafe() && b.definitiveUnsafe()) {
		disagree(kind, "%s vs %s", a, b)
	}
}

// comparePrepass cross-checks the prepass against another backend on
// definitive verdicts only. Error shapes are exempt by design: the prepass
// answers for systems the symbolic backends reject.
func comparePrepass(disagree func(kind, format string, args ...any), pre, other Verdict) {
	if !pre.Ran || !other.Ran || pre.ErrClass != "" || other.ErrClass != "" {
		return
	}
	if (pre.definitiveUnsafe() && other.definitiveSafe()) ||
		(pre.definitiveSafe() && other.definitiveUnsafe()) {
		disagree("verdict:prepass/"+other.Backend, "%s vs %s", pre, other)
	}
}

// checkConcrete explores bounded instances of work and cross-checks them
// against the fixpoint verdict.
func checkConcrete(ctx context.Context, rep *Report, disagree func(kind, format string, args ...any), work *lang.System, fix Verdict, opts CheckOptions) Verdict {
	conc := Verdict{Backend: BackendConcrete}
	maxN := opts.ConfirmMaxN
	if work.Env == nil {
		maxN = 0
	}
	anyUnsafe, allComplete, ran := false, true, false
	for n := 0; n <= maxN; n++ {
		if !canInstance(work, n) {
			continue
		}
		res, err := paramra.VerifyInstance(ctx, work, n, paramra.Options{MaxStates: opts.MaxStates})
		if cls := classifyErr(err); cls != "" {
			conc.ErrClass = cls
			conc.Detail = fmt.Sprintf("instance n=%d: %v", n, err)
			return conc
		}
		ran = true
		if fault(opts, BackendConcrete, work, res.Unsafe) {
			anyUnsafe = true
		}
		if !res.Complete {
			allComplete = false
		}
	}
	if !ran {
		conc.Detail = "no explorable instance"
		return conc
	}
	conc.Ran = true
	conc.Unsafe = anyUnsafe
	// Complete (definitive SAFE) only for env-less systems whose single
	// instance is the whole parameterized system.
	conc.Complete = work.Env == nil && allComplete
	if fix.ErrClass == "" {
		if conc.definitiveUnsafe() && fix.definitiveSafe() {
			disagree("verdict:concrete/fixpoint", "a concrete instance violates but the fixpoint proved SAFE (%s vs %s)", conc, fix)
		}
		if conc.definitiveSafe() && fix.definitiveUnsafe() {
			disagree("verdict:concrete/fixpoint", "exhaustive concrete search is SAFE but the fixpoint reported UNSAFE (%s vs %s)", conc, fix)
		}
	}
	return conc
}

// checkCache drives work through a fresh verdict cache three times — cold
// (populating), warm (identical resubmission), and a seeded renamed clone —
// and demands lattice-equal verdicts from all three plus a cache hit on the
// warm runs whenever the cold verdict was storable (complete, error-free).
// The returned Verdict records the cold run for the cross-backend
// comparisons; the warm/renamed checks are internal consistency and surface
// as "cache-consistency" disagreements.
func checkCache(ctx context.Context, disagree func(kind, format string, args ...any), work *lang.System, opts CheckOptions, base paramra.Options) Verdict {
	copts := base
	copts.Cache = paramra.NewCache(paramra.CacheOptions{MaxEntries: 64})

	cold, coldErr := paramra.Verify(ctx, work, copts)
	cc := Verdict{
		Backend: BackendCache, Ran: true,
		Unsafe:   fault(opts, BackendCache, work, cold.Unsafe),
		Complete: cold.Complete,
		ErrClass: classifyErr(coldErr),
	}
	if cc.ErrClass == "cancelled" {
		return cc
	}
	storable := coldErr == nil && cold.Complete

	check := func(label string, sys *lang.System) {
		res, err := paramra.Verify(ctx, sys, copts)
		cls := classifyErr(err)
		if cls == "cancelled" {
			return
		}
		if cls != cc.ErrClass {
			disagree("cache-consistency", "%s run error %q vs cold error %q", label, cls, cc.ErrClass)
			return
		}
		if cls != "" {
			return
		}
		if res.Unsafe != cold.Unsafe || res.Complete != cold.Complete {
			disagree("cache-consistency", "%s run (unsafe=%v complete=%v) vs cold (unsafe=%v complete=%v)",
				label, res.Unsafe, res.Complete, cold.Unsafe, cold.Complete)
		}
		if storable && !res.CacheHit {
			disagree("cache-consistency", "%s run missed the cache despite a storable cold verdict", label)
		}
	}
	check("warm", work)
	check("renamed", cache.Rename(work, 1))
	return cc
}

func fault(opts CheckOptions, backend string, sys *lang.System, unsafe bool) bool {
	if opts.InjectFault != nil {
		return opts.InjectFault(backend, sys, unsafe)
	}
	return unsafe
}

func hasCyclicDis(cls lang.SystemClass) bool {
	for _, d := range cls.Dis {
		if !d.Acyclic {
			return true
		}
	}
	return false
}

// canInstance reports whether ra.NewInstance(work, n) is well-defined.
func canInstance(work *lang.System, n int) bool {
	return n == 0 || work.Env != nil
}
