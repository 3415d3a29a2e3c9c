package fuzzgen

import (
	"context"
	"strings"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

// fastCheck keeps unit-test oracle runs quick: tight caps.
func fastCheck() CheckOptions {
	return CheckOptions{
		MaxMacroStates: 2000,
		MaxStates:      8000,
		MaxSkeletons:   1500,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range ProfileNames() {
		prof, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("ProfileByName(%q) missing", name)
		}
		for seed := int64(0); seed < 20; seed++ {
			a := lang.Print(Generate(seed, prof))
			b := lang.Print(Generate(seed, prof))
			if a != b {
				t.Fatalf("profile %s seed %d: nondeterministic generation:\n%s\nvs\n%s", name, seed, a, b)
			}
		}
	}
}

func TestGenerateRoundTrips(t *testing.T) {
	// Every generated system must survive print -> parse -> print exactly;
	// this locks the printer/parser pair against the generator's full
	// feature surface (CAS operand parenthesization regressed here once).
	for _, name := range ProfileNames() {
		prof, _ := ProfileByName(name)
		for seed := int64(0); seed < 50; seed++ {
			sys := Generate(seed, prof)
			src := lang.Print(sys)
			back, err := lang.ParseSystem(src)
			if err != nil {
				t.Fatalf("profile %s seed %d: reparse failed: %v\n%s", name, seed, err, src)
			}
			if got := lang.Print(back); got != src {
				t.Fatalf("profile %s seed %d: print not a fixpoint:\n%s\nvs\n%s", name, seed, src, got)
			}
		}
	}
}

func TestGenerateProfilesCoverFeatures(t *testing.T) {
	// The envcas profile must actually produce env CAS sometimes, loops must
	// produce cyclic dis threads sometimes, etc. — otherwise the campaign
	// silently stops exercising those backends' error paths.
	saw := map[string]bool{}
	for seed := int64(0); seed < 200; seed++ {
		if p, _ := ProfileByName("envcas"); true {
			cls := lang.Classify(Generate(seed, p))
			if cls.HasEnv && !cls.Env.NoCAS {
				saw["envcas"] = true
			}
		}
		if p, _ := ProfileByName("loops"); true {
			if hasCyclicDis(lang.Classify(Generate(seed, p))) {
				saw["cyclic-dis"] = true
			}
		}
		if p, _ := ProfileByName("default"); true {
			sys := Generate(seed, p)
			if sys.Env != nil && len(sys.Dis) > 0 {
				saw["env+dis"] = true
			}
		}
	}
	for _, want := range []string{"envcas", "cyclic-dis", "env+dis"} {
		if !saw[want] {
			t.Errorf("200 seeds never produced feature %q", want)
		}
	}
}

func TestCheckAgreesOnSeeds(t *testing.T) {
	// A miniature campaign across the profile mix: every disagreement here
	// is a real cross-backend bug (or an oracle bug) and must fail loudly.
	for _, name := range []string{"default", "small", "loops", "envcas", "nocas"} {
		prof, _ := ProfileByName(name)
		for seed := int64(0); seed < 15; seed++ {
			rep := Check(context.Background(), Generate(seed, prof), fastCheck())
			if !rep.Agree() {
				t.Errorf("profile %s seed %d (%s): %d disagreement(s):", name, seed, rep.Class, len(rep.Disagreements))
				for _, d := range rep.Disagreements {
					t.Errorf("  %s", d)
				}
				for _, v := range rep.Verdicts {
					t.Logf("  verdict %s", v)
				}
			}
		}
	}
}

func TestCheckFixpointUnsafeHasDependencyGraph(t *testing.T) {
	// peterson-ra-rmwfence's fixpoint UNSAFE must carry the dependency graph
	// of its violating computation: one whose dis messages took their
	// provenance from another path had a dangling dependency, no graph and
	// no §4.3 bound, and the oracle reports that as a depgraph disagreement.
	e, ok := bench.ByName("peterson-ra-rmwfence")
	if !ok {
		t.Fatal("corpus entry peterson-ra-rmwfence missing")
	}
	rep := Check(context.Background(), e.System(), CheckOptions{
		MaxMacroStates: 200_000,
		NoDatalog:      true,
		NoConcrete:     true,
		NoPrepass:      true,
		NoCache:        true,
	})
	if v := rep.Verdict(BackendFixpoint); !v.definitiveUnsafe() {
		t.Fatalf("fixpoint verdict %s, want UNSAFE", v)
	}
	for _, d := range rep.Disagreements {
		t.Errorf("disagreement: %s", d)
	}
}

func TestCheckRejectsEnvCASIdentically(t *testing.T) {
	// A hand-built env-CAS system is outside the decidable class; all
	// symbolic backends must report the same error class, so the report
	// agrees and the fixpoint verdict carries "env-cas".
	src := `system envcas { vars x; domain 2; env p; dis d }
thread p { regs r; cas x 0 1 }
thread d { regs s; s = load x; assume s == 1; assert false }`
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(context.Background(), sys, fastCheck())
	if !rep.Agree() {
		t.Fatalf("env-cas system produced disagreements: %v", rep.Disagreements)
	}
	if got := rep.Verdict(BackendFixpoint).ErrClass; got != "env-cas" {
		t.Fatalf("fixpoint ErrClass = %q, want env-cas", got)
	}
}

func TestCheckRunsPrepassBackend(t *testing.T) {
	// The prepass backend must appear in every report (it never skips), and
	// its definitive verdicts must join the lattice: a lying prepass gets
	// caught exactly like a lying symbolic backend.
	src := `system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }`
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(context.Background(), sys, fastCheck())
	if !rep.Agree() {
		t.Fatalf("honest backends disagreed: %v", rep.Disagreements)
	}
	pre := rep.Verdict(BackendPrepass)
	if !pre.Ran {
		t.Fatal("prepass backend missing from the report")
	}
	if !pre.definitiveUnsafe() {
		t.Fatalf("prepass should decide prodcons UNSAFE, got %s", pre)
	}

	// Now make the prepass lie (claim SAFE-definitive on an unsafe system is
	// not expressible through the bool hook, so invert: claim UNSAFE on a
	// system everything else proves safe).
	safeSrc := `system mp { vars x y; domain 2; env p; dis c }
thread p { store x 1; store y 1 }
thread c { regs a b; a = load y; assume a == 1; b = load x; assume b == 0; assert false }`
	safeSys, err := lang.ParseSystem(safeSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastCheck()
	opts.InjectFault = func(backend string, _ *lang.System, unsafe bool) bool {
		if backend == BackendPrepass {
			return true // prepass claims a witness it does not have
		}
		return unsafe
	}
	rep = Check(context.Background(), safeSys, opts)
	found := false
	for _, d := range rep.Disagreements {
		if strings.HasPrefix(d.Kind, "verdict:prepass/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lying prepass not caught: %v", rep.Disagreements)
	}

	// NoPrepass removes the backend entirely.
	opts = fastCheck()
	opts.NoPrepass = true
	rep = Check(context.Background(), sys, opts)
	if rep.Verdict(BackendPrepass).Ran {
		t.Fatal("NoPrepass did not skip the prepass backend")
	}
}

func TestShrinkMinimizesInjectedFault(t *testing.T) {
	// Acceptance criterion: a backend that lies must be caught and the
	// counterexample minimized to <= 2 threads and <= 10 statements.
	opts := fastCheck()
	opts.InjectFault = func(backend string, sys *lang.System, unsafe bool) bool {
		if backend == BackendDatalog {
			return !unsafe // datalog inverts every verdict
		}
		return unsafe
	}

	// Find a seed whose report disagrees under the fault (most do: any
	// env-ful system with a definitive fixpoint verdict).
	var sys *lang.System
	var kind string
	prof, _ := ProfileByName("default")
	for seed := int64(0); seed < 50; seed++ {
		cand := Generate(seed, prof)
		rep := Check(context.Background(), cand, opts)
		if !rep.Agree() {
			sys, kind = cand, rep.Disagreements[0].Kind
			break
		}
	}
	if sys == nil {
		t.Fatal("no seed in 0..49 triggered the injected datalog fault")
	}

	pred := func(c *lang.System) bool {
		for _, d := range Check(context.Background(), c, opts).Disagreements {
			if d.Kind == kind {
				return true
			}
		}
		return false
	}
	min := Shrink(sys, pred, ShrinkOptions{MaxChecks: 400})
	if !pred(min) {
		t.Fatal("shrunk system no longer reproduces the disagreement")
	}
	if n := len(min.Threads()); n > 2 {
		t.Errorf("shrunk system has %d threads, want <= 2:\n%s", n, lang.Print(min))
	}
	if n := StmtCount(min); n > 10 {
		t.Errorf("shrunk system has %d statements, want <= 10:\n%s", n, lang.Print(min))
	}
	if StmtCount(min) >= StmtCount(sys) && StmtCount(sys) > 2 {
		t.Errorf("shrinker made no progress: %d -> %d statements", StmtCount(sys), StmtCount(min))
	}
}

func TestCampaignSelftestPersistsRepro(t *testing.T) {
	dir := t.TempDir()
	check := fastCheck()
	// The lying backend is datalog, so the concrete pass adds nothing to
	// this test except wall time; a real campaign keeps it on.
	check.NoConcrete = true
	check.InjectFault = func(backend string, sys *lang.System, unsafe bool) bool {
		if backend == BackendDatalog {
			return !unsafe
		}
		return unsafe
	}
	reg := obs.NewRegistry()
	res, err := Campaign(context.Background(), CampaignOptions{
		Seeds:        4,
		Profile:      mustProfile(t, "default"),
		Check:        check,
		ShrinkChecks: 200,
		ReproDir:     dir,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disagreed == 0 {
		t.Fatal("self-test campaign found no disagreement despite the injected fault")
	}
	for _, r := range res.Repros {
		if r.Threads > 2 || r.Stmts > 10 {
			t.Errorf("repro seed %d not minimal: %d threads / %d stmts", r.Seed, r.Threads, r.Stmts)
		}
		if r.Path == "" {
			t.Errorf("repro seed %d not persisted", r.Seed)
		}
	}
	loaded, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) == 0 {
		t.Fatal("LoadRepros found nothing in the repro dir")
	}
	for _, r := range loaded {
		if r.Kind == "" || r.Seed == 0 && !strings.Contains(r.Path, "seed0.ra") {
			t.Errorf("repro %s lost its header metadata (kind=%q seed=%d)", r.Path, r.Kind, r.Seed)
		}
	}
	if reg.Counter("paramra_fuzz_seeds_total", "").Value() != int64(res.Seeds) {
		t.Errorf("seeds counter %d != result %d", reg.Counter("paramra_fuzz_seeds_total", "").Value(), res.Seeds)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Campaign(ctx, CampaignOptions{Seeds: 100, Check: fastCheck()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("pre-cancelled campaign not marked Cancelled")
	}
	if res.Seeds != 0 {
		t.Errorf("pre-cancelled campaign checked %d seeds", res.Seeds)
	}
}

func TestLoadReprosMissingDir(t *testing.T) {
	got, err := LoadRepros("testdata/definitely-missing")
	if err != nil || got != nil {
		t.Fatalf("missing dir: got %v, %v; want nil, nil", got, err)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("profile %q missing", name)
	}
	return p
}

func TestCheckRunsCacheBackend(t *testing.T) {
	// The cache backend joins every report unless disabled: cold verdict in
	// the lattice, warm and renamed runs internally consistent.
	src := `system prodcons { vars x y; domain 4; env producer; dis consumer }
thread producer { regs r; r = load y; assume r == 1; store x 2 }
thread consumer { regs s; store y 1; s = load x; assume s == 2; assert false }`
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(context.Background(), sys, fastCheck())
	if !rep.Agree() {
		t.Fatalf("honest backends disagreed: %v", rep.Disagreements)
	}
	cc := rep.Verdict(BackendCache)
	if !cc.Ran {
		t.Fatal("cache backend missing from the report")
	}
	if !cc.definitiveUnsafe() {
		t.Fatalf("cache backend should decide prodcons UNSAFE, got %s", cc)
	}

	// A cache whose cold run lies is caught by the cross-backend lattice.
	opts := fastCheck()
	opts.InjectFault = func(backend string, _ *lang.System, unsafe bool) bool {
		if backend == BackendCache {
			return !unsafe
		}
		return unsafe
	}
	rep = Check(context.Background(), sys, opts)
	found := false
	for _, d := range rep.Disagreements {
		if strings.Contains(d.Kind, "/"+BackendCache) {
			found = true
		}
	}
	if !found {
		t.Fatalf("lying cache backend not caught: %v", rep.Disagreements)
	}

	// NoCache removes the backend entirely.
	opts = fastCheck()
	opts.NoCache = true
	rep = Check(context.Background(), sys, opts)
	if rep.Verdict(BackendCache).Ran {
		t.Fatal("NoCache did not skip the cache backend")
	}
}
