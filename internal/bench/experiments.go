package bench

import (
	"context"
	"fmt"
	"time"

	"paramra"
	"paramra/internal/datalog"
	"paramra/internal/depgraph"
	"paramra/internal/encode"
	"paramra/internal/lang"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

// CacheRow is one data point of the Lemma 4.4 cache-size experiment (E8).
type CacheRow struct {
	Name        string
	Q0          int
	Q0Squared   int
	IDBAtoms    int
	MinCache    int
	GraphHeight int
	GraphFanIn  int
	CompactOK   bool
}

// CacheExperiment measures, for small env-only systems, the minimal Cache
// Datalog bound k with Prog ⊢_k g against the paper's O(Q₀²) sufficiency
// bound, plus the dependency-graph compactness measures of Lemma 4.5.
func CacheExperiment() ([]CacheRow, error) {
	cases := []struct {
		name string
		src  string
	}{
		{"env-store", `
system s { vars x f; domain 2; env w }
thread w { regs r; r = load x; assume r == 0; store f 1 }
`},
		{"env-two-step", `
system s { vars x y f; domain 3; env w }
thread w {
  regs r
  choice { store x 1 } or {
    r = load x; assume r == 1
    store f 1
  }
}
`},
		{"env-chain3", `
system s { vars x f; domain 4; env w }
thread w {
  regs r
  choice {
    r = load x; store x (r + 1)
  } or {
    r = load x; assume r == 2
    store f 1
  }
}
`},
	}
	var out []CacheRow
	for _, c := range cases {
		sys := lang.MustParseSystem(c.src)
		fv, ok := sys.VarByName("f")
		if !ok {
			return nil, fmt.Errorf("%s: no goal variable f", c.name)
		}

		// Datalog side: minimal cache for the goal emp/dmp atom.
		p, err := encode.EnvOnly(sys)
		if err != nil {
			return nil, err
		}
		prog := p.Program()
		core, edb := datalog.SplitEDB(prog, p.EDBPreds)
		// Locate the goal atom in the full program (core alone lacks the
		// join tables and derives nothing).
		goal, found := findMsgAtom(prog, "emp", "x:f", "d1")
		if !found {
			return nil, fmt.Errorf("%s: goal atom not derivable", c.name)
		}
		minK := datalog.MinCacheSizeEDB(core, goal, 24, edb)

		// Dependency-graph side.
		v, err := simplified.New(sys, simplified.Options{Goal: &simplified.Goal{Var: fv, Val: 1}, Workers: 1})
		if err != nil {
			return nil, err
		}
		res := v.VerifyContext(context.TODO())
		if !res.Unsafe {
			return nil, fmt.Errorf("%s: goal message not generatable", c.name)
		}
		g, err := depgraph.FromViolation(sys, res.Violation)
		if err != nil {
			return nil, err
		}
		q0 := depgraph.Q0Of(sys)
		out = append(out, CacheRow{
			Name: c.name, Q0: q0, Q0Squared: q0 * q0,
			IDBAtoms:    datalog.EvalSemiNaive(prog).Size(),
			MinCache:    minK,
			GraphHeight: g.Height(), GraphFanIn: g.MaxFanIn(),
			CompactOK: g.Compacted().Compact(),
		})
	}
	return out, nil
}

// findMsgAtom locates a derivable ground atom of the named predicate whose
// first two arguments are the given constants.
func findMsgAtom(p *datalog.Program, predName, varSym, valSym string) (datalog.GroundAtom, bool) {
	db := datalog.EvalSemiNaive(p)
	for _, g := range db.All() {
		if p.Preds[g.Pred].Name != predName || len(g.Args) < 2 {
			continue
		}
		if p.Consts[g.Args[0]] == varSym && p.Consts[g.Args[1]] == valSym {
			return g, true
		}
	}
	return datalog.GroundAtom{}, false
}

// CacheTable formats E8.
func CacheTable(rows []CacheRow) *Table {
	t := &Table{
		Title:   "Lemma 4.4/4.5: cache sizes and dependency-graph compactness",
		Columns: []string{"system", "Q0", "Q0^2 bound", "derivable atoms", "min cache k", "dep height", "dep fan-in", "compacted ok"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Q0, r.Q0Squared, r.IDBAtoms, r.MinCache, r.GraphHeight, r.GraphFanIn, r.CompactOK)
	}
	t.Notes = append(t.Notes, "min cache k is computed by exhaustive Cache-Datalog search (EDB join tables are cache-exempt)")
	return t
}

// ThreadRow is one data point of the §4.3 experiment (E9).
type ThreadRow struct {
	Name      string
	CostBound int64
	ActualMin int
}

// ThreadBoundExperiment compares the §4.3 cost bound with the actual
// minimal number of env threads found by concrete exploration, for the
// unsafe corpus entries that need env threads.
func ThreadBoundExperiment(maxN int) ([]ThreadRow, error) {
	var out []ThreadRow
	for _, e := range Corpus() {
		if e.Want != Unsafe || e.MinEnv <= 0 {
			continue
		}
		sys := e.System()
		v, err := simplified.New(sys, simplified.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		res := v.VerifyContext(context.TODO())
		if !res.Unsafe {
			return nil, fmt.Errorf("%s: expected unsafe", e.Name)
		}
		g, err := depgraph.FromViolation(sys, res.Violation)
		if err != nil {
			return nil, err
		}
		actual, err := MinEnvConcrete(sys, maxN, 2_000_000)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		out = append(out, ThreadRow{Name: e.Name, CostBound: g.CostGoal(), ActualMin: actual})
	}
	return out, nil
}

// ThreadTable formats E9.
func ThreadTable(rows []ThreadRow) *Table {
	t := &Table{
		Title:   "§4.3: env-thread count — cost bound vs actual minimum",
		Columns: []string{"benchmark", "cost(G) bound", "actual min #env"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.CostBound, r.ActualMin)
	}
	t.Notes = append(t.Notes, "cost(G) over-approximates (the paper notes l env threads may suffice where cost says z)")
	return t
}

// AblationRow compares engines on one system (A1/A2).
type AblationRow struct {
	Name            string
	FixpointVerdict bool
	FixpointTime    time.Duration
	DatalogVerdict  bool
	DatalogTime     time.Duration
	Skeletons       int
	ConcreteTimeN2  time.Duration
	ConcreteStates  int
}

// Ablations runs the engine comparison: integrated fixpoint verifier vs the
// makeP→Datalog pipeline (A2), and vs concrete exploration with 2 env
// threads (A1, the "no timestamp abstraction" baseline).
func Ablations() ([]AblationRow, error) {
	names := []string{"prodcons-fig1", "mp-litmus", "rcu", "phoenix-histogram", "env-chain-escalation"}
	var out []AblationRow
	for _, name := range names {
		e, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("missing corpus entry %s", name)
		}
		sys := e.System()

		v, err := simplified.New(sys, simplified.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := v.VerifyContext(context.TODO())
		row := AblationRow{Name: name, FixpointVerdict: res.Unsafe, FixpointTime: time.Since(start)}

		start = time.Now()
		dres, err := paramra.Verify(context.TODO(), sys, paramra.Options{
			Datalog: true, MaxSkeletons: 20_000, Parallelism: 1,
		})
		if err != nil {
			return nil, err
		}
		row.DatalogVerdict = dres.Unsafe
		row.DatalogTime = time.Since(start)
		row.Skeletons = dres.Stats.Skeletons

		inst, err := ra.NewInstance(sys, 2)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		cres := inst.ExploreContext(context.TODO(), ra.Limits{MaxStates: 500_000, Workers: 1})
		row.ConcreteTimeN2 = time.Since(start)
		row.ConcreteStates = cres.States
		out = append(out, row)
	}
	return out, nil
}

// AblationTable formats A1/A2.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:   "Ablations: fixpoint verifier vs Datalog pipeline vs concrete exploration (N=2)",
		Columns: []string{"benchmark", "fixpoint", "t_fix", "datalog", "t_datalog", "skeletons", "t_concrete(N=2)", "concrete states"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, verdictStr(r.FixpointVerdict), r.FixpointTime.Round(time.Microsecond),
			verdictStr(r.DatalogVerdict), r.DatalogTime.Round(time.Microsecond), r.Skeletons,
			r.ConcreteTimeN2.Round(time.Microsecond), r.ConcreteStates)
	}
	t.Notes = append(t.Notes, "concrete exploration decides one instance only; the parameterized engines decide all instances at once")
	return t
}

func verdictStr(unsafe bool) string {
	if unsafe {
		return "UNSAFE"
	}
	return "SAFE"
}
