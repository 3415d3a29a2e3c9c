// Package depgraph implements the dependency graphs of Definition 1, the
// compaction of Lemma 4.5, and the cost function of §4.3 that bounds the
// number of env threads needed to generate a message.
//
// Vertices are the messages of a computation's final memory; there is an
// edge msg' → msg when genthread(msg) — the thread that first added msg —
// read msg' before generating msg, weighted by the read count rc(msg, msg').
// The graphs are reconstructed from the read logs the verifier attaches to
// thread configurations, dis messages and env message entries; their
// message references resolve against the violation's own configuration, so
// node keys carry its (canonical) timestamps.
package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// Kind classifies a node's generating thread.
type Kind int

// Node kinds.
const (
	InitMsg Kind = iota + 1
	EnvMsg
	DisMsg
	// GoalNode is the virtual node for an assert-based violation (the
	// violating thread's "message", cf. §4.1's reduction of safety to MG).
	GoalNode
)

func (k Kind) String() string {
	switch k {
	case InitMsg:
		return "init"
	case EnvMsg:
		return "env"
	case DisMsg:
		return "dis"
	case GoalNode:
		return "goal"
	default:
		return "?"
	}
}

// Node is a vertex of the dependency graph.
type Node struct {
	Key  string
	Kind Kind
	Var  lang.VarID
	Val  lang.Val
	TS   simplified.ATime
	// ByEnv marks a virtual goal node whose violating transition was fired
	// by an env thread: that thread is not part of any instance's dis
	// threads, so it contributes the same +1 to the cost as an env message.
	ByEnv bool
	// Deps maps dependency keys to read counts rc(this, dep).
	Deps map[string]int
}

// Graph is a dependency graph (Definition 1).
type Graph struct {
	Nodes map[string]*Node
	// Goal is the key of the goal message / virtual goal node.
	Goal string
	// Q0 is the paper's parameter |Dom|·|Var| + |dis| for this system.
	Q0 int
}

// goalKey is the virtual node key used for assert violations.
const goalKey = "!goal"

// Q0Of computes Q₀ = |Dom|·|Var| + |dis|, with |dis| measured as the total
// number of control locations of the dis programs.
func Q0Of(sys *lang.System) int {
	disSize := 0
	for _, d := range sys.Dis {
		disSize += lang.Compile(d).NumNodes
	}
	return sys.Dom*len(sys.Vars) + disSize
}

// FromViolation reconstructs the dependency graph of the violating
// computation found by the simplified verifier.
func FromViolation(sys *lang.System, viol *simplified.Violation) (*Graph, error) {
	if viol == nil {
		return nil, fmt.Errorf("depgraph: nil violation")
	}
	return FromResolved(sys, viol, viol.Resolver())
}

// FromResolved is FromViolation with the violation's message references
// resolved by names, which must be viol.Resolver(): a caller that also
// resolves the witness builds that index once.
func FromResolved(sys *lang.System, viol *simplified.Violation, names *simplified.Resolver) (*Graph, error) {
	g := &Graph{Nodes: map[string]*Node{}, Q0: Q0Of(sys)}
	var err error
	counts := func(log *simplified.ReadLog) map[string]int {
		keys, kerr := names.Keys(log)
		if kerr != nil && err == nil {
			err = fmt.Errorf("depgraph: %w", kerr)
		}
		out := map[string]int{}
		for _, k := range keys {
			out[k]++
		}
		return out
	}

	addMsg := func(m simplified.AMsg, kind Kind, log *simplified.ReadLog) {
		k := m.Key()
		if _, ok := g.Nodes[k]; ok {
			return
		}
		g.Nodes[k] = &Node{
			Key: k, Kind: kind, Var: m.Var, Val: m.Val, TS: m.TS,
			Deps: counts(log),
		}
	}

	// Dis memory: init messages (timestamp 0) and dis stores.
	if viol.Mem != nil {
		for v := 0; v < viol.Mem.NumVars(); v++ {
			viol.Mem.Each(lang.VarID(v), func(m simplified.AMsg) {
				if m.TS == simplified.Int(0) {
					addMsg(m, InitMsg, nil)
					return
				}
				addMsg(m, DisMsg, m.GenLog)
			})
		}
	}
	// Env messages.
	if viol.Env != nil {
		for _, me := range viol.Env.Msgs {
			addMsg(me.Msg, EnvMsg, me.Log)
		}
	}

	// Goal node.
	if viol.GoalMsg != nil {
		m := *viol.GoalMsg
		k := m.Key()
		if _, ok := g.Nodes[k]; !ok {
			kind := DisMsg
			if viol.ByEnv {
				kind = EnvMsg
			}
			if m.TS == simplified.Int(0) {
				kind = InitMsg
			}
			g.Nodes[k] = &Node{
				Key: k, Kind: kind, Var: m.Var, Val: m.Val, TS: m.TS,
				Deps: counts(viol.Log),
			}
		}
		g.Goal = k
	} else {
		g.Nodes[goalKey] = &Node{Key: goalKey, Kind: GoalNode, ByEnv: viol.ByEnv, Deps: counts(viol.Log)}
		g.Goal = goalKey
	}
	if err != nil {
		return nil, err
	}

	// Sanity: every dependency must resolve to a node.
	for _, n := range g.Nodes {
		for dep := range n.Deps {
			if _, ok := g.Nodes[dep]; !ok {
				return nil, fmt.Errorf("depgraph: dangling dependency %s of %s", dep, n.Key)
			}
		}
	}
	return g, nil
}

// HeightOf returns the height of a node: the length of the longest
// dependency path from a source to it.
func (g *Graph) HeightOf(key string) int {
	memo := map[string]int{}
	var h func(string) int
	h = func(k string) int {
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = 0 // break accidental cycles defensively
		best := 0
		for dep := range g.Nodes[k].Deps {
			if d := 1 + h(dep); d > best {
				best = d
			}
		}
		memo[k] = best
		return best
	}
	return h(key)
}

// Height returns the maximal height over all vertices (height(G)).
func (g *Graph) Height() int {
	best := 0
	for k := range g.Nodes {
		if h := g.HeightOf(k); h > best {
			best = h
		}
	}
	return best
}

// FanIn returns |depend(v)| for the node.
func (g *Graph) FanIn(key string) int { return len(g.Nodes[key].Deps) }

// MaxFanIn returns the largest fan-in in the graph.
func (g *Graph) MaxFanIn() int {
	best := 0
	for k := range g.Nodes {
		if f := g.FanIn(k); f > best {
			best = f
		}
	}
	return best
}

// Compact reports whether the graph satisfies the Lemma 4.5 bounds:
// every fan-in and the height are at most Q₀.
func (g *Graph) Compact() bool {
	return g.MaxFanIn() <= g.Q0 && g.Height() <= g.Q0
}

// Cost computes the §4.3 cost of a node:
//
//	cost(init) = 0
//	cost(env)  = 1 + Σ rc·cost(dep)
//	cost(dis)  = Σ rc·cost(dep)
//
// A virtual goal node costs like its generating thread kind: an assert
// fired by an env thread (Node.ByEnv) pays the same +1 as an env message,
// since that thread exists in no instance's dis part. Costs can be
// exponential in the graph depth; values saturate at MaxCost.
func (g *Graph) Cost(key string) int64 {
	memo := map[string]int64{}
	var c func(string) int64
	c = func(k string) int64 {
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = 0
		n := g.Nodes[k]
		var sum int64
		for dep, rc := range n.Deps {
			sum = satAdd(sum, satMul(int64(rc), c(dep)))
		}
		if n.Kind == EnvMsg || n.ByEnv {
			sum = satAdd(sum, 1)
		}
		memo[k] = sum
		return sum
	}
	return c(key)
}

// MaxCost is the saturation bound for Cost.
const MaxCost = int64(1) << 60

func satAdd(a, b int64) int64 {
	if a > MaxCost-b {
		return MaxCost
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > MaxCost/b {
		return MaxCost
	}
	return a * b
}

// CostGoal returns cost(G) = cost(msg#), the §4.3 bound on the number of
// env threads sufficient to reproduce the violation.
func (g *Graph) CostGoal() int64 { return g.Cost(g.Goal) }

// String renders the graph deterministically for golden tests and reports.
func (g *Graph) String() string {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		n := g.Nodes[k]
		fmt.Fprintf(&b, "%-4s %s (h=%d, cost=%d)", n.Kind, k, g.HeightOf(k), g.Cost(k))
		if k == g.Goal {
			b.WriteString("  <- goal")
		}
		b.WriteByte('\n')
		deps := make([]string, 0, len(n.Deps))
		for d := range n.Deps {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			fmt.Fprintf(&b, "     reads %s x%d\n", d, n.Deps[d])
		}
	}
	return b.String()
}
