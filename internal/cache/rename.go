package cache

import (
	"math/rand"

	"paramra/internal/lang"
)

// parserKeywords are identifier texts the lang parser matches contextually
// (plus the expression literals). Generated names must avoid them so a
// renamed system survives lang.Print → ParseSystem round trips.
var parserKeywords = map[string]bool{
	"system": true, "thread": true, "vars": true, "domain": true,
	"init": true, "env": true, "dis": true, "regs": true,
	"skip": true, "assume": true, "assert": true, "false": true,
	"true": true, "store": true, "load": true, "cas": true,
	"if": true, "else": true, "while": true, "loop": true,
	"choice": true, "or": true, "not": true,
}

type nameGen struct {
	rng  *rand.Rand
	used map[string]bool
}

func (g *nameGen) next() string {
	const first = "abcdefghijklmnopqrstuvwxyz"
	const rest = first + "0123456789_"
	for {
		n := 3 + g.rng.Intn(6)
		b := make([]byte, n)
		b[0] = first[g.rng.Intn(len(first))]
		for i := 1; i < n; i++ {
			b[i] = rest[g.rng.Intn(len(rest))]
		}
		s := string(b)
		if !parserKeywords[s] && !g.used[s] {
			g.used[s] = true
			return s
		}
	}
}

// Rename returns a semantics-preserving isomorphic copy of sys: fresh
// random names for every shared variable, register, and thread, a random
// permutation of the shared-variable table, per-thread random permutations
// of the register tables, and a random permutation of the dis thread order.
// The system name is preserved (it identifies the request, not the
// structure). The output is deterministic in seed, passes Validate, and
// survives lang.Print → lang.ParseSystem.
//
// Rename exists for the cache's own test oracles (metamorphic suite, fuzz
// cache-consistency backend, soak renamed-duplicate traffic): by
// construction Canonicalize must map the result to the same hash as sys.
func Rename(sys *lang.System, seed int64) *lang.System {
	rng := rand.New(rand.NewSource(seed))
	ng := &nameGen{rng: rng, used: make(map[string]bool)}

	nv := len(sys.Vars)
	varMap := make([]lang.VarID, nv)
	for newPos, oldIdx := range rng.Perm(nv) {
		varMap[oldIdx] = lang.VarID(newPos)
	}
	vars := make([]string, nv)
	for old := 0; old < nv; old++ {
		vars[varMap[old]] = ng.next()
	}

	out := &lang.System{
		Name: sys.Name,
		Vars: vars,
		Dom:  sys.Dom,
		Init: sys.Init,
	}

	// The same *Program may legally appear more than once in the thread
	// list; clone it once so duplicates stay duplicates (Validate requires
	// distinct names only for distinct programs).
	cloned := make(map[*lang.Program]*lang.Program)
	clone := func(p *lang.Program) *lang.Program {
		if c, ok := cloned[p]; ok {
			return c
		}
		nr := len(p.Regs)
		regMap := make([]lang.RegID, nr)
		for newPos, oldIdx := range rng.Perm(nr) {
			regMap[oldIdx] = lang.RegID(newPos)
		}
		regs := make([]string, nr)
		for old := 0; old < nr; old++ {
			regs[regMap[old]] = ng.next()
		}
		c := &lang.Program{
			Name: ng.next(),
			Regs: regs,
			Body: lang.RemapStmt(p.Body, regMap, varMap),
		}
		cloned[p] = c
		return c
	}

	if sys.Env != nil {
		out.Env = clone(sys.Env)
	}
	out.Dis = make([]*lang.Program, len(sys.Dis))
	for i, j := range rng.Perm(len(sys.Dis)) {
		out.Dis[i] = clone(sys.Dis[j])
	}
	return out
}
