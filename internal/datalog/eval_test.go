package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// tc builds the transitive-closure program over the given edges.
func tc(t *testing.T, nodes []string, edges [][2]string) (*Program, Pred) {
	t.Helper()
	p := NewProgram()
	edge := p.MustPred("edge", 2)
	path := p.MustPred("path", 2)
	for _, n := range nodes {
		p.Intern(n)
	}
	for _, e := range edges {
		if err := p.Fact(edge, p.Intern(e[0]), p.Intern(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	// path(X,Y) :- edge(X,Y).
	p.MustRule(Rule{
		Head:    Atom{Pred: path, Terms: []Term{V(0), V(1)}},
		Body:    []Atom{{Pred: edge, Terms: []Term{V(0), V(1)}}},
		NumVars: 2,
	})
	// path(X,Z) :- path(X,Y), edge(Y,Z).   (linear in the IDB sense but has
	// two body atoms, so it is not linear in the paper's strict syntax)
	p.MustRule(Rule{
		Head:    Atom{Pred: path, Terms: []Term{V(0), V(2)}},
		Body:    []Atom{{Pred: path, Terms: []Term{V(0), V(1)}}, {Pred: edge, Terms: []Term{V(1), V(2)}}},
		NumVars: 3,
	})
	return p, path
}

func TestTransitiveClosure(t *testing.T) {
	p, path := tc(t, []string{"a", "b", "c", "d"},
		[][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}})
	db := EvalSemiNaive(p)
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}
	for _, w := range want {
		g := GroundAtom{Pred: path, Args: []Const{p.Intern(w[0]), p.Intern(w[1])}}
		if !db.Has(g) {
			t.Errorf("missing path(%s,%s)", w[0], w[1])
		}
	}
	notWant := [][2]string{{"b", "a"}, {"d", "a"}, {"a", "a"}}
	for _, w := range notWant {
		g := GroundAtom{Pred: path, Args: []Const{p.Intern(w[0]), p.Intern(w[1])}}
		if db.Has(g) {
			t.Errorf("spurious path(%s,%s)", w[0], w[1])
		}
	}
	if db.Size() != 3+6 { // 3 edge facts + 6 paths
		t.Errorf("db size = %d, want 9", db.Size())
	}
}

// TestAllGoldenOrder pins the exact output sequence of DB.All: sorted by
// canonical key, independent of insertion or map-iteration order, so fact
// dumps and derivation listings are byte-stable across runs.
func TestAllGoldenOrder(t *testing.T) {
	p, _ := tc(t, []string{"a", "b", "c"}, [][2]string{{"b", "c"}, {"a", "b"}})
	want := []string{
		// edge is pred 0, path is pred 1; constants intern in declaration
		// order: a=0, b=1, c=2.
		"0(0,1)", // edge(a,b)
		"0(1,2)", // edge(b,c)
		"1(0,1)", // path(a,b)
		"1(0,2)", // path(a,c)
		"1(1,2)", // path(b,c)
	}
	for round := 0; round < 20; round++ {
		db := EvalSemiNaive(p)
		got := db.All()
		if len(got) != len(want) {
			t.Fatalf("All() returned %d atoms, want %d", len(got), len(want))
		}
		for i, g := range got {
			if g.Key() != want[i] {
				t.Fatalf("round %d: All()[%d] = %s, want %s", round, i, g.Key(), want[i])
			}
		}
	}
}

func TestNaiveEqualsSemiNaive(t *testing.T) {
	p, _ := tc(t, []string{"a", "b", "c", "d", "e"},
		[][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}, {"e", "a"}})
	n, s := EvalNaive(p), EvalSemiNaive(p)
	if n.Size() != s.Size() {
		t.Fatalf("naive %d atoms, semi-naive %d", n.Size(), s.Size())
	}
	for _, g := range n.All() {
		if !s.Has(g) {
			t.Errorf("semi-naive missing %s", p.GroundString(g))
		}
	}
}

// randDatalog builds a random program over unary/binary predicates.
func randDatalog(r *rand.Rand) *Program {
	p := NewProgram()
	nConsts := 2 + r.Intn(3)
	for i := 0; i < nConsts; i++ {
		p.Intern(string(rune('a' + i)))
	}
	nPreds := 2 + r.Intn(3)
	preds := make([]Pred, nPreds)
	for i := range preds {
		preds[i] = p.MustPred(string(rune('p'+i)), 1+r.Intn(2))
	}
	randTerm := func(nv int) Term {
		if nv > 0 && r.Intn(2) == 0 {
			return V(Var(r.Intn(nv)))
		}
		return C(Const(r.Intn(nConsts)))
	}
	atom := func(nv int) Atom {
		pr := preds[r.Intn(nPreds)]
		ts := make([]Term, p.Preds[pr].Arity)
		for i := range ts {
			ts[i] = randTerm(nv)
		}
		return Atom{Pred: pr, Terms: ts}
	}
	// A few facts.
	for i := 0; i < 2+r.Intn(4); i++ {
		pr := preds[r.Intn(nPreds)]
		args := make([]Const, p.Preds[pr].Arity)
		for j := range args {
			args[j] = Const(r.Intn(nConsts))
		}
		if err := p.Fact(pr, args...); err != nil {
			panic(err)
		}
	}
	// A few rules; retry until range-restricted.
	for i := 0; i < 2+r.Intn(4); i++ {
		for tries := 0; tries < 20; tries++ {
			nv := 1 + r.Intn(3)
			rule := Rule{Head: atom(nv), NumVars: nv}
			for b := 0; b < 1+r.Intn(2); b++ {
				rule.Body = append(rule.Body, atom(nv))
			}
			if p.AddRule(rule) == nil {
				break
			}
		}
	}
	return p
}

// TestNaiveEqualsSemiNaiveRandom checks the semi-naive engine against the
// naive reference on random programs: the whole program evaluated at once,
// and split at every rule index into a prefix, evaluated to its model, and
// the rest, evaluated as a continuation of that model. The continuation
// must derive exactly the naive atoms, and its goal answer must be
// membership in the naive model, for every naive atom and an absent one.
func TestNaiveEqualsSemiNaiveRandom(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		p := randDatalog(r)
		n, s := EvalNaive(p), EvalSemiNaive(p)
		sameAtoms(t, fmt.Sprintf("case %d: semi-naive", i), p, n, s)
		absent, haveAbsent := absentAtom(p, n)
		for split := 0; split <= len(p.Rules); split++ {
			prefix := &Program{Preds: p.Preds, Consts: p.Consts, Rules: p.Rules[:split]}
			model, _, err := Eval(ctx, prefix, nil)
			if err != nil {
				t.Fatal(err)
			}
			own := p.Rules[split:]
			where := fmt.Sprintf("case %d split %d: continuation", i, split)
			goal := GroundAtom{Pred: 0, Args: make([]Const, p.Preds[0].Arity)}
			if haveAbsent {
				goal = absent
			}
			db, hit, _, err := Continue(ctx, model, nil, own, &goal, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hit != n.Has(goal) {
				t.Fatalf("%s answers %v for %s\n%s", where, hit, p.GroundString(goal), p)
			}
			if !hit {
				sameAtoms(t, where, p, n, db)
			}
			for _, g := range n.All() {
				if _, hit, _, err := Continue(ctx, model, nil, own, &g, nil); err != nil || !hit {
					t.Fatalf("%s does not derive %s (err %v)\n%s", where, p.GroundString(g), err, p)
				}
			}
		}
	}
}

// batchTree is a tree of rule batches: every root-to-node path is one
// program, its batches' union.
type batchTree struct {
	batch []Rule
	kids  []*batchTree
}

// randBatchTree draws a tree of at most depth levels below the root whose
// batches are 0–2 of rules, drawn with replacement.
func randBatchTree(r *rand.Rand, rules []Rule, depth int) *batchTree {
	n := &batchTree{batch: make([]Rule, r.Intn(3))}
	for i := range n.batch {
		n.batch[i] = rules[r.Intn(len(rules))]
	}
	if depth > 0 {
		for k := r.Intn(4); k > 0; k-- {
			n.kids = append(n.kids, randBatchTree(r, rules, depth-1))
		}
	}
	return n
}

// TestChainedContinuationsRandom walks a random tree of rule batches over
// each random program depth-first, as the Datalog backend walks its
// skeletons: the root batch is evaluated to its model, and every other
// node continues its parent's model with its own batch, in the storage the
// node before it at its depth used. Without a goal, every node's database
// must be the naive least model of the union of the batches on its path,
// and so must its parent's once its subtree is done. With a goal, every
// node's answer must be the union's membership, and a node that derives
// the goal ends its subtree, as an UNSAFE instance ends the walk.
func TestChainedContinuationsRandom(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		p := randDatalog(r)
		tree := randBatchTree(r, p.Rules, 4)
		naive := func(rules []Rule) *DB {
			return EvalNaive(&Program{Preds: p.Preds, Consts: p.Consts, Rules: rules})
		}
		model, _, err := Eval(ctx, &Program{Preds: p.Preds, Consts: p.Consts, Rules: tree.batch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := naive(p.Rules)
		goals := []*GroundAtom{nil}
		if atoms := all.All(); len(atoms) > 0 {
			goals = append(goals, &atoms[r.Intn(len(atoms))])
		}
		if g, ok := absentAtom(p, all); ok {
			goals = append(goals, &g)
		}
		for gi, goal := range goals {
			// stack[d] is the model at depth d; the databases above the
			// current depth are storage for the next node that reaches
			// them.
			stack := []*DB{model}
			var walk func(n *batchTree, depth int, union []Rule)
			walk = func(n *batchTree, depth int, union []Rule) {
				union = append(union[:len(union):len(union)], n.batch...)
				where := fmt.Sprintf("case %d goal %d depth %d", i, gi, depth)
				var reuse *DB
				if depth < len(stack) {
					reuse = stack[depth]
				}
				db, hit, _, err := Continue(ctx, stack[depth-1], reuse, n.batch, goal, nil)
				if err != nil {
					t.Fatal(err)
				}
				if reuse == nil {
					stack = append(stack, db)
				}
				want := naive(union)
				if goal != nil && hit != want.Has(*goal) {
					t.Fatalf("%s: answers %v for %s\n%s", where, hit, p.GroundString(*goal), p)
				}
				if hit {
					return
				}
				sameAtoms(t, where, p, want, db)
				for _, k := range n.kids {
					walk(k, depth+1, union)
				}
				sameAtoms(t, where+" after its subtree", p, want, db)
			}
			for _, k := range tree.kids {
				walk(k, 1, tree.batch)
			}
		}
	}
}

// sameAtoms fails the test unless got holds exactly want's atoms.
func sameAtoms(t *testing.T, where string, p *Program, want, got *DB) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("%s: %d atoms, naive %d\n%s", where, got.Size(), want.Size(), p)
	}
	for _, g := range want.All() {
		if !got.Has(g) {
			t.Fatalf("%s: missing %s\n%s", where, p.GroundString(g), p)
		}
	}
}

// absentAtom returns an atom over p's declarations that model lacks, if any.
func absentAtom(p *Program, model *DB) (GroundAtom, bool) {
	for pr, d := range p.Preds {
		args := make([]Const, d.Arity)
		for {
			if g := (GroundAtom{Pred: Pred(pr), Args: args}); !model.Has(g) {
				return g, true
			}
			i := 0
			for ; i < len(args) && int(args[i]) == len(p.Consts)-1; i++ {
				args[i] = 0
			}
			if i == len(args) {
				break
			}
			args[i]++
		}
	}
	return GroundAtom{}, false
}

// TestQueryStopsAtGoal: on a chain whose rules are listed last link first,
// round k derives s(k), so a query for s(k) must answer true in round k
// with s(0)..s(k) derived, and stop there.
func TestQueryStopsAtGoal(t *testing.T) {
	const n = 6
	p := NewProgram()
	s := p.MustPred("s", 1)
	if err := p.Fact(s, p.Intern(constName(0))); err != nil {
		t.Fatal(err)
	}
	for i := n - 1; i >= 0; i-- {
		p.MustRule(Rule{
			Head: Atom{Pred: s, Terms: []Term{C(p.Intern(constName(i + 1)))}},
			Body: []Atom{{Pred: s, Terms: []Term{C(p.Intern(constName(i)))}}},
		})
	}
	missing := p.Intern(constName(n + 1))
	for k := 1; k <= n+1; k++ {
		goal := GroundAtom{Pred: s, Args: []Const{p.Intern(constName(k))}}
		hit, st, err := QueryCtx(context.Background(), p, goal, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := EvalStats{Rounds: k, Atoms: k + 1}
		if goal.Args[0] == missing {
			want = EvalStats{Rounds: n + 1, Atoms: n + 1}
		}
		if hit != (k <= n) || st != want {
			t.Errorf("query s(%d): %v with %+v, want %v with %+v", k, hit, st, k <= n, want)
		}
	}
}

// TestContinueOnModel: a continuation never writes to its base, answers
// true at once for a goal the base holds, and sees the base's atoms and
// rules alike.
func TestContinueOnModel(t *testing.T) {
	p, path := tc(t, []string{"a", "b", "c", "d"}, [][2]string{{"a", "b"}, {"b", "c"}})
	model, _, err := Eval(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := model.Size()
	edge := Pred(0)
	c, d := p.Intern("c"), p.Intern("d")
	own := []Rule{{Head: Atom{Pred: edge, Terms: []Term{C(c), C(d)}}}}
	ad := GroundAtom{Pred: path, Args: []Const{p.Intern("a"), d}}
	db, hit, st, err := Continue(context.Background(), model, nil, own, &ad, nil)
	if err != nil || !hit {
		t.Fatalf("path(a,d) over the model plus edge(c,d): %v, %v", hit, err)
	}
	if model.Size() != size || model.Has(ad) || !db.Has(ad) {
		t.Errorf("base grew to %d atoms (was %d) or lost the continuation's", model.Size(), size)
	}
	ac := GroundAtom{Pred: path, Args: []Const{p.Intern("a"), c}}
	if _, hit, st, _ = Continue(context.Background(), model, nil, own, &ac, nil); !hit || st.Rounds != 1 {
		t.Errorf("goal held by the base: %v after %d rounds, want true after 1", hit, st.Rounds)
	}
}

func TestQueryAndLinear(t *testing.T) {
	p := NewProgram()
	a := p.MustPred("a", 1)
	b := p.MustPred("b", 1)
	one := p.Intern("1")
	if err := p.Fact(a, one); err != nil {
		t.Fatal(err)
	}
	p.MustRule(Rule{
		Head:    Atom{Pred: b, Terms: []Term{V(0)}},
		Body:    []Atom{{Pred: a, Terms: []Term{V(0)}}},
		NumVars: 1,
	})
	if !p.IsLinear() {
		t.Error("program with one-atom bodies must be linear")
	}
	if !Query(p, GroundAtom{Pred: b, Args: []Const{one}}) {
		t.Error("b(1) should be derivable")
	}
	if Query(p, GroundAtom{Pred: b, Args: []Const{p.Intern("2")}}) {
		t.Error("b(2) should not be derivable")
	}
	// Add a two-atom-body rule: no longer linear.
	c := p.MustPred("c", 1)
	p.MustRule(Rule{
		Head:    Atom{Pred: c, Terms: []Term{V(0)}},
		Body:    []Atom{{Pred: a, Terms: []Term{V(0)}}, {Pred: b, Terms: []Term{V(0)}}},
		NumVars: 1,
	})
	if p.IsLinear() {
		t.Error("two-atom body must break linearity")
	}
}

func TestAddRuleValidation(t *testing.T) {
	p := NewProgram()
	a := p.MustPred("a", 1)
	b := p.MustPred("b", 2)
	p.Intern("x")
	// Arity mismatch.
	if err := p.AddRule(Rule{Head: Atom{Pred: a, Terms: []Term{C(0), C(0)}}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Unbound head variable.
	if err := p.AddRule(Rule{
		Head:    Atom{Pred: b, Terms: []Term{V(0), V(1)}},
		Body:    []Atom{{Pred: a, Terms: []Term{V(0)}}},
		NumVars: 2,
	}); err == nil {
		t.Error("range restriction not enforced")
	}
	// Variable out of range.
	if err := p.AddRule(Rule{
		Head:    Atom{Pred: a, Terms: []Term{V(3)}},
		Body:    []Atom{{Pred: a, Terms: []Term{V(3)}}},
		NumVars: 1,
	}); err == nil {
		t.Error("variable out of range accepted")
	}
	// Un-interned constant.
	if err := p.AddRule(Rule{Head: Atom{Pred: a, Terms: []Term{C(99)}}}); err == nil {
		t.Error("un-interned constant accepted")
	}
	// Redeclared arity.
	if _, err := p.AddPred("a", 2); err == nil {
		t.Error("arity redeclaration accepted")
	}
}

func TestProgramString(t *testing.T) {
	p, _ := tc(t, []string{"a", "b"}, [][2]string{{"a", "b"}})
	s := p.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"edge(a,b).", "path(X0,X1) :- edge(X0,X1)."} {
		if !contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
