// Package encode implements the paper's makeP procedure (§4.1): it reduces
// parameterized safety verification under the simplified semantics to query
// evaluation in (Cache) Datalog.
//
// Predicates follow the paper: etp (environment thread), emp (environment
// message), dtp (distinguished thread — realized here as the step chain of a
// guessed dis run) and dmp (distinguished message). The paper's
// non-deterministic guess of the dis computation is realized by walking the
// dis-run skeletons (simplified.EachSkeleton); the system is unsafe iff some
// skeleton's query instance evaluates to true, so an Encoder hands each
// instance over as the walk reaches its skeleton, and a consumer can stop
// the walk at the first instance whose query holds.
//
// View joins are delegated to three EDB relations over the abstract
// timestamp universe — tmax (pointwise join), pjoin (join followed by the
// ⁺-region bump applied on the loaded variable), and djoin (timestamp check
// plus adoption of the dis message's timestamp) — so rules have at most two
// IDB body atoms, the shape required by the Cache-Datalog route of
// Theorem 4.1 (EDB facts are free: they can always be re-derived and are
// not counted against the cache).
package encode

import (
	"context"
	"errors"
	"fmt"

	"paramra/internal/datalog"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// Problem is one Datalog query instance generated by makeP: the system's
// shared prefix and the rules that encode one guessed dis run.
type Problem struct {
	// Prefix is the part of the program no guess changes — the
	// declarations, the tmax/pjoin/djoin tables, the initial facts and the
	// env rules — emitted once per system and shared by all its instances.
	// Its least model is the base every instance continues from.
	Prefix *datalog.Program
	// Steps are this instance's own rules, valid over Prefix's
	// declarations: the step chain of its skeleton, one batch per step.
	// Steps[0] is the fact step0(), and Steps[j+1] encodes the skeleton's
	// step j. A step only adds rules, so the least model of a chain's first
	// k batches is part of the model of every chain that starts with them.
	// The slice is the Encoder's, valid during the yield call only; the
	// batches themselves are never changed.
	Steps [][]datalog.Rule
	// Shared is the number of leading Steps this instance shares with the
	// one handed over before it (0 for the first): step0 and the leading
	// steps the two skeletons share (simplified.Skeleton.Shared). No walk
	// path is a prefix of another, so it is less than len(Steps).
	Shared int
	Goal   datalog.GroundAtom
	// EDBPreds marks the join-table predicates, exempt from cache bounds.
	EDBPreds map[datalog.Pred]bool
}

// Rules returns the instance's own rules, Steps one after another.
func (p *Problem) Rules() []datalog.Rule {
	var out []datalog.Rule
	for _, st := range p.Steps {
		out = append(out, st...)
	}
	return out
}

// Program materializes the instance's whole program: Prefix's rules, then
// Rules. Query evaluation continues from Prefix's model step by step
// instead; this is for dumps and for checking that continuation against
// the whole program.
func (p *Problem) Program() *datalog.Program { return p.Prefix.Extend(p.Rules()) }

// ErrNoEnv rejects systems without env threads: makeP targets the
// parameterized class; plain finite-state systems don't need it.
var ErrNoEnv = errors.New("encode: system has no env program")

// Hints narrows the register-valuation grounding per env program point.
// AllowedAt returns the values reg can hold at pc; ok=false means the
// abstract set was widened and the caller must ground over the full domain.
// An empty slice with ok=true marks the PC unreachable — no rules needed.
// *analysis.ThreadFacts implements this; nil grounds over the full domain.
// Callers must not wrap a typed nil pointer in the interface.
//
// Soundness: a rule grounded with a register value the abstract
// interpretation proves impossible at that PC has an underivable etp body
// atom, so dropping it never changes the query's answer.
type Hints interface {
	AllowedAt(pc lang.PC, reg lang.RegID) ([]lang.Val, bool)
}

// builder carries the prefix and its tables while emitting the problems
// of one system.
type builder struct {
	sys    *lang.System
	envCFG *lang.CFG
	prog   *datalog.Program

	numRegs int
	numVars int
	maxTime int // abstract timestamps are Int(0..maxTime), Plus(0..maxTime)
	hints   Hints

	etp, emp, dmp      datalog.Pred
	tmax, pjoin, djoin datalog.Pred
	bad, unsafeP       datalog.Pred
	steps              []datalog.Pred  // step0, step1, … of the step chains
	valC               []datalog.Const // value constants
	pcC                []datalog.Const // env pc constants
	varC               []datalog.Const // shared-variable constants
	timeC              map[simplified.ATime]datalog.Const
	edbPreds           map[datalog.Pred]bool
}

// Encoder emits makeP's program for one system: the shared prefix when it
// is made, then one query instance per dis-run skeleton, each encoded as
// the skeleton walk reaches it, so no list of instances is ever built. It
// keeps the last instance's chain as a stack of step batches and encodes
// only the steps past those the next skeleton shares with it.
type Encoder struct {
	b     *builder
	v     *simplified.Verifier // nil for env-only systems, which need no guess
	steps [][]datalog.Rule
}

// New emits the prefix of sys's program. hints restricts the valuation
// grounding (nil grounds over the full domain, see Hints). The prefix
// declares the step predicates of every chain a skeleton can need: a
// skeleton takes at most one step per edge on the longest path of each dis
// thread, so the dis CFGs' MaxStraightLineOps, summed, bound its length.
// The declarations are not rules, so Program.String, which renders rules
// only, is the same for any such bound.
func New(sys *lang.System, hints Hints) (*Encoder, error) {
	if sys.Env == nil {
		return nil, ErrNoEnv
	}
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		return nil, err
	}
	maxTime := 0
	for _, b := range v.Budget() {
		maxTime = max(maxTime, b)
	}
	chain := 0
	for _, d := range sys.Dis {
		n := lang.Compile(d).MaxStraightLineOps()
		if n < 0 {
			return nil, fmt.Errorf("encode: dis thread %s loops", d.Name)
		}
		chain += n
	}
	b, err := newPrefix(sys, maxTime, chain, hints)
	if err != nil {
		return nil, err
	}
	e := &Encoder{b: b}
	if len(sys.Dis) > 0 {
		e.v = v
	}
	return e, nil
}

// Prefix returns the program every instance shares.
func (e *Encoder) Prefix() *datalog.Program { return e.b.prog }

// Each encodes one Problem per dis-run skeleton (exactly one for env-only
// systems) and hands it to yield as the skeleton walk reaches it, in the
// walk's order; yield returning false stops the walk. maxSkeletons > 0
// caps the skeletons. complete reports whether the walk ran to its end:
// false when the cap or yield cut it short. Cancellation is checked once
// per macro-state the walk expands and surfaces as ctx's error. It is
// Instances' walk, pulled to its end.
func (e *Encoder) Each(ctx context.Context, maxSkeletons int, yield func(*Problem) bool) (complete bool, err error) {
	it := e.Instances(maxSkeletons)
	for {
		p, ok, err := it.Next(ctx)
		if err != nil {
			return false, err
		}
		if !ok {
			return it.Complete(), nil
		}
		if !yield(p) {
			return false, nil
		}
	}
}

// Instances is Each's walk as a value its consumer pulls one query
// instance at a time, so that it can stop between two instances and go on
// later: the instances it pulls are Each's, in order.
type Instances struct {
	e     *Encoder
	walk  *simplified.SkeletonWalk // nil for env-only systems
	first bool
	over  bool
}

// Instances prepares Each's walk with the cap maxSkeletons. Nothing runs
// before the first Next.
func (e *Encoder) Instances(maxSkeletons int) *Instances {
	e.steps = e.steps[:0]
	it := &Instances{e: e, first: true}
	if e.v != nil {
		it.walk = e.v.NewSkeletonWalk(maxSkeletons)
	}
	return it
}

// Next encodes the next query instance and returns it, valid until the
// next call, or reports false once the walk has ended.
func (it *Instances) Next(ctx context.Context) (*Problem, bool, error) {
	if it.over {
		return nil, false, nil
	}
	if it.walk == nil {
		it.over = true
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		p, err := it.e.problem(nil, 0)
		return p, err == nil, err
	}
	sk, ok, err := it.walk.Next(ctx)
	if !ok || err != nil {
		it.over = true
		return nil, false, err
	}
	p, err := it.e.instance(sk, it.first)
	it.first = false
	if err != nil {
		it.over = true
		return nil, false, err
	}
	return p, true, nil
}

// Complete reports whether the walk ran to its end: false when the cap cut
// it short. It is final once Next has reported false.
func (it *Instances) Complete() bool { return it.walk == nil || it.walk.Complete() }

// Walk hands skeletons of the system's dis threads to yield, in order,
// until yield returns false, and reports whether it ran to its end, as
// simplified.Verifier.EachSkeleton does.
type Walk func(yield func(simplified.Skeleton) bool) (complete bool, err error)

// EachOf is Each over the skeletons walk hands out: one Problem per
// skeleton, each keeping the steps its Shared says it shares with the one
// before. Tests run it on reference walks.
func (e *Encoder) EachOf(walk Walk, yield func(*Problem) bool) (complete bool, err error) {
	e.steps = e.steps[:0]
	var encErr error
	first := true
	complete, err = walk(func(sk simplified.Skeleton) bool {
		p, err := e.instance(sk, first)
		first = false
		if err != nil {
			encErr = err
			return false
		}
		return yield(p)
	})
	if encErr != nil {
		return false, encErr
	}
	return complete, err
}

// instance encodes the query instance of sk, the walk's first skeleton or
// one sharing sk.Shared steps with the skeleton before it.
func (e *Encoder) instance(sk simplified.Skeleton, first bool) (*Problem, error) {
	shared := 0
	if !first {
		shared = 1 + sk.Shared
	}
	return e.problem(sk.Steps, shared)
}

// problem encodes the instance of the skeleton with the given steps (none
// for env-only systems), keeping the first shared batches of the last
// instance's chain.
func (e *Encoder) problem(steps []simplified.SkeletonStep, shared int) (*Problem, error) {
	if len(steps) >= len(e.b.steps) {
		return nil, fmt.Errorf("encode: skeleton of %d steps exceeds the chain bound %d", len(steps), len(e.b.steps)-1)
	}
	e.steps = e.steps[:shared]
	if shared == 0 {
		e.steps = append(e.steps, e.b.chainStart())
	}
	for j := len(e.steps) - 1; j < len(steps); j++ {
		if steps[j].Assert && j != len(steps)-1 {
			return nil, fmt.Errorf("encode: assert step %d is not terminal", j)
		}
		rules, err := e.b.emitStep(j, &steps[j])
		if err != nil {
			return nil, err
		}
		e.steps = append(e.steps, rules)
	}
	b := e.b
	return &Problem{Prefix: b.prog, Steps: e.steps, Shared: shared,
		Goal: datalog.GroundAtom{Pred: b.unsafeP}, EDBPreds: b.edbPreds}, nil
}

// EnvOnly generates the single query instance for a system without dis
// threads.
func EnvOnly(sys *lang.System) (*Problem, error) {
	if len(sys.Dis) != 0 {
		return nil, fmt.Errorf("encode.EnvOnly: system has %d dis threads", len(sys.Dis))
	}
	e, err := New(sys, nil)
	if err != nil {
		return nil, err
	}
	return e.problem(nil, 0)
}

// newPrefix emits the prefix of sys's program, declaring the step
// predicates of chains up to the given length.
func newPrefix(sys *lang.System, maxTime, chain int, hints Hints) (*builder, error) {
	b := &builder{
		sys:      sys,
		envCFG:   lang.Compile(sys.Env),
		prog:     datalog.NewProgram(),
		numRegs:  sys.Env.NumRegs(),
		numVars:  len(sys.Vars),
		maxTime:  maxTime,
		hints:    hints,
		timeC:    map[simplified.ATime]datalog.Const{},
		edbPreds: map[datalog.Pred]bool{},
	}
	b.declare(chain)
	b.emitEDB()
	b.emitInit()
	if err := b.emitEnvRules(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *builder) declare(chain int) {
	p := b.prog
	k := b.numVars
	b.etp = p.MustPred("etp", 1+b.numRegs+k)
	b.emp = p.MustPred("emp", 2+k)
	b.dmp = p.MustPred("dmp", 2+k)
	b.tmax = p.MustPred("tmax", 3)
	b.pjoin = p.MustPred("pjoin", 3)
	b.djoin = p.MustPred("djoin", 3)
	b.bad = p.MustPred("bad", 0)
	b.unsafeP = p.MustPred("unsafe", 0)
	for j := 0; j <= chain; j++ {
		b.steps = append(b.steps, p.MustPred(fmt.Sprintf("step%d", j), 0))
	}
	b.edbPreds[b.tmax] = true
	b.edbPreds[b.pjoin] = true
	b.edbPreds[b.djoin] = true

	for d := 0; d < b.sys.Dom; d++ {
		b.valC = append(b.valC, p.Intern(fmt.Sprintf("d%d", d)))
	}
	for pc := 0; pc < b.envCFG.NumNodes; pc++ {
		b.pcC = append(b.pcC, p.Intern(fmt.Sprintf("pc%d", pc)))
	}
	for t := 0; t <= b.maxTime; t++ {
		b.timeC[simplified.Int(t)] = p.Intern(fmt.Sprintf("t%d", t))
		b.timeC[simplified.Plus(t)] = p.Intern(fmt.Sprintf("t%d+", t))
	}
	for _, x := range b.sys.Vars {
		b.varC = append(b.varC, p.Intern("x:"+x))
	}
}

// times returns all abstract timestamps of the universe in order.
func (b *builder) times() []simplified.ATime {
	out := make([]simplified.ATime, 0, 2*(b.maxTime+1))
	for t := 0; t <= b.maxTime; t++ {
		out = append(out, simplified.Int(t), simplified.Plus(t))
	}
	return out
}

// emitEDB grounds the three join tables over the timestamp universe.
func (b *builder) emitEDB() {
	ts := b.times()
	amax := func(a, c simplified.ATime) simplified.ATime {
		if a > c {
			return a
		}
		return c
	}
	for _, a := range ts {
		for _, c := range ts {
			j := amax(a, c)
			// tmax: plain pointwise join.
			b.mustFact(b.tmax, b.timeC[a], b.timeC[c], b.timeC[j])
			// pjoin: join then bump into the ⁺-region (env-message load on
			// the loaded variable).
			b.mustFact(b.pjoin, b.timeC[a], b.timeC[c], b.timeC[simplified.Plus(j.Floor())])
			// djoin: dis-message load on the loaded variable — requires the
			// reader's view a ≤ message timestamp c and adopts c.
			if a <= c {
				b.mustFact(b.djoin, b.timeC[a], b.timeC[c], b.timeC[c])
			}
		}
	}
}

func (b *builder) mustFact(pr datalog.Pred, args ...datalog.Const) {
	if err := b.prog.Fact(pr, args...); err != nil {
		panic(err)
	}
}

// emitInit adds the initial etp and dmp facts (the paper's
// etp(λ_init, rv_init, vw_init) and dmp(x, d_init, vw_init)).
func (b *builder) emitInit() {
	zeroT := b.timeC[simplified.Int(0)]
	args := []datalog.Const{b.pcC[b.envCFG.Entry]}
	for r := 0; r < b.numRegs; r++ {
		// Registers start at 0 (rv_init), like the fixpoint and concrete
		// backends; only the shared memory starts at sys.Init.
		args = append(args, b.valC[0])
	}
	for v := 0; v < b.numVars; v++ {
		args = append(args, zeroT)
	}
	b.mustFact(b.etp, args...)
	for v := 0; v < b.numVars; v++ {
		margs := []datalog.Const{b.varC[v], b.valC[b.sys.Init]}
		for w := 0; w < b.numVars; w++ {
			margs = append(margs, zeroT)
		}
		b.mustFact(b.dmp, margs...)
	}
}

func (b *builder) varConst(v lang.VarID) datalog.Const { return b.varC[v] }
