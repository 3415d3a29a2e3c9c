// Package encode implements the paper's makeP procedure (§4.1): it reduces
// parameterized safety verification under the simplified semantics to query
// evaluation in (Cache) Datalog.
//
// Predicates follow the paper: etp (environment thread), emp (environment
// message), dtp (distinguished thread — realized here as the step chain of a
// guessed dis run) and dmp (distinguished message). The paper's
// non-deterministic guess of the dis computation is realized by enumerating
// dis-run skeletons (simplified.Skeletons); the system is unsafe iff some
// skeleton's query instance evaluates to true.
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

// Problem is one Datalog query instance generated by makeP.
type Problem struct {
	Prog *datalog.Program
	Goal datalog.GroundAtom
	// EDBPreds marks the join-table predicates, exempt from cache bounds.
	EDBPreds map[datalog.Pred]bool
	// Skeleton is the guessed dis run this instance encodes (nil for
	// env-only systems, which need no guess).
	Skeleton *simplified.Skeleton
}

// ErrNoEnv rejects systems without env threads: makeP targets the
// parameterized class; plain finite-state systems don't need it.
var ErrNoEnv = errors.New("encode: system has no env program")

// Hints narrows the register-valuation grounding per env program point.
// AllowedAt returns the values reg can hold at pc; ok=false means the
// abstract set was widened and the caller must ground over the full domain.
// An empty slice with ok=true marks the PC unreachable — no rules needed.
// *absint.ThreadFacts implements this; nil grounds over the full domain.
// Callers must not wrap a typed nil pointer in the interface.
//
// Soundness: a rule grounded with a register value the abstract
// interpretation proves impossible at that PC has an underivable etp body
// atom, so dropping it never changes the query's answer.
type Hints interface {
	AllowedAt(pc lang.PC, reg lang.RegID) ([]lang.Val, bool)
}

// builder carries the shared tables while emitting one problem.
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
	valC               []datalog.Const // value constants
	pcC                []datalog.Const // env pc constants
	timeC              map[simplified.ATime]datalog.Const
	edbPreds           map[datalog.Pred]bool
}

// All generates one Problem per dis-run skeleton (exactly one for env-only
// systems). The boolean reports whether skeleton enumeration was
// exhaustive. hints restricts the valuation grounding (nil grounds over the
// full domain, see Hints). Cancellation is checked once per macro-state the
// skeleton enumeration expands and before each skeleton's encoding, and
// surfaces as ctx's error.
func All(ctx context.Context, sys *lang.System, maxSkeletons int, hints Hints) ([]*Problem, bool, error) {
	if sys.Env == nil {
		return nil, false, ErrNoEnv
	}
	v, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		return nil, false, err
	}
	budget := v.Budget()
	maxTime := 0
	for _, b := range budget {
		if b > maxTime {
			maxTime = b
		}
	}

	var skels []*simplified.Skeleton
	complete := true
	if len(sys.Dis) == 0 {
		skels = []*simplified.Skeleton{nil}
	} else {
		ss, ok, err := v.Skeletons(ctx, maxSkeletons)
		if err != nil {
			return nil, false, err
		}
		complete = ok
		for i := range ss {
			skels = append(skels, &ss[i])
		}
	}

	var out []*Problem
	for _, sk := range skels {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		p, err := build(sys, maxTime, sk, hints)
		if err != nil {
			return nil, false, err
		}
		out = append(out, p)
	}
	return out, complete, nil
}

// EnvOnly generates the single query instance for a system without dis
// threads.
func EnvOnly(sys *lang.System) (*Problem, error) {
	if len(sys.Dis) != 0 {
		return nil, fmt.Errorf("encode.EnvOnly: system has %d dis threads", len(sys.Dis))
	}
	ps, _, err := All(context.Background(), sys, 1, nil)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

func build(sys *lang.System, maxTime int, sk *simplified.Skeleton, hints Hints) (*Problem, error) {
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
	b.declare()
	b.emitEDB()
	b.emitInit()
	if err := b.emitEnvRules(); err != nil {
		return nil, err
	}
	goal, err := b.emitSkeleton(sk)
	if err != nil {
		return nil, err
	}
	return &Problem{Prog: b.prog, Goal: goal, EDBPreds: b.edbPreds, Skeleton: sk}, nil
}

func (b *builder) declare() {
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
		margs := []datalog.Const{b.prog.Intern("x:" + b.sys.Vars[v]), b.valC[b.sys.Init]}
		for w := 0; w < b.numVars; w++ {
			margs = append(margs, zeroT)
		}
		b.mustFact(b.dmp, margs...)
	}
}

func (b *builder) varConst(v lang.VarID) datalog.Const {
	return b.prog.Intern("x:" + b.sys.Vars[v])
}
