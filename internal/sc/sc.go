// Package sc implements sequential consistency (SC) for fixed instances of
// the same Com programs, as the reference strong model. Under SC the shared
// memory is a single value per variable; loads return the latest store.
//
// Its purpose is the robustness analysis the paper's §1 benchmarks come
// from (Lahav & Margalit, PLDI 2019): a program is *robust* when its RA
// behaviours coincide with its SC behaviours. Comparing the two explorers
// classifies each benchmark as robust or exhibiting genuinely weak
// behaviour — the broken-under-RA mutexes in the corpus are exactly the
// non-robust ones.
package sc

import (
	"context"
	"fmt"
	"strings"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

// State is an SC configuration: one value per shared variable plus the
// thread-local parts.
type State struct {
	Mem     []lang.Val
	Threads []Thread
}

// Thread is a thread-local SC configuration.
type Thread struct {
	PC   lang.PC
	Regs []lang.Val
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{
		Mem:     append([]lang.Val(nil), s.Mem...),
		Threads: make([]Thread, len(s.Threads)),
	}
	for i, th := range s.Threads {
		out.Threads[i] = Thread{PC: th.PC, Regs: append([]lang.Val(nil), th.Regs...)}
	}
	return out
}

// Key canonically encodes the state for visited-set hashing.
func (s *State) Key() string {
	var b strings.Builder
	for _, v := range s.Mem {
		fmt.Fprintf(&b, "%d,", int(v))
	}
	for _, th := range s.Threads {
		fmt.Fprintf(&b, "|%d:", int(th.PC))
		for _, r := range th.Regs {
			fmt.Fprintf(&b, "%d,", int(r))
		}
	}
	return b.String()
}

// Instance is a fixed SC instantiation of a parameterized system, mirroring
// ra.Instance (env replicas first, then dis threads).
type Instance struct {
	Sys     *lang.System
	Threads []ra.ThreadInfo
}

// NewInstance builds the SC instance with nEnv environment replicas.
func NewInstance(sys *lang.System, nEnv int) (*Instance, error) {
	r, err := ra.NewInstance(sys, nEnv)
	if err != nil {
		return nil, err
	}
	return &Instance{Sys: r.Sys, Threads: r.Threads}, nil
}

// InitState returns the initial SC configuration.
func (inst *Instance) InitState() *State {
	s := &State{Mem: make([]lang.Val, len(inst.Sys.Vars))}
	for v := range s.Mem {
		s.Mem[v] = inst.Sys.Init
	}
	for _, ti := range inst.Threads {
		s.Threads = append(s.Threads, Thread{
			PC:   ti.CFG.Entry,
			Regs: make([]lang.Val, ti.CFG.Prog.NumRegs()),
		})
	}
	return s
}

// Succ is a successor with its event.
type Succ struct {
	State *State
	Event ra.Event
}

// Successors enumerates the SC transitions enabled in s.
func (inst *Instance) Successors(s *State) []Succ {
	var out []Succ
	for ti := range s.Threads {
		info := inst.Threads[ti]
		th := &s.Threads[ti]
		regs := info.CFG.Prog.Regs
		vars := inst.Sys.Vars
		for _, e := range info.CFG.Out[th.PC] {
			ev := ra.Event{Thread: ti, Name: info.Name, Op: e.Op.String(regs, vars)}
			step := func(update func(ns *State)) {
				ns := s.Clone()
				ns.Threads[ti].PC = e.To
				if update != nil {
					update(ns)
				}
				out = append(out, Succ{State: ns, Event: ev})
			}
			switch e.Op.Kind {
			case lang.OpNop:
				step(nil)
			case lang.OpAssume:
				if e.Op.E.Eval(th.Regs) != 0 {
					step(nil)
				}
			case lang.OpAssertFail:
				ev.Assert = true
				step(nil)
			case lang.OpAssign:
				d := e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				step(func(ns *State) { ns.Threads[ti].Regs[e.Op.Reg] = d })
			case lang.OpLoad:
				step(func(ns *State) { ns.Threads[ti].Regs[e.Op.Reg] = ns.Mem[e.Op.Var] })
			case lang.OpStore:
				d := e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				step(func(ns *State) { ns.Mem[e.Op.Var] = d })
			case lang.OpCASOp:
				expect := e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				newVal := e.Op.E2.Eval(th.Regs).Norm(inst.Sys.Dom)
				if s.Mem[e.Op.Var] == expect {
					step(func(ns *State) { ns.Mem[e.Op.Var] = newVal })
				}
			}
		}
	}
	return out
}

// Result mirrors ra.Result for SC exploration.
type Result struct {
	Unsafe      bool
	States      int
	Transitions int
	Complete    bool
	Witness     []ra.Event
	// Err is the context error when the search was cancelled.
	Err error
}

// ExploreContext runs a BFS of the SC state space looking for an assert
// violation. Of lim it reads only MaxStates. The BFS stops at the next
// dequeued state once ctx is done, returning Complete=false and
// Err=ctx.Err().
func (inst *Instance) ExploreContext(ctx context.Context, lim ra.Limits) Result {
	type backEdge struct {
		prevKey string
		ev      ra.Event
	}
	init := inst.InitState()
	visited := map[string]bool{init.Key(): true}
	pred := map[string]backEdge{}
	queue := []*State{init}
	res := Result{States: 1}
	limited := false

	buildWitness := func(lastKey string, final ra.Event) []ra.Event {
		rev := []ra.Event{final}
		k := lastKey
		for k != init.Key() {
			be, ok := pred[k]
			if !ok {
				break
			}
			rev = append(rev, be.ev)
			k = be.prevKey
		}
		out := make([]ra.Event, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			out = append(out, rev[i])
		}
		return out
	}

	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		s := queue[0]
		queue = queue[1:]
		key := s.Key()
		for _, succ := range inst.Successors(s) {
			res.Transitions++
			if succ.Event.Assert {
				res.Unsafe = true
				res.Witness = buildWitness(key, succ.Event)
				return res
			}
			sk := succ.State.Key()
			if visited[sk] {
				continue
			}
			if lim.MaxStates > 0 && res.States >= lim.MaxStates {
				limited = true
				continue
			}
			visited[sk] = true
			pred[sk] = backEdge{prevKey: key, ev: succ.Event}
			res.States++
			queue = append(queue, succ.State)
		}
	}
	res.Complete = !limited
	return res
}

// Robustness classifies one instance's assert-reachability under SC vs RA.
type Robustness struct {
	SCUnsafe bool
	RAUnsafe bool
	// Complete is true when both explorations were exhaustive.
	Complete bool
}

// WeakBehaviour reports an RA-only violation: the hallmark of a non-robust
// program (the assert encodes the weak outcome).
func (r Robustness) WeakBehaviour() bool { return r.RAUnsafe && !r.SCUnsafe }

// CompareRobustness explores the same instance under SC and RA, both
// bounded by lim (lim.Workers applies to the RA explorer only).
func CompareRobustness(sys *lang.System, nEnv int, lim ra.Limits) (Robustness, error) {
	scInst, err := NewInstance(sys, nEnv)
	if err != nil {
		return Robustness{}, err
	}
	raInst, err := ra.NewInstance(sys, nEnv)
	if err != nil {
		return Robustness{}, err
	}
	ctx := context.TODO()
	scRes := scInst.ExploreContext(ctx, lim)
	raRes := raInst.ExploreContext(ctx, lim)
	return Robustness{
		SCUnsafe: scRes.Unsafe,
		RAUnsafe: raRes.Unsafe,
		Complete: (scRes.Unsafe || scRes.Complete) && (raRes.Unsafe || raRes.Complete),
	}, nil
}
