package ra_test

// The reference successor relation: the deep-clone, render-everything
// implementation the explorers used before they moved to scratch states
// and lazily rendered steps. It lives only here, as the oracle of the
// differential tests below, together with two reference searches over it:
// a breadth-first loop that shares no code with the engine's drivers, and
// the driver ExploreContext runs on.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/engine"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/ra"
)

func refClone(s *ra.State) *ra.State {
	out := &ra.State{
		Mem:     make([][]ra.Msg, len(s.Mem)),
		Threads: make([]ra.Thread, len(s.Threads)),
	}
	for v, list := range s.Mem {
		nl := make([]ra.Msg, len(list))
		for i, m := range list {
			nl[i] = ra.Msg{Val: m.Val, View: m.View.Clone(), Sealed: m.Sealed}
		}
		out.Mem[v] = nl
	}
	for i, th := range s.Threads {
		regs := make([]lang.Val, len(th.Regs))
		copy(regs, th.Regs)
		out.Threads[i] = ra.Thread{PC: th.PC, Regs: regs, View: th.View.Clone()}
	}
	return out
}

func refInsert(s *ra.State, v lang.VarID, pos int, msg ra.Msg) {
	list := s.Mem[v]
	list = append(list, ra.Msg{})
	copy(list[pos+1:], list[pos:])
	list[pos] = msg
	s.Mem[v] = list
	bump := func(vw ra.View) {
		if vw[v] >= pos {
			vw[v]++
		}
	}
	for vi := range s.Mem {
		for mi := range s.Mem[vi] {
			if vi == int(v) && mi == pos {
				continue
			}
			bump(s.Mem[vi][mi].View)
		}
	}
	for ti := range s.Threads {
		bump(s.Threads[ti].View)
	}
}

func refNorm(inst *ra.Instance, v lang.Val) lang.Val {
	d := lang.Val(inst.Sys.Dom)
	return ((v % d) + d) % d
}

func refSuccessors(inst *ra.Instance, s *ra.State) []ra.Succ {
	var out []ra.Succ
	vars := inst.Sys.Vars
	for ti := range s.Threads {
		info := inst.Threads[ti]
		th := &s.Threads[ti]
		regs := info.CFG.Prog.Regs
		for _, e := range info.CFG.Out[th.PC] {
			ev := ra.Event{Thread: ti, Name: info.Name, Op: e.Op.String(regs, vars)}
			switch e.Op.Kind {
			case lang.OpNop:
				ns := refClone(s)
				ns.Threads[ti].PC = e.To
				out = append(out, ra.Succ{State: ns, Event: ev})
			case lang.OpAssume:
				if e.Op.E.Eval(th.Regs) != 0 {
					ns := refClone(s)
					ns.Threads[ti].PC = e.To
					out = append(out, ra.Succ{State: ns, Event: ev})
				}
			case lang.OpAssertFail:
				ns := refClone(s)
				ns.Threads[ti].PC = e.To
				ev.Assert = true
				out = append(out, ra.Succ{State: ns, Event: ev})
			case lang.OpAssign:
				ns := refClone(s)
				ns.Threads[ti].PC = e.To
				ns.Threads[ti].Regs[e.Op.Reg] = refNorm(inst, e.Op.E.Eval(th.Regs))
				out = append(out, ra.Succ{State: ns, Event: ev})
			case lang.OpLoad:
				v := e.Op.Var
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := s.Mem[v][pos]
					ns := refClone(s)
					nt := &ns.Threads[ti]
					nt.PC = e.To
					nt.Regs[e.Op.Reg] = msg.Val
					nt.View = nt.View.Join(msg.View)
					lev := ev
					lev.Op = fmt.Sprintf("%s  (ts %d, val %d)", ev.Op, pos, int(msg.Val))
					out = append(out, ra.Succ{State: ns, Event: lev})
				}
			case lang.OpStore:
				v := e.Op.Var
				d := refNorm(inst, e.Op.E.Eval(th.Regs))
				for pos := th.View[v] + 1; pos <= len(s.Mem[v]); pos++ {
					if s.Mem[v][pos-1].Sealed {
						continue
					}
					ns := refClone(s)
					nt := &ns.Threads[ti]
					nt.PC = e.To
					mv := nt.View.Clone()
					mv[v] = pos
					refInsert(ns, v, pos, ra.Msg{Val: d, View: mv})
					nt.View = mv.Clone()
					sev := ev
					sev.Op = fmt.Sprintf("%s  (ts %d)", ev.Op, pos)
					out = append(out, ra.Succ{State: ns, Event: sev})
				}
			case lang.OpCASOp:
				v := e.Op.Var
				expect := refNorm(inst, e.Op.E.Eval(th.Regs))
				newVal := refNorm(inst, e.Op.E2.Eval(th.Regs))
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := s.Mem[v][pos]
					if msg.Val != expect || msg.Sealed {
						continue
					}
					ns := refClone(s)
					nt := &ns.Threads[ti]
					nt.PC = e.To
					mv := nt.View.Join(msg.View)
					mv[v] = pos + 1
					refInsert(ns, v, pos+1, ra.Msg{Val: newVal, View: mv})
					ns.Mem[v][pos].Sealed = true
					nt.View = mv.Clone()
					cev := ev
					cev.Op = fmt.Sprintf("%s  (ts %d->%d)", ev.Op, pos, pos+1)
					out = append(out, ra.Succ{State: ns, Event: cev})
				}
			}
		}
	}
	return out
}

// refKey is the reference key encoding: symmetry sorts the env sections as
// strings.
func refKey(s *ra.State, symmetry bool, nEnv int) string {
	enc := engine.NewKeyEnc()
	for _, list := range s.Mem {
		enc.Len(len(list))
		for _, m := range list {
			enc.Int(int(m.Val))
			sealed := 0
			if m.Sealed {
				sealed = 1
			}
			enc.Int(sealed)
			enc.Len(len(m.View))
			for _, t := range m.View {
				enc.Int(t)
			}
		}
	}
	thread := func(enc *engine.KeyEnc, i int) {
		th := s.Threads[i]
		enc.Int(int(th.PC))
		enc.Len(len(th.Regs))
		for _, r := range th.Regs {
			enc.Int(int(r))
		}
		enc.Len(len(th.View))
		for _, t := range th.View {
			enc.Int(t)
		}
	}
	first := 0
	if symmetry {
		var envKeys []string
		for i := 0; i < nEnv && i < len(s.Threads); i++ {
			tenc := engine.NewKeyEnc()
			thread(tenc, i)
			envKeys = append(envKeys, tenc.String())
		}
		sort.Strings(envKeys)
		for _, k := range envKeys {
			enc.Raw([]byte(k))
		}
		first = nEnv
	}
	for i := first; i < len(s.Threads); i++ {
		thread(enc, i)
	}
	return enc.String()
}

type refEdge struct {
	prevKey string
	ev      ra.Event
}

// refWitness walks back-edges from the state keyed last up to the root and
// returns the computation that ends with final.
func refWitness(lookup func(string) (refEdge, bool), root, last string, final ra.Event) []ra.Event {
	rev := []ra.Event{final}
	for k := last; k != root; {
		be, ok := lookup(k)
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

// refExplore is a breadth-first search for an `assert false` transition on
// the reference relation and key, sharing no code with the engine's
// drivers. Its witnesses are shortest computations.
func refExplore(inst *ra.Instance, lim ra.Limits) ra.Result {
	type node struct {
		state *ra.State
		key   string
	}
	key := func(s *ra.State) string { return refKey(s, lim.Symmetry, inst.NumEnv()) }
	init := inst.InitState()
	initKey := key(init)
	visited := map[string]refEdge{initKey: {}}
	lookup := func(k string) (refEdge, bool) {
		be, ok := visited[k]
		return be, ok
	}
	queue := []node{{init, initKey}}
	res := ra.Result{States: 1}
	limited := false
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, succ := range refSuccessors(inst, n.state) {
			res.Transitions++
			if succ.Event.Assert {
				res.Unsafe = true
				res.Witness = refWitness(lookup, initKey, n.key, succ.Event)
				return res
			}
			sk := key(succ.State)
			if _, seen := visited[sk]; seen {
				continue
			}
			if lim.MaxStates > 0 && res.States >= lim.MaxStates {
				limited = true
				continue
			}
			visited[sk] = refEdge{prevKey: n.key, ev: succ.Event}
			res.States++
			queue = append(queue, node{succ.State, sk})
		}
	}
	res.Complete = !limited
	return res
}

// refExploreContext is ExploreContext on the reference successor relation.
func refExploreContext(inst *ra.Instance, lim ra.Limits) ra.Result {
	init := inst.InitState()
	key := func(s *ra.State) string { return refKey(s, lim.Symmetry, inst.NumEnv()) }
	initKey := key(init)
	visited := engine.NewShardedMap[refEdge]()
	noScratch := func() struct{} { return struct{}{} }
	expand := func(_ struct{}, s *ra.State, k string, buf []engine.Succ[*ra.State, refEdge]) []engine.Succ[*ra.State, refEdge] {
		out := buf
		for _, succ := range refSuccessors(inst, s) {
			if succ.Event.Assert {
				out = append(out, engine.Succ[*ra.State, refEdge]{Halt: true, Tag: succ.Event})
				break
			}
			sk := key(succ.State)
			if visited.HasBytes([]byte(sk)) {
				out = append(out, engine.Succ[*ra.State, refEdge]{Dedup: true})
				continue
			}
			out = append(out, engine.Succ[*ra.State, refEdge]{State: succ.State, Key: sk, Val: refEdge{prevKey: k, ev: succ.Event}})
		}
		return out
	}
	out := engine.Explore(context.Background(), engine.Config{
		Workers: lim.Workers, MaxStates: lim.MaxStates,
	}, visited, init, initKey, refEdge{}, noScratch, expand)
	res := ra.Result{
		Unsafe:      out.Halted,
		States:      int(out.Stats.States),
		Transitions: int(out.Stats.Transitions),
		Complete:    out.Complete,
	}
	if out.Halted {
		res.Witness = refWitness(visited.Get, initKey, out.HaltParent, out.HaltTag.(ra.Event))
	}
	return res
}

// replayWitness checks that w is a computation of inst ending in a failed
// assert: from InitState, every event must be the event of a reference
// successor of a state the prefix reaches, and only the last is an assert.
// Distinct edges can render the same event (two skip branches of a
// choice), so the replay tracks every state the prefix can reach.
func replayWitness(inst *ra.Instance, w []ra.Event) error {
	if len(w) == 0 {
		return errors.New("empty witness")
	}
	cur := []*ra.State{inst.InitState()}
	for i, ev := range w {
		if ev.Assert != (i == len(w)-1) {
			return fmt.Errorf("step %d (%+v): only the last step may be the assert", i+1, ev)
		}
		var next []*ra.State
		seen := map[string]bool{}
		for _, s := range cur {
			for _, succ := range refSuccessors(inst, s) {
				if k := refKey(succ.State, false, 0); succ.Event == ev && !seen[k] {
					seen[k] = true
					next = append(next, succ.State)
				}
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("step %d (%+v) is not enabled", i+1, ev)
		}
		cur = next
	}
	return nil
}

// refDeadlocks classifies the sink states of inst breadth-first on the
// reference relation, keeping the deadlock with the smallest key as the
// example. The report is complete only if the walk stayed within maxStates.
func refDeadlocks(inst *ra.Instance, maxStates int) ra.DeadlockReport {
	init := inst.InitState()
	seen := map[string]bool{refKey(init, false, 0): true}
	queue := []*ra.State{init}
	rep := ra.DeadlockReport{Complete: true}
	exampleKey := ""
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		succs := refSuccessors(inst, s)
		if len(succs) == 0 {
			var stuck []string
			for ti := range s.Threads {
				if len(inst.Threads[ti].CFG.Out[s.Threads[ti].PC]) > 0 {
					stuck = append(stuck, inst.Threads[ti].Name)
				}
			}
			if len(stuck) == 0 {
				rep.Terminal++
				continue
			}
			rep.Deadlocks++
			if k := refKey(s, false, 0); exampleKey == "" || k < exampleKey {
				exampleKey, rep.Example, rep.StuckThreads = k, s.String(), stuck
			}
			continue
		}
		for _, succ := range succs {
			k := refKey(succ.State, false, 0)
			if succ.Event.Assert || seen[k] {
				continue
			}
			if len(seen) >= maxStates {
				rep.Complete = false
				continue
			}
			seen[k] = true
			queue = append(queue, succ.State)
		}
	}
	return rep
}

// checkDeadlocks compares FindDeadlocksContext at one, two and eight
// workers with the reference scan on instances the reference exhausts
// within maxStates.
func checkDeadlocks(t *testing.T, name string, inst *ra.Instance, maxStates int) {
	t.Helper()
	want := refDeadlocks(inst, maxStates)
	if !want.Complete {
		return
	}
	for _, j := range diffWorkers {
		got := inst.FindDeadlocksContext(context.Background(), ra.Limits{Workers: j, MaxStates: maxStates})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s j=%d: deadlock scan %+v, reference %+v", name, j, got, want)
		}
	}
}

// checkSuccessors walks up to maxStates states of inst breadth-first on the
// reference relation and, in each, compares the explorers' generator (keys
// and events) and the public Successors (cloned states and events) with
// the reference. It returns the number of states checked.
func checkSuccessors(t *testing.T, name string, inst *ra.Instance, symmetry bool, maxStates int) int {
	t.Helper()
	nEnv := inst.NumEnv()
	init := inst.InitState()
	seen := map[string]bool{refKey(init, symmetry, nEnv): true}
	queue := []*ra.State{init}
	checked := 0
	for len(queue) > 0 && checked < maxStates {
		s := queue[0]
		queue = queue[1:]
		checked++
		want := refSuccessors(inst, s)
		got := inst.KeyedSuccessors(s, symmetry)
		pub := inst.Successors(s)
		if len(got) != len(want) || len(pub) != len(want) {
			t.Fatalf("%s sym=%v: %d generated and %d public successors, reference has %d\nstate:\n%s",
				name, symmetry, len(got), len(pub), len(want), s)
		}
		for i, w := range want {
			wk := refKey(w.State, symmetry, nEnv)
			if got[i].Key != wk || got[i].Event != w.Event {
				t.Fatalf("%s sym=%v: successor %d = (%x, %+v), reference (%x, %+v)\nstate:\n%s",
					name, symmetry, i, got[i].Key, got[i].Event, wk, w.Event, s)
			}
			if pk := refKey(pub[i].State, symmetry, nEnv); pk != wk || pub[i].Event != w.Event {
				t.Fatalf("%s sym=%v: public successor %d = (%x, %+v), reference (%x, %+v)",
					name, symmetry, i, pk, pub[i].Event, wk, w.Event)
			}
			if !seen[wk] {
				seen[wk] = true
				queue = append(queue, w.State)
			}
		}
	}
	return checked
}

// diffWorkers are the worker counts the differential tests run the
// explorers at.
var diffWorkers = []int{1, 2, 8}

// checkExplore runs ExploreContext at every count in diffWorkers against
// the two references. At one worker it must reproduce refExploreContext
// exactly: verdict, completeness, counts and witness text. At every count,
// where the BFS reference exhausts the instance it must report the same
// verdict, states and transitions; where the reference finds a violation it
// must not report a complete SAFE; and every witness it returns must
// replay. It returns the one-worker result.
func checkExplore(t *testing.T, name string, inst *ra.Instance, lim ra.Limits) ra.Result {
	t.Helper()
	bfs := refExplore(inst, lim)
	var first ra.Result
	for _, j := range diffWorkers {
		lim.Workers = j
		got := inst.ExploreContext(context.Background(), lim)
		if j == 1 {
			first = got
			want := refExploreContext(inst, lim)
			if got.Unsafe != want.Unsafe || got.Complete != want.Complete ||
				got.States != want.States || got.Transitions != want.Transitions {
				t.Fatalf("%s %+v: unsafe=%v complete=%v states=%d transitions=%d, reference unsafe=%v complete=%v states=%d transitions=%d",
					name, lim, got.Unsafe, got.Complete, got.States, got.Transitions,
					want.Unsafe, want.Complete, want.States, want.Transitions)
			}
			if g, w := ra.FormatWitness(got.Witness), ra.FormatWitness(want.Witness); g != w {
				t.Fatalf("%s %+v: witness\n%s\nreference witness\n%s", name, lim, g, w)
			}
		}
		if bfs.Complete && (got.Unsafe || !got.Complete || got.States != bfs.States || got.Transitions != bfs.Transitions) {
			t.Fatalf("%s %+v: unsafe=%v complete=%v states=%d transitions=%d, BFS reference exhausted %d states and %d transitions",
				name, lim, got.Unsafe, got.Complete, got.States, got.Transitions, bfs.States, bfs.Transitions)
		}
		if bfs.Unsafe && !got.Unsafe && got.Complete {
			t.Fatalf("%s %+v: complete SAFE, BFS reference found\n%s", name, lim, ra.FormatWitness(bfs.Witness))
		}
		if got.Unsafe {
			if err := replayWitness(inst, got.Witness); err != nil {
				t.Fatalf("%s %+v: witness does not replay: %v\n%s", name, lim, err, ra.FormatWitness(got.Witness))
			}
		}
	}
	return first
}

// diffCorpusStates bounds the states walked per corpus instance.
const diffCorpusStates = 30_000

func TestSuccessorsMatchReferenceCorpus(t *testing.T) {
	for _, e := range bench.Corpus() {
		sys := e.System()
		for n := 0; n <= 3; n++ {
			if n > 0 && sys.Env == nil {
				break
			}
			inst, err := ra.NewInstance(sys, n)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n=%d", e.Name, n)
			for _, sym := range []bool{false, true} {
				checkSuccessors(t, name, inst, sym, diffCorpusStates)
				checkExplore(t, name, inst, ra.Limits{MaxStates: diffCorpusStates, Symmetry: sym})
			}
			checkDeadlocks(t, name, inst, diffCorpusStates)
		}
	}
}

func TestSuccessorsMatchReferenceFuzz(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		prof := fuzzgen.ProfileForIndex(byte(seed))
		sys := fuzzgen.Generate(int64(seed), prof)
		for n := 0; n <= 2; n++ {
			if n > 0 && sys.Env == nil {
				break
			}
			inst, err := ra.NewInstance(sys, n)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d (%s)/n=%d", seed, prof.Name, n)
			for _, sym := range []bool{false, true} {
				checkSuccessors(t, name, inst, sym, 200)
				checkExplore(t, name, inst, ra.Limits{MaxStates: 500, Symmetry: sym})
			}
			checkDeadlocks(t, name, inst, 500)
		}
	}
}

// TestReachablePCs: on the reference relation, a thread blocked by an
// assume that can never pass never reaches its exit.
func TestReachablePCs(t *testing.T) {
	sys := lang.MustParseSystem(`
system s { vars x; domain 2; dis t }
thread t { regs r; r = load x; assume r == 1; store x 1 }
`)
	inst, err := ra.NewInstance(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	init := inst.InitState()
	seen := map[string]bool{refKey(init, false, 0): true}
	reach := map[lang.PC]bool{}
	for queue := []*ra.State{init}; len(queue) > 0; queue = queue[1:] {
		reach[queue[0].Threads[0].PC] = true
		for _, succ := range refSuccessors(inst, queue[0]) {
			if k := refKey(succ.State, false, 0); !seen[k] {
				seen[k] = true
				queue = append(queue, succ.State)
			}
		}
	}
	g := inst.Threads[0].CFG
	if !reach[g.Entry] {
		t.Error("entry unreachable?")
	}
	// assume r == 1 can never pass (x stays 0 until the store, which is
	// after the assume), so the exit must be unreachable.
	if reach[g.Exit] {
		t.Error("exit should be blocked by assume r == 1")
	}
}

// TestReplayRejectsDroppedStep: the witness replay is not vacuous. A BFS
// witness is a shortest computation, so with any one step dropped it must
// fail to replay.
func TestReplayRejectsDroppedStep(t *testing.T) {
	e, _ := bench.ByName("prodcons-fig1")
	inst, err := ra.NewInstance(e.System(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := refExplore(inst, ra.Limits{MaxStates: diffCorpusStates})
	if !res.Unsafe || len(res.Witness) < 2 {
		t.Fatalf("want a violation with a multi-step witness, got %+v", res)
	}
	if err := replayWitness(inst, res.Witness); err != nil {
		t.Fatalf("BFS witness does not replay: %v", err)
	}
	for i := range res.Witness {
		dropped := append(append([]ra.Event(nil), res.Witness[:i]...), res.Witness[i+1:]...)
		if replayWitness(inst, dropped) == nil {
			t.Fatalf("witness with step %d dropped still replays:\n%s", i+1, ra.FormatWitness(dropped))
		}
	}
}

// TestBarrierReplayCounts pins the state and transition counts of the
// prepass replay of the corpus barrier at four env replicas.
func TestBarrierReplayCounts(t *testing.T) {
	e, _ := bench.ByName("barrier")
	inst, err := ra.NewInstance(e.System(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := checkExplore(t, "barrier/n=4", inst, ra.Limits{MaxStates: 30_000, Symmetry: true})
	if !res.Complete || res.Unsafe || res.States != 14_029 || res.Transitions != 58_282 {
		t.Fatalf("barrier n=4: complete=%v unsafe=%v states=%d transitions=%d, want a complete safe search of 14029 states and 58282 transitions",
			res.Complete, res.Unsafe, res.States, res.Transitions)
	}
}
