package simplified

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/tqbf"
)

// naiveSaturate is the reference saturate is checked against: the env
// closure computed naively, on a worklist of configuration keys re-seeded
// with every configuration in insertion order whenever a new message
// appears, where every pop takes every edge out of the configuration's PC
// against every message. It tells new facts from known ones by their
// rendered keys, in maps of its own, and appends them to st's slices
// directly, so it shares no index with saturate; st must own its env set.
// It has no context to poll; its steps count into ex.stats like
// saturate's.
func naiveSaturate(ex *exec, st *state) *Violation {
	v := ex.v
	if v.envCFG == nil {
		return nil
	}
	var work []string
	inWork := map[string]bool{}
	push := func(k string) {
		if !inWork[k] {
			inWork[k] = true
			work = append(work, k)
		}
	}
	order := make([]string, 0, len(st.env.Configs))
	pos := map[string]int32{}
	for i, c := range st.env.Configs {
		k := c.Key()
		order = append(order, k)
		pos[k] = int32(i)
	}
	msgKeys := map[string]bool{}
	for _, me := range st.env.Msgs {
		msgKeys[me.Msg.Key()] = true
	}
	pushAll := func() {
		for _, k := range order {
			push(k)
		}
	}
	addConfig := func(c AThread) {
		k := c.Key()
		if _, ok := pos[k]; ok {
			return
		}
		pos[k] = int32(len(st.env.Configs))
		st.env.Configs = append(st.env.Configs, c)
		order = append(order, k)
		push(k)
	}
	addMsg := func(m AMsg, log *ReadLog) bool {
		k := m.Key()
		if msgKeys[k] {
			return false
		}
		msgKeys[k] = true
		me := MsgEntry{Msg: m, Log: log, Idx: int32(len(st.env.Msgs))}
		st.env.Msgs = append(st.env.Msgs, me)
		st.env.MsgsByVar[m.Var] = append(st.env.MsgsByVar[m.Var], me)
		return true
	}
	pushAll()

	var ltBuf []loadTarget
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[k] = false
		cfg := st.env.Configs[pos[k]]
		for _, e := range v.envCFG.Out[cfg.PC] {
			ex.stats.SaturationSteps++
			switch e.Op.Kind {
			case lang.OpNop:
				addConfig(AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 {
					addConfig(AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})
				}

			case lang.OpAssertFail:
				if v.opts.Goal == nil {
					return &Violation{ByEnv: true, Log: cfg.Log}
				}

			case lang.OpAssign:
				regs := cfg.cloneRegs()
				regs[e.Op.Reg] = e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				addConfig(AThread{PC: e.To, Regs: regs, View: cfg.View, Log: cfg.Log})

			case lang.OpLoad:
				lts := v.loadTargets(st, cfg.View, e.Op.Var, ltBuf[:0])
				for _, lt := range lts {
					regs := cfg.cloneRegs()
					regs[e.Op.Reg] = lt.msg.Val
					log := &ReadLog{Ref: lt.ref, Prev: cfg.Log}
					addConfig(AThread{PC: e.To, Regs: regs, View: lt.view, Log: log})
				}
				ltBuf = lts[:0]

			case lang.OpStore:
				x := e.Op.Var
				d := e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				view := cfg.View.Clone()
				view[x] = Plus(cfg.View[x].Floor())
				msg := AMsg{Var: x, TS: view[x], Val: d, View: view, Env: true}
				if v.goalHit(msg) {
					mc := msg
					return &Violation{ByEnv: true, Log: cfg.Log, GoalMsg: &mc}
				}
				if addMsg(msg, cfg.Log) {
					pushAll()
				}
				addConfig(AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: cfg.Log})
			}
		}
	}
	return nil
}

// checkedSaturate saturates st with ex.saturate and a clone of st with
// naiveSaturate, and reports whether the two agree exactly (sameSaturation).
// It returns saturate's violation.
func checkedSaturate(ex *exec, st *state) (*Violation, bool) {
	ref := st.clone()
	// The reference takes its own storage now: saturate mutates an unshared
	// st in place, which a borrowing clone would see.
	ref.env.thaw()
	want := naiveSaturate(&exec{v: ex.v}, ref)
	got, _ := ex.saturate(st)
	return got, sameSaturation(&ref.env, &st.env, want, got)
}

// sameSaturation reports whether two saturations of one state came out the
// same: the configurations in the same order with the same keys, every
// variable's messages in the same order with the same key, index and read
// log, and the same violation (kind, read log and goal message).
func sameSaturation(a, b *EnvSet, va, vb *Violation) bool {
	if len(a.Configs) != len(b.Configs) || len(a.MsgsByVar) != len(b.MsgsByVar) {
		return false
	}
	for i := range a.Configs {
		if a.Configs[i].Key() != b.Configs[i].Key() {
			return false
		}
	}
	for x := range a.MsgsByVar {
		ma, mb := a.MsgsByVar[x], b.MsgsByVar[x]
		if len(ma) != len(mb) {
			return false
		}
		for i := range ma {
			if ma[i].Msg.Key() != mb[i].Msg.Key() || ma[i].Idx != mb[i].Idx ||
				!slices.Equal(ma[i].Log.Refs(), mb[i].Log.Refs()) {
				return false
			}
		}
	}
	if (va == nil) != (vb == nil) {
		return false
	}
	if va == nil {
		return true
	}
	if va.ByEnv != vb.ByEnv || !slices.Equal(va.Log.Refs(), vb.Log.Refs()) ||
		(va.GoalMsg == nil) != (vb.GoalMsg == nil) {
		return false
	}
	return va.GoalMsg == nil || va.GoalMsg.Key() == vb.GoalMsg.Key()
}

// TestSaturationMatchesNaiveTQBF: the semi-naive closure of the initial
// state comes out exactly as the naive one (configuration order and keys,
// message order, indices and provenance, and the violation) on the TQBF
// reductions of depth 1 and 2, seeds 0–31. Their env threads are where the
// order of derivations shows: a true formula's saturation stops at the goal
// with a partial env set, which a different order would leave different.
// The corpus never reaches that case, and the fuzzgen population rarely.
func TestSaturationMatchesNaiveTQBF(t *testing.T) {
	truth := map[bool]int{}
	for depth := 1; depth <= 2; depth++ {
		for seed := int64(0); seed < 32; seed++ {
			q := tqbf.Random(rand.New(rand.NewSource(seed)), depth, 2)
			sys, err := tqbf.Reduce(q)
			if err != nil {
				t.Fatal(err)
			}
			v, err := New(sys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			viol, same := checkedSaturate(v.newExec(context.Background()), v.initState())
			if !same {
				t.Errorf("depth %d seed %d: the initial saturation differs from the naive closure", depth, seed)
			}
			truth[q.Eval()]++
			if q.Eval() && viol == nil {
				t.Errorf("depth %d seed %d: a true formula's initial saturation reaches no violation", depth, seed)
			}
		}
	}
	if truth[true] == 0 || truth[false] == 0 {
		t.Fatalf("formulas by truth value %v: both must occur", truth)
	}
}
