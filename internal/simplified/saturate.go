package simplified

import (
	"paramra/internal/lang"
)

// loadTarget is a readable message together with the view the reader adopts
// and the message's reference, which the callers thread into read logs.
type loadTarget struct {
	msg  AMsg
	view AView
	ref  MsgRef
}

// loadTargets enumerates the messages a thread with view vw can load from
// variable x, and the resulting views:
//
//   - dis messages are timestamp-checked (vw(x) ≤ ts) and joined as in the
//     concrete semantics;
//   - env messages carry no check (Infinite Supply: some clone is high
//     enough), and the resulting view of x is bumped into the ⁺-region of
//     the join's floor — the clone actually read lies strictly above the
//     reader's previous view of x, so the reader can no longer access the
//     integer timestamp at that floor.
//
// Results are appended to buf (pass buf[:0] to reuse an exec's scratch
// across calls; the returned slice is only valid until the next reuse).
func (v *Verifier) loadTargets(st *state, vw AView, x lang.VarID, buf []loadTarget) []loadTarget {
	out := buf
	for _, m := range st.mem.VarMsgs(x) {
		if m.TS >= vw[x] {
			out = append(out, loadTarget{msg: m, view: vw.Join(m.View), ref: m.Ref})
		}
	}
	for _, me := range st.env.MsgsByVar[x] {
		j := vw.Join(me.Msg.View)
		j[x] = Plus(j[x].Floor())
		out = append(out, loadTarget{msg: me.Msg, view: j, ref: EnvRef(me.Idx)})
	}
	return out
}

// satPush enqueues a configuration key on the saturation worklist unless it
// is already queued. The worklist and its membership set are plain exec
// fields (not closure captures) so saturate allocates nothing per call once
// the scratch has warmed up.
func (ex *exec) satPush(k string) {
	if !ex.satInWork[k] {
		ex.satInWork[k] = true
		ex.satWork = append(ex.satWork, k)
	}
}

// satPushAll re-enqueues every configuration in ConfigOrder (after a new
// message appears, any of them may now load it).
func (ex *exec) satPushAll(st *state) {
	for _, k := range st.env.ConfigOrder {
		ex.satPush(k)
	}
}

// satAddConfig inserts a derived configuration and enqueues it if new. The
// key probe uses the exec's embedded encoder scratch.
func (ex *exec) satAddConfig(st *state, c AThread) {
	if k, added := st.env.addConfigEnc(c, &ex.enc); added {
		ex.satPush(k)
	}
}

// satPollEvery is how many worklist pops saturate makes between two looks
// at its exec's context: one saturation can run for seconds.
const satPollEvery = 256

// saturate closes the env part of st under env transitions, mutating
// st.env. It returns a non-nil Violation when an env thread can reach an
// `assert false` or generate the goal message. When the exec's context is
// cancelled it stops and returns the context's error: st is then half
// saturated and must be neither admitted nor judged.
func (ex *exec) saturate(st *state) (*Violation, error) {
	v := ex.v
	if v.envCFG == nil {
		return nil, nil
	}
	// Worklist of configuration keys, seeded and re-seeded in ConfigOrder so
	// the first derivation of each config/message is the same for every run
	// and worker count (stable provenance ⇒ stable witnesses and bounds).
	// The worklist and its membership set live on the exec and are reused
	// across the successor saturations of one expansion.
	ex.satWork = ex.satWork[:0]
	if ex.satInWork == nil {
		ex.satInWork = map[string]bool{}
	} else {
		clear(ex.satInWork)
	}
	ex.satPushAll(st)

	for len(ex.satWork) > 0 {
		if ex.ctx != nil && ex.satPops%satPollEvery == 0 {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		ex.satPops++
		k := ex.satWork[len(ex.satWork)-1]
		ex.satWork = ex.satWork[:len(ex.satWork)-1]
		ex.satInWork[k] = false
		cfg, ok := st.env.Configs[k]
		if !ok {
			continue
		}
		for _, e := range v.envCFG.Out[cfg.PC] {
			ex.stats.SaturationSteps++
			switch e.Op.Kind {
			case lang.OpNop:
				ex.satAddConfig(st, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 {
					ex.satAddConfig(st, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})
				}

			case lang.OpAssertFail:
				// In Message Generation mode asserts are inert (the §4.1
				// reduction replaces them by goal stores).
				if v.opts.Goal == nil {
					return &Violation{ByEnv: true, Log: cfg.Log}, nil
				}

			case lang.OpAssign:
				regs := cfg.cloneRegs()
				regs[e.Op.Reg] = e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				ex.satAddConfig(st, AThread{PC: e.To, Regs: regs, View: cfg.View, Log: cfg.Log})

			case lang.OpLoad:
				lts := v.loadTargets(st, cfg.View, e.Op.Var, ex.ltBuf[:0])
				for _, lt := range lts {
					regs := cfg.cloneRegs()
					regs[e.Op.Reg] = lt.msg.Val
					log := &ReadLog{Ref: lt.ref, Prev: cfg.Log}
					ex.satAddConfig(st, AThread{PC: e.To, Regs: regs, View: lt.view, Log: log})
				}
				ex.ltBuf = lts[:0]

			case lang.OpStore:
				x := e.Op.Var
				d := e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				view := cfg.View.Clone()
				view[x] = Plus(cfg.View[x].Floor())
				msg := AMsg{Var: x, TS: view[x], Val: d, View: view, Env: true}
				if v.goalHit(msg) {
					mc := msg
					return &Violation{ByEnv: true, Log: cfg.Log, GoalMsg: &mc}, nil
				}
				if st.env.AddMsg(msg, cfg.Log) {
					ex.satPushAll(st)
				}
				ex.satAddConfig(st, AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: cfg.Log})

			case lang.OpCASOp:
				// Unreachable: New rejects env CAS. Kept as a defensive
				// no-op so a future caller cannot silently get wrong
				// results from a hand-built Verifier.
				continue
			}
		}
	}
	return nil, nil
}
