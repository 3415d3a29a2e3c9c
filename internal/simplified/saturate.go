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
		out = append(out, envLoadTarget(vw, x, me))
	}
	return out
}

// envLoadTarget is the load of env message me from x by a thread with view
// vw (see loadTargets).
func envLoadTarget(vw AView, x lang.VarID, me MsgEntry) loadTarget {
	j := vw.Join(me.Msg.View)
	j[x] = Plus(j[x].Floor())
	return loadTarget{msg: me.Msg, view: j, ref: EnvRef(me.Idx)}
}

// envMsgsSince returns the suffix of msgs, a MsgsByVar list, whose
// messages have an Idx of at least since.
func envMsgsSince(msgs []MsgEntry, since int32) []MsgEntry {
	i := len(msgs)
	for i > 0 && msgs[i-1].Idx >= since {
		i--
	}
	return msgs[i:]
}

// satSlot is a configuration's bookkeeping within one saturation, kept at
// the configuration's position: whether it is on the worklist, and the env
// message count when its last pass began (-1 before its first pass).
type satSlot struct {
	since  int32
	queued bool
}

// satPush enqueues the configuration at position i on the saturation
// worklist unless it is already queued. The worklist and the slots are
// plain exec fields (not closure captures) so saturate allocates nothing
// per call once the scratch has warmed up.
func (ex *exec) satPush(i int32) {
	if !ex.satSlots[i].queued {
		ex.satSlots[i].queued = true
		ex.satWork = append(ex.satWork, i)
	}
}

// satPushAll enqueues every configuration in insertion order (after a new
// message appears, any of them may now load it). Configurations without a
// load of the message's variable are pushed too: stack positions decide
// which derivation comes first, and their pass finds nothing new cheaply.
func (ex *exec) satPushAll(st *state) {
	for i := range st.env.Configs {
		ex.satPush(int32(i))
	}
}

// satAddConfig inserts a derived configuration and enqueues it if new. The
// key probe uses the exec's embedded encoder scratch.
func (ex *exec) satAddConfig(st *state, c AThread) {
	if st.env.addConfigEnc(c, &ex.enc) {
		ex.satSlots = append(ex.satSlots, satSlot{since: -1})
		ex.satPush(int32(len(st.env.Configs) - 1))
	}
}

// satLoad adds the configuration cfg reaches by reading lt along the load
// edge e.
func (ex *exec) satLoad(st *state, cfg AThread, e lang.Edge, lt loadTarget) {
	regs := cfg.cloneRegs()
	regs[e.Op.Reg] = lt.msg.Val
	log := &ReadLog{Ref: lt.ref, Prev: cfg.Log}
	ex.satAddConfig(st, AThread{PC: e.To, Regs: regs, View: lt.view, Log: log})
}

// satPollEvery is how many worklist pops saturate makes between two looks
// at its exec's context: one saturation can run for seconds.
const satPollEvery = 256

// saturate closes the env part of st under env transitions, mutating
// st.env. It returns a non-nil Violation when an env thread can reach an
// `assert false` or generate the goal message. When the exec's context is
// cancelled it stops and returns the context's error: st is then half
// saturated and must be neither admitted nor judged.
//
// The closure is semi-naive (DESIGN, "Semi-naive env saturation"): a
// configuration's first pass takes every edge, a later pass only its loads,
// of the env messages added since its previous pass began. Whatever else a
// later pass could take re-derives a fact the set already holds, so the
// facts, their first derivations and their insertion order are those of
// taking every edge on every pass.
func (ex *exec) saturate(st *state) (*Violation, error) {
	v := ex.v
	if v.envCFG == nil {
		return nil, nil
	}
	env := &st.env
	// Worklist of configuration positions, seeded and re-seeded in
	// insertion order so the first derivation of each config/message is
	// the same for every run and worker count (stable provenance ⇒ stable
	// witnesses and bounds). The worklist and the slots live on the exec
	// and are reused across the successor saturations of one expansion.
	ex.satWork = ex.satWork[:0]
	ex.satSlots = ex.satSlots[:0]
	for range env.Configs {
		ex.satSlots = append(ex.satSlots, satSlot{since: -1})
	}
	ex.satPushAll(st)

	for len(ex.satWork) > 0 {
		if ex.ctx != nil && ex.satPops%satPollEvery == 0 {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		ex.satPops++
		i := ex.satWork[len(ex.satWork)-1]
		ex.satWork = ex.satWork[:len(ex.satWork)-1]
		since := ex.satSlots[i].since
		ex.satSlots[i] = satSlot{since: int32(len(env.Msgs))}
		cfg := env.Configs[i]
		if since >= 0 {
			for _, e := range v.envCFG.Out[cfg.PC] {
				if e.Op.Kind != lang.OpLoad {
					continue
				}
				ex.stats.SaturationSteps++
				x := e.Op.Var
				for _, me := range envMsgsSince(env.MsgsByVar[x], since) {
					ex.satLoad(st, cfg, e, envLoadTarget(cfg.View, x, me))
				}
			}
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
					ex.satLoad(st, cfg, e, lt)
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
				if env.AddMsg(msg, cfg.Log) {
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
