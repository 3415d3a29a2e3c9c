package simplified

import (
	"paramra/internal/lang"
)

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
// the configuration's position: the env message count when its last pass
// began (-1 before its first pass), and its link on the worklist, a stack
// threaded through the slots: the position below it (satBottom for the
// lowest), or satIdle when it is not queued.
type satSlot struct {
	since int32
	next  int32
}

const (
	satBottom = -1
	satIdle   = -2
)

// chunk hands out slices of backing arrays shared by many facts, so that a
// new env fact costs no allocation of its own. A slice handed out is capped
// at its length: an append to it reallocates and never reaches a
// neighbour. The first array holds chunkFirst slices of the size asked
// for, and each next one twice as many, up to chunkMax, so a small search
// allocates little and a large one few arrays.
type chunk[T any] struct {
	free []T
	// facts is the number of slices the next array holds.
	facts int
}

const (
	chunkFirst = 4
	chunkMax   = 512
)

// take returns a fresh slice of n elements.
func (c *chunk[T]) take(n int) []T {
	if len(c.free) < n {
		c.facts = min(max(2*c.facts, chunkFirst), chunkMax)
		c.free = make([]T, n*c.facts)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// clone returns a copy of s taken from the chunk.
func (c *chunk[T]) clone(s []T) []T {
	out := c.take(len(s))
	copy(out, s)
	return out
}

// factChunks are the chunks a search's new env facts take their storage
// from: registers, views and read-log entries.
type factChunks struct {
	regs  chunk[lang.Val]
	views chunk[ATime]
	logs  chunk[ReadLog]
}

// satScratch holds the fields of the configuration or message saturate is
// about to derive, so that it can probe the env set before building
// anything.
type satScratch struct {
	regs []lang.Val
	view AView
}

// regsFrom returns the scratch registers, set to regs.
func (s *satScratch) regsFrom(regs []lang.Val) []lang.Val {
	s.regs = append(s.regs[:0], regs...)
	return s.regs
}

// viewFrom returns the scratch view, set to vw.
func (s *satScratch) viewFrom(vw AView) AView {
	s.view = append(s.view[:0], vw...)
	return s.view
}

// log returns the read log prev extended by a read of ref.
func (f *factChunks) log(ref MsgRef, prev *ReadLog) *ReadLog {
	l := &f.logs.take(1)[0]
	*l = ReadLog{Ref: ref, Prev: prev}
	return l
}

// satPush pushes the configuration at position i on the saturation
// worklist unless it is already queued. The worklist top and the slots are
// plain exec fields (not closure captures) so saturate allocates nothing
// per call once the scratch has warmed up.
func (ex *exec) satPush(i int32) {
	if ex.satSlots[i].next == satIdle {
		ex.satSlots[i].next = ex.satTop
		ex.satTop = i
	}
}

// satPushLoaders enqueues, in insertion order, every configuration whose PC
// has a load edge: after a new message appears, any of them may now load
// it. The others are not queued again. One that has not had its first pass
// is still queued; one that has would make a later pass, which takes only
// load edges and so derives nothing. Leaving those no-op pops out keeps
// every other pop in its order, so the facts, their first derivations and
// their insertion order are unchanged.
//
// The positions are listed (satLoaders) on the saturation's first new
// message, and satInsert extends the list from then on: a saturation that
// derives no message never lists them.
func (ex *exec) satPushLoaders(st *state) {
	if !ex.satListed {
		ex.satListed = true
		ex.satLoaders = ex.satLoaders[:0]
		for i := range st.env.Configs {
			if ex.v.envLoads[st.env.Configs[i].PC] {
				ex.satLoaders = append(ex.satLoaders, int32(i))
			}
		}
	}
	for _, i := range ex.satLoaders {
		ex.satPush(i)
	}
}

// satAdd inserts the configuration c and enqueues it, unless the set
// already holds it. c's slices are stored as they are.
func (ex *exec) satAdd(st *state, c AThread) {
	h := configHash(c.PC, c.Regs, c.View)
	if st.env.findConfig(h, c.PC, c.Regs, c.View) < 0 {
		ex.satInsert(st, h, c)
	}
}

// satInsert inserts the configuration c, which the set lacks, under its
// hash h and enqueues it.
func (ex *exec) satInsert(st *state, h uint32, c AThread) {
	st.env.insertConfig(h, c)
	i := int32(len(st.env.Configs) - 1)
	ex.satSlots = append(ex.satSlots, satSlot{since: -1, next: satIdle})
	if ex.satListed && ex.v.envLoads[c.PC] {
		ex.satLoaders = append(ex.satLoaders, i)
	}
	ex.satPush(i)
}

// satLoad adds the configuration cfg reaches by reading m, which ref
// names, along the load edge e: the loaded register set, and the view
// joined with m's, whose x moves into the ⁺-region when m is an env
// message (see loadTargets). The configuration is formed in scratch, and
// built from chunks only when the set lacks it.
func (ex *exec) satLoad(st *state, cfg *AThread, e lang.Edge, m *AMsg, ref MsgRef) {
	x := e.Op.Var
	regs := ex.sat.regsFrom(cfg.Regs)
	regs[e.Op.Reg] = m.Val
	vw := ex.sat.viewFrom(cfg.View)
	for i, t := range m.View {
		vw[i] = max(vw[i], t)
	}
	if m.Env {
		vw[x] = Plus(vw[x].Floor())
	}
	h := configHash(e.To, regs, vw)
	if st.env.findConfig(h, e.To, regs, vw) >= 0 {
		return
	}
	ex.satInsert(st, h, AThread{PC: e.To, Regs: ex.facts.regs.clone(regs),
		View: ex.facts.views.clone(vw), Log: ex.facts.log(ref, cfg.Log)})
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
//
// Every derived fact is formed in exec scratch and probed before anything
// is built, so a duplicate costs no allocation; a new one takes its
// registers, view and read-log entry from the exec's chunks.
func (ex *exec) saturate(st *state) (*Violation, error) {
	v := ex.v
	if v.envCFG == nil {
		return nil, nil
	}
	env := &st.env
	// Worklist of configuration positions, seeded and re-seeded in
	// insertion order so the first derivation of each config/message is
	// the same for every run (stable provenance ⇒ stable witnesses and
	// bounds). The worklist and the slots live on the exec
	// and are reused across the successor saturations of one expansion.
	ex.satTop, ex.satListed = satBottom, false
	ex.satSlots = ex.satSlots[:0]
	for i := range env.Configs {
		ex.satSlots = append(ex.satSlots, satSlot{since: -1, next: satIdle})
		ex.satPush(int32(i))
	}

	for ex.satTop != satBottom {
		if ex.ctx != nil && ex.satPops%satPollEvery == 0 {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		ex.satPops++
		i := ex.satTop
		ex.satTop = ex.satSlots[i].next
		since := ex.satSlots[i].since
		ex.satSlots[i] = satSlot{since: int32(len(env.Msgs)), next: satIdle}
		cfg := env.Configs[i]
		if since >= 0 {
			for _, e := range v.envCFG.Out[cfg.PC] {
				if e.Op.Kind != lang.OpLoad {
					continue
				}
				ex.stats.SaturationSteps++
				msgs := envMsgsSince(env.MsgsByVar[e.Op.Var], since)
				for k := range msgs {
					ex.satLoad(st, &cfg, e, &msgs[k].Msg, EnvRef(msgs[k].Idx))
				}
			}
			continue
		}
		for _, e := range v.envCFG.Out[cfg.PC] {
			ex.stats.SaturationSteps++
			switch e.Op.Kind {
			case lang.OpNop:
				ex.satAdd(st, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 {
					ex.satAdd(st, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})
				}

			case lang.OpAssertFail:
				// In Message Generation mode asserts are inert (the §4.1
				// reduction replaces them by goal stores).
				if v.opts.Goal == nil {
					return &Violation{ByEnv: true, Log: cfg.Log}, nil
				}

			case lang.OpAssign:
				regs := ex.sat.regsFrom(cfg.Regs)
				regs[e.Op.Reg] = e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				h := configHash(e.To, regs, cfg.View)
				if env.findConfig(h, e.To, regs, cfg.View) < 0 {
					ex.satInsert(st, h, AThread{PC: e.To, Regs: ex.facts.regs.clone(regs),
						View: cfg.View, Log: cfg.Log})
				}

			case lang.OpLoad:
				// The order of loadTargets: dis messages by timestamp, then
				// env messages by index.
				x := e.Op.Var
				dis := st.mem.VarMsgs(x)
				for k := range dis {
					if dis[k].TS >= cfg.View[x] {
						ex.satLoad(st, &cfg, e, &dis[k], dis[k].Ref)
					}
				}
				msgs := env.MsgsByVar[x]
				for k := range msgs {
					ex.satLoad(st, &cfg, e, &msgs[k].Msg, EnvRef(msgs[k].Idx))
				}

			case lang.OpStore:
				x := e.Op.Var
				d := e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				vw := ex.sat.viewFrom(cfg.View)
				vw[x] = Plus(cfg.View[x].Floor())
				msg := AMsg{Var: x, TS: vw[x], Val: d, View: vw, Env: true}
				if v.goalHit(msg) {
					mc := msg
					mc.View = vw.Clone()
					return &Violation{ByEnv: true, Log: cfg.Log, GoalMsg: &mc}, nil
				}
				// The configuration's view equals the message's: both share
				// the stored message's.
				h := msgHash(x, msg.TS, d, vw)
				if j := env.findMsg(h, x, msg.TS, d, vw); j >= 0 {
					msg.View = env.Msgs[j].Msg.View
				} else {
					msg.View = ex.facts.views.clone(vw)
					env.insertMsg(h, msg, cfg.Log)
					ex.satPushLoaders(st)
				}
				ex.satAdd(st, AThread{PC: e.To, Regs: cfg.Regs, View: msg.View, Log: cfg.Log})

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
