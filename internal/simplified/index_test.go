package simplified

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/tqbf"
)

// envModel is the reference an EnvSet is checked against: its facts by
// position, and their positions under rendered keys.
type envModel struct {
	cfgs   []AThread
	msgs   []MsgEntry
	cfgPos map[string]int32
	msgPos map[string]int32
}

func newEnvModel() *envModel {
	return &envModel{cfgPos: map[string]int32{}, msgPos: map[string]int32{}}
}

func (m *envModel) clone() *envModel {
	c := &envModel{cfgs: slices.Clone(m.cfgs), msgs: slices.Clone(m.msgs),
		cfgPos: map[string]int32{}, msgPos: map[string]int32{}}
	for k, i := range m.cfgPos {
		c.cfgPos[k] = i
	}
	for k, i := range m.msgPos {
		c.msgPos[k] = i
	}
	return c
}

func (m *envModel) addConfig(c AThread) bool {
	k := c.Key()
	if _, ok := m.cfgPos[k]; ok {
		return false
	}
	m.cfgPos[k] = int32(len(m.cfgs))
	m.cfgs = append(m.cfgs, c)
	return true
}

func (m *envModel) addMsg(msg AMsg, log *ReadLog) bool {
	k := msg.Key()
	if _, ok := m.msgPos[k]; ok {
		return false
	}
	m.msgPos[k] = int32(len(m.msgs))
	m.msgs = append(m.msgs, MsgEntry{Msg: msg, Log: log, Idx: int32(len(m.msgs))})
	return true
}

// renumber moves every timestamp on x at or above slot lo to slots, the
// way canonicalize does, and re-keys the facts by position.
func (m *envModel) renumber(x lang.VarID, lo int, slots []int) {
	rt := func(t ATime) ATime {
		if t.Floor() < lo {
			return t
		}
		return Int(slots[t.Floor()]) + t&1
	}
	rv := func(vw AView) AView {
		out := vw.Clone()
		out[x] = rt(vw[x])
		return out
	}
	m.cfgPos = map[string]int32{}
	for i := range m.cfgs {
		m.cfgs[i].View = rv(m.cfgs[i].View)
		m.cfgPos[m.cfgs[i].Key()] = int32(i)
	}
	m.msgPos = map[string]int32{}
	for i := range m.msgs {
		msg := &m.msgs[i].Msg
		msg.View = rv(msg.View)
		if msg.Var == x {
			msg.TS = rt(msg.TS)
		}
		m.msgPos[msg.Key()] = int32(i)
	}
}

// checkEnvSet compares e with its model: the same facts at the same
// positions, messages with the same indices, first read logs and per
// variable lists, and an index that finds every fact at its position.
func checkEnvSet(t *testing.T, what string, e *EnvSet, m *envModel) {
	t.Helper()
	if len(e.Configs) != len(m.cfgs) || len(e.Msgs) != len(m.msgs) {
		t.Fatalf("%s: %d configurations and %d messages, want %d and %d",
			what, len(e.Configs), len(e.Msgs), len(m.cfgs), len(m.msgs))
	}
	if !e.idx.cfgs.holdsExactly(len(m.cfgs)) || !e.idx.msgs.holdsExactly(len(m.msgs)) {
		t.Fatalf("%s: the indexes hold other positions than the set's %d configurations and %d messages",
			what, len(m.cfgs), len(m.msgs))
	}
	for i, c := range m.cfgs {
		if got := e.Configs[i].Key(); got != c.Key() {
			t.Fatalf("%s: configuration %d is %q, want %q", what, i, got, c.Key())
		}
		if p := e.findConfig(configHash(c.PC, c.Regs, c.View), c.PC, c.Regs, c.View); p != int32(i) {
			t.Fatalf("%s: configuration %q found at %d, want %d", what, c.Key(), p, i)
		}
	}
	byVar := make([][]MsgEntry, len(e.MsgsByVar))
	for i, me := range m.msgs {
		got := e.Msgs[i]
		if got.Msg.Key() != me.Msg.Key() || got.Idx != int32(i) || got.Log != me.Log {
			t.Fatalf("%s: message %d is %q, index %d, log %p; want %q, %d, %p",
				what, i, got.Msg.Key(), got.Idx, got.Log, me.Msg.Key(), i, me.Log)
		}
		msg := me.Msg
		if p := e.findMsg(msgHash(msg.Var, msg.TS, msg.Val, msg.View), msg.Var, msg.TS, msg.Val, msg.View); p != int32(i) {
			t.Fatalf("%s: message %q found at %d, want %d", what, msg.Key(), p, i)
		}
		byVar[msg.Var] = append(byVar[msg.Var], me)
	}
	for x := range byVar {
		if len(e.MsgsByVar[x]) != len(byVar[x]) {
			t.Fatalf("%s: x%d lists %d messages, want %d", what, x, len(e.MsgsByVar[x]), len(byVar[x]))
		}
		for i, me := range byVar[x] {
			if got := e.MsgsByVar[x][i]; got.Idx != me.Idx || got.Msg.Key() != me.Msg.Key() {
				t.Fatalf("%s: x%d's message %d has index %d, want %d", what, x, i, got.Idx, me.Idx)
			}
		}
	}
}

// holdsExactly reports whether x holds exactly the positions 0..n-1.
func (x *posIndex) holdsExactly(n int) bool {
	seen := make([]bool, n)
	count := 0
	for _, s := range x.slots {
		if s.pos1 == 0 {
			continue
		}
		p := int(s.pos1 - 1)
		if p >= n || seen[p] {
			return false
		}
		seen[p] = true
		count++
	}
	return count == n
}

// wrapped counts the entries of x that sit below the slot their probe
// chain starts from: chains that wrapped around the end of the table.
func (x *posIndex) wrapped() int {
	n := 0
	for i, s := range x.slots {
		if s.pos1 != 0 && int(s.hash&uint32(len(x.slots)-1)) > i {
			n++
		}
	}
	return n
}

// TestEnvSetIndexRandomOps drives random interleavings of AddConfig,
// AddMsg, Clone, insertions into clones (which thaw them) and renumber
// against a reference keyed by AThread.Key and AMsg.Key. After every
// operation every live set must hold its model's facts at its model's
// positions, find each of them there, find no fact its model lacks, and
// keep its message indices and first read logs: a clone's insertions never
// reach its parent or a sibling. A set that has been cloned is frozen, as
// the explorers freeze a state once its successors exist.
func TestEnvSetIndexRandomOps(t *testing.T) {
	const (
		vars   = 3
		regs   = 2
		ops    = 1500
		maxSet = 4
	)
	wrapped := 0
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randTime := func() ATime { return ATime(rng.Intn(10)) }
		randView := func() AView {
			vw := NewAView(vars)
			for i := range vw {
				vw[i] = randTime()
			}
			return vw
		}
		randConfig := func() AThread {
			c := AThread{PC: lang.PC(rng.Intn(4)), Regs: make([]lang.Val, regs), View: randView()}
			for i := range c.Regs {
				c.Regs[i] = lang.Val(rng.Intn(3))
			}
			return c
		}
		randMsg := func() AMsg {
			x := lang.VarID(rng.Intn(vars))
			vw := randView()
			vw[x] = Plus(vw[x].Floor())
			return AMsg{Var: x, TS: vw[x], Val: lang.Val(rng.Intn(3)), View: vw, Env: true}
		}
		type live struct {
			e      *EnvSet
			m      *envModel
			frozen bool
		}
		sets := []*live{{e: NewEnvSet(vars), m: newEnvModel()}}
		for op := 0; op < ops; op++ {
			s := sets[rng.Intn(len(sets))]
			switch k := rng.Intn(20); {
			case s.frozen || k < 2:
				if len(sets) == maxSet {
					sets = slices.Delete(sets, 0, 1)
				}
				s.frozen = true
				sets = append(sets, &live{e: s.e.Clone(), m: s.m.clone()})
			case k < 10:
				c := randConfig()
				if len(s.m.cfgs) > 0 && rng.Intn(4) == 0 {
					old := s.m.cfgs[rng.Intn(len(s.m.cfgs))]
					c = AThread{PC: old.PC, Regs: slices.Clone(old.Regs), View: old.View.Clone()}
				}
				if got, want := s.e.AddConfig(c), s.m.addConfig(c); got != want {
					t.Fatalf("seed %d op %d: AddConfig(%q) = %v, want %v", seed, op, c.Key(), got, want)
				}
			case k < 18:
				msg := randMsg()
				if len(s.m.msgs) > 0 && rng.Intn(4) == 0 {
					msg = s.m.msgs[rng.Intn(len(s.m.msgs))].Msg
					msg.View = msg.View.Clone()
				}
				log := &ReadLog{Ref: EnvRef(int32(op))}
				if got, want := s.e.AddMsg(msg, log), s.m.addMsg(msg, log); got != want {
					t.Fatalf("seed %d op %d: AddMsg(%q) = %v, want %v", seed, op, msg.Key(), got, want)
				}
			default:
				x := lang.VarID(rng.Intn(vars))
				top := 0
				for _, c := range s.m.cfgs {
					top = max(top, c.View[x].Floor())
				}
				for _, me := range s.m.msgs {
					top = max(top, me.Msg.View[x].Floor())
				}
				lo := rng.Intn(top + 1)
				slots := make([]int, top+1)
				for i := range slots {
					switch {
					case i < lo:
						slots[i] = i
					case i == lo:
						slots[i] = i + 1 + rng.Intn(2)
					default:
						slots[i] = slots[i-1] + 1 + rng.Intn(2)
					}
				}
				s.e.renumber(&renumbering{x: x, lo: lo, slots: slots})
				s.m.renumber(x, lo, slots)
			}
			for i, l := range sets {
				what := fmt.Sprintf("seed %d op %d set %d", seed, op, i)
				checkEnvSet(t, what, l.e, l.m)
				for probe := 0; probe < 4; probe++ {
					c := randConfig()
					want, ok := l.m.cfgPos[c.Key()]
					if !ok {
						want = -1
					}
					if p := l.e.findConfig(configHash(c.PC, c.Regs, c.View), c.PC, c.Regs, c.View); p != want {
						t.Fatalf("%s: probe %q found at %d, want %d", what, c.Key(), p, want)
					}
					msg := randMsg()
					want, ok = l.m.msgPos[msg.Key()]
					if !ok {
						want = -1
					}
					if p := l.e.findMsg(msgHash(msg.Var, msg.TS, msg.Val, msg.View), msg.Var, msg.TS, msg.Val, msg.View); p != want {
						t.Fatalf("%s: probe %q found at %d, want %d", what, msg.Key(), p, want)
					}
				}
				wrapped += l.e.idx.cfgs.wrapped() + l.e.idx.msgs.wrapped()
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe chain wrapped around the end of a table: the test is too small")
	}
}

// TestResaturationAllocatesNothing: saturating an env set that is already
// closed, on a warm exec, allocates nothing. Every candidate is then a
// duplicate, which saturate forms in scratch and probes before it builds
// anything. The state is the initial one of a SAFE depth-2 TQBF reduction,
// whose saturation derives thousands of facts.
func TestResaturationAllocatesNothing(t *testing.T) {
	var q *tqbf.QBF
	for seed := int64(0); ; seed++ {
		q = tqbf.Random(rand.New(rand.NewSource(seed)), 2, 2)
		if !q.Eval() {
			break
		}
	}
	sys, err := tqbf.Reduce(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := v.newExec(context.Background())
	st := v.initState()
	if viol, err := ex.saturate(st); viol != nil || err != nil {
		t.Fatalf("initial saturation of a false formula's reduction: violation %v, error %v", viol, err)
	}
	cfgs, msgs := len(st.env.Configs), len(st.env.Msgs)
	if cfgs < 100 {
		t.Fatalf("the initial saturation holds %d configurations: too few to show anything", cfgs)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if viol, err := ex.saturate(st); viol != nil || err != nil {
			t.Fatalf("re-saturation: violation %v, error %v", viol, err)
		}
	})
	if len(st.env.Configs) != cfgs || len(st.env.Msgs) != msgs {
		t.Fatalf("re-saturation derived new facts: %d configurations and %d messages, was %d and %d",
			len(st.env.Configs), len(st.env.Msgs), cfgs, msgs)
	}
	if allocs != 0 {
		t.Errorf("re-saturating %d configurations and %d messages allocates %v objects, want 0", cfgs, msgs, allocs)
	}
}
