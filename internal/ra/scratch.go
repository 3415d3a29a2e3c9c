package ra

import (
	"paramra/internal/engine"
	"paramra/internal/lang"
)

// scratch is a successor workspace owned by one exploring goroutine: the
// engine makes one per worker (newScratch) and hands it to every expansion
// the worker runs. It holds the successor eachSucc has just built, in one of
// two forms, plus the buffers and key encoders behind it. Once the buffers
// have grown to the instance's size, building a successor and its key
// allocates nothing.
//
//   - A thread-local step (nop, assume, assert, assign, load) changes only
//     its own thread: the successor is the parent with thread ti replaced by
//     th. Its key reuses the parent's memory and thread sections, encoded
//     once per parent, and the state is copied only if it is new.
//   - A store or CAS changes memory: the successor is built in full in the
//     embedded State, whose modification orders have spare capacity for the
//     inserted message.
type scratch struct {
	// local reports which form the current successor has.
	local bool
	// parent is the state being expanded; ti and th are the thread a local
	// step changes and its new configuration.
	parent *State
	ti     int
	th     Thread
	// thRegs and thView back th.
	thRegs []lang.Val
	thView View

	// State is the full successor of a store or CAS, carved from arena.
	State
	arena
	// spare is the view of the message insert adds.
	spare View

	// enc holds the current successor's key.
	enc engine.KeyEnc
	// envs sorts the env-replica sections of a symmetry key.
	envs envSort
	// parentKeyed reports whether parentMem and parentThreads hold the
	// parent's memory section and per-thread sections.
	parentKeyed   bool
	parentMem     engine.KeyEnc
	parentThreads sections
	// thKey is the encoding of th.
	thKey engine.KeyEnc
}

func newScratch() *scratch { return new(scratch) }

// begin starts the expansion of s.
func (sc *scratch) begin(s *State) {
	sc.parent, sc.parentKeyed = s, false
}

// setLocal makes the successor the parent with thread ti moved to pc; the
// caller then updates sc.th's registers and view.
func (sc *scratch) setLocal(ti int, pc lang.PC) {
	src := &sc.parent.Threads[ti]
	sc.local, sc.ti = true, ti
	sc.thRegs = append(sc.thRegs[:0], src.Regs...)
	sc.thView = append(sc.thView[:0], src.View...)
	sc.th = Thread{PC: pc, Regs: sc.thRegs, View: sc.thView}
}

// setFull makes the embedded State a copy of the parent in the scratch's own
// buffers, for a store or CAS to modify. Every modification order keeps one
// spare message slot, and spare one spare view, so the step inserts its
// message in place.
func (sc *scratch) setFull() {
	s := sc.parent
	sc.local = false
	nMsg, nView, nReg := len(s.Mem), len(s.Mem), 0
	for _, list := range s.Mem {
		nMsg += len(list)
		for i := range list {
			nView += len(list[i].View)
		}
	}
	for i := range s.Threads {
		nView += len(s.Threads[i].View)
		nReg += len(s.Threads[i].Regs)
	}
	sc.Mem = resize(sc.Mem, len(s.Mem))
	sc.Threads = resize(sc.Threads, len(s.Threads))
	sc.msgs = resize(sc.msgs, nMsg)
	sc.views = resize(sc.views, nView)
	sc.regs = resize(sc.regs, nReg)
	off := sc.arena.fill(&sc.State, s, 1)
	sc.spare = sc.views[off : off+len(s.Mem) : off+len(s.Mem)]
}

// resize returns b with length n, reallocating only when its capacity is
// too small.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// materialize returns the current successor as a state of its own.
func (sc *scratch) materialize() *State {
	if !sc.local {
		return sc.State.Clone()
	}
	ns := sc.parent.Clone()
	th := &ns.Threads[sc.ti]
	th.PC = sc.th.PC
	copy(th.Regs, sc.th.Regs)
	copy(th.View, sc.th.View)
	return ns
}

// keyInto encodes the visited-set key of the current successor into sc.enc,
// canonicalizing env-replica order when symmetry reduction is enabled. The
// bytes equal those of the materialized state's Key (or SymKey).
func (inst *Instance) keyInto(sc *scratch, symmetry bool) {
	sc.enc.Reset()
	if !sc.local {
		if symmetry {
			sc.appendSymKey(&sc.enc, inst.nEnv, &sc.envs)
		} else {
			sc.appendKey(&sc.enc)
		}
		return
	}
	p := sc.parent
	if !sc.parentKeyed {
		sc.parentMem.Reset()
		p.encodeMemKey(&sc.parentMem)
		sc.parentThreads.reset()
		for i := range p.Threads {
			encodeThread(&sc.parentThreads.buf, &p.Threads[i])
			sc.parentThreads.mark()
		}
		sc.parentKeyed = true
	}
	sc.thKey.Reset()
	encodeThread(&sc.thKey, &sc.th)
	section := func(i int) []byte {
		if i == sc.ti {
			return sc.thKey.Bytes()
		}
		return sc.parentThreads.section(i)
	}
	sc.enc.Raw(sc.parentMem.Bytes())
	first := 0
	if n := min(inst.nEnv, len(p.Threads)); symmetry && n > 1 {
		sc.envs.reset()
		for i := 0; i < n; i++ {
			sc.envs.buf.Raw(section(i))
			sc.envs.mark()
		}
		sc.envs.appendSorted(&sc.enc)
		first = n
	}
	for i := first; i < len(p.Threads); i++ {
		sc.enc.Raw(section(i))
	}
}
