package ra

import (
	"fmt"

	"paramra/internal/lang"
)

// ThreadKind distinguishes environment replicas from distinguished threads.
type ThreadKind int

// Thread kinds.
const (
	EnvThread ThreadKind = iota + 1
	DisThread
)

// ThreadInfo describes one thread of an instance.
type ThreadInfo struct {
	Kind ThreadKind
	Name string
	// DisIndex is the index into System.Dis for DisThread, or the replica
	// number for EnvThread.
	DisIndex int
	CFG      *lang.CFG
}

// Instance is a fixed instantiation of a parameterized system: nEnv copies
// of the env program plus all dis programs, with compiled CFGs.
type Instance struct {
	Sys     *lang.System
	Threads []ThreadInfo
	// nEnv is the number of env replicas (the leading EnvThread entries).
	nEnv int
}

// NewInstance builds the instance of sys with nEnv environment threads.
// Env replicas come first, then dis threads, matching State.Threads order.
func NewInstance(sys *lang.System, nEnv int) (*Instance, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if nEnv < 0 {
		return nil, fmt.Errorf("ra.NewInstance: negative env count %d", nEnv)
	}
	if nEnv > 0 && sys.Env == nil {
		return nil, fmt.Errorf("ra.NewInstance: system %s has no env program", sys.Name)
	}
	inst := &Instance{Sys: sys}
	var envCFG *lang.CFG
	if sys.Env != nil {
		envCFG = lang.Compile(sys.Env)
	}
	for i := 0; i < nEnv; i++ {
		inst.Threads = append(inst.Threads, ThreadInfo{
			Kind: EnvThread, Name: fmt.Sprintf("%s#%d", sys.Env.Name, i+1),
			DisIndex: i, CFG: envCFG,
		})
	}
	inst.nEnv = nEnv
	for i, d := range sys.Dis {
		inst.Threads = append(inst.Threads, ThreadInfo{
			Kind: DisThread, Name: d.Name, DisIndex: i, CFG: lang.Compile(d),
		})
	}
	return inst, nil
}

// NumEnv returns the number of env replicas in the instance.
func (inst *Instance) NumEnv() int { return inst.nEnv }

// stateKey returns the visited-set key for s, canonicalizing env-replica
// order when symmetry reduction is enabled.
func (inst *Instance) stateKey(s *State, symmetry bool) string {
	if symmetry {
		return s.SymKey(inst.nEnv)
	}
	return s.Key()
}

// InitState returns the initial configuration: per variable a single initial
// message carrying the zero view, and every thread at its CFG entry with
// zeroed registers and the zero view.
func (inst *Instance) InitState() *State {
	nv := len(inst.Sys.Vars)
	s := &State{Mem: make([][]Msg, nv)}
	for v := 0; v < nv; v++ {
		s.Mem[v] = []Msg{{Val: inst.Sys.Init, View: NewView(nv)}}
	}
	for _, ti := range inst.Threads {
		s.Threads = append(s.Threads, Thread{
			PC:   ti.CFG.Entry,
			Regs: make([]lang.Val, ti.CFG.Prog.NumRegs()),
			View: NewView(nv),
		})
	}
	return s
}
