package simplified

import (
	"fmt"

	"paramra/internal/lang"
)

// RefKind says which kind of message a MsgRef names.
type RefKind uint8

// Message reference kinds.
const (
	RefInit RefKind = iota + 1
	RefDis
	RefEnv
)

// MsgRef names a message of one computation without its timestamp, so that
// renumbering timestamps (canon.go) leaves every read log valid:
//
//   - an init message by its variable;
//   - a dis message by the dis thread and edge that stored it, the edge
//     named by the control location it leaves: dis threads are loop-free
//     (or unrolled), so a run leaves each location at most once and the
//     pair stores at most once;
//   - an env message by its first-derivation index in the env set
//     (MsgEntry.Idx).
type MsgRef struct {
	Kind RefKind
	// ID is the variable of an init message, the dis thread of a dis
	// message, and the index of an env message.
	ID int32
	// PC is the control location a dis message's store or CAS leaves.
	PC int32
}

// InitRef names the init message of x.
func InitRef(x lang.VarID) MsgRef { return MsgRef{Kind: RefInit, ID: int32(x)} }

// DisRef names the dis message dis thread dis stores leaving pc.
func DisRef(dis int, pc lang.PC) MsgRef { return MsgRef{Kind: RefDis, ID: int32(dis), PC: int32(pc)} }

// EnvRef names the env message with first-derivation index idx.
func EnvRef(idx int32) MsgRef { return MsgRef{Kind: RefEnv, ID: idx} }

// String renders the reference for error messages.
func (r MsgRef) String() string {
	switch r.Kind {
	case RefInit:
		return fmt.Sprintf("init(x%d)", r.ID)
	case RefDis:
		return fmt.Sprintf("dis(%d@%d)", r.ID, r.PC)
	case RefEnv:
		return fmt.Sprintf("env#%d", r.ID)
	}
	return "ref?"
}

// Resolver resolves the message references of one violation's read logs to
// message keys, against the violation's own memory and env set. The keys
// carry the timestamps of the configuration at the violation. Build it once
// per violation: it indexes every message.
type Resolver struct {
	keys map[MsgRef]string
}

// Resolver indexes the messages of the configuration at the violation.
func (viol *Violation) Resolver() *Resolver {
	r := &Resolver{keys: map[MsgRef]string{}}
	if m := viol.Mem; m != nil {
		for _, msg := range m.msgs {
			r.keys[msg.Ref] = msg.Key()
		}
	}
	if e := viol.Env; e != nil {
		for _, me := range e.Msgs {
			r.keys[EnvRef(me.Idx)] = me.Key
		}
	}
	return r
}

// Keys returns the keys of the messages log read, in chronological order. A
// reference the configuration does not hold is an error: every message a
// computation reads stays in its memory or env set.
func (r *Resolver) Keys(log *ReadLog) ([]string, error) {
	refs := log.Refs()
	out := make([]string, len(refs))
	for i, ref := range refs {
		k, ok := r.keys[ref]
		if !ok {
			return nil, fmt.Errorf("simplified: read log names %v, which the violation's configuration lacks", ref)
		}
		out[i] = k
	}
	return out, nil
}
