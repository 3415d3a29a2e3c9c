package ra

// KeyedEvent is one successor as the explorers see it: its visited-set key
// and its rendered event.
type KeyedEvent struct {
	Key   string
	Event Event
}

// KeyedSuccessors lists what the explorers' successor generator yields from
// s, in order: each successor's key (under symmetry reduction when
// symmetry is set) and its rendered event.
func (inst *Instance) KeyedSuccessors(s *State, symmetry bool) []KeyedEvent {
	var out []KeyedEvent
	var sc scratch
	inst.eachSucc(s, &sc, func(st step) bool {
		inst.keyInto(&sc, symmetry)
		out = append(out, KeyedEvent{Key: sc.enc.String(), Event: inst.event(st)})
		return true
	})
	return out
}
