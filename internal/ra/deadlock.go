package ra

// DeadlockReport describes blocking states of a fixed instance: reachable
// configurations from which no transition is enabled although some thread
// has not finished its program (it is stuck in an assume that can never
// fire — e.g. a barrier waiting for a release that never comes).
type DeadlockReport struct {
	// Deadlocks is the number of reachable states with no enabled
	// transition and at least one unfinished thread.
	Deadlocks int
	// Terminal is the number of reachable states with no enabled
	// transition where every thread is at its CFG exit.
	Terminal int
	// Complete is true when the state space was exhausted.
	Complete bool
	// Example is one deadlocked state rendered for diagnostics ("" if none).
	Example string
	// StuckThreads lists, for the example state, the names of the
	// unfinished threads.
	StuckThreads []string
}

// stuckThreads names the threads of s that have not finished. A thread is
// finished when no edges leave its pc — for compiled programs that is
// exactly the exit node, but choice joins can produce other sink nodes too;
// any out-degree-0 pc counts as finished.
func (inst *Instance) stuckThreads(s *State) []string {
	var stuck []string
	for ti := range s.Threads {
		if len(inst.Threads[ti].CFG.Out[s.Threads[ti].PC]) > 0 {
			stuck = append(stuck, inst.Threads[ti].Name)
		}
	}
	return stuck
}

// FindDeadlocks explores the instance and classifies its sink states.
// Assert transitions terminate exploration of their branch but are not
// counted as deadlocks.
func (inst *Instance) FindDeadlocks(lim Limits) DeadlockReport {
	init := inst.InitState()
	visited := map[string]bool{init.Key(): true}
	queue := []*State{init}
	rep := DeadlockReport{Complete: true}
	states := 1
	var sc scratch

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		sink := true
		inst.eachSucc(s, &sc, func(st step) bool {
			sink = false
			if st.assert() {
				return true
			}
			inst.keyInto(&sc, false)
			if visited[string(sc.enc.Bytes())] {
				return true
			}
			if lim.MaxStates > 0 && states >= lim.MaxStates {
				rep.Complete = false
				return true
			}
			visited[sc.enc.String()] = true
			states++
			queue = append(queue, sc.materialize())
			return true
		})
		if !sink {
			continue
		}
		if stuck := inst.stuckThreads(s); len(stuck) > 0 {
			rep.Deadlocks++
			if rep.Example == "" {
				rep.Example = s.String()
				rep.StuckThreads = stuck
			}
		} else {
			rep.Terminal++
		}
	}
	return rep
}
