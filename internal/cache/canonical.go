package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"

	"paramra/internal/lang"
)

// Canonical is the canonical form of a system: a reconstructed *lang.System
// with canonical names (shared variables v0..vN, registers r0..rM per
// thread, threads t0..tK with the env first), the hex SHA-256 of its full
// structural encoding, and the mapping from original shared-variable names
// to canonical ones (needed to translate goal options onto the canonical
// system).
type Canonical struct {
	Sys    *lang.System
	Hash   string
	VarMap map[string]string
}

// refineRounds is the number of Weisfeiler–Lehman refinement rounds used to
// color shared variables before ordering the dis threads. Three rounds
// separate every non-symmetric variable pair in practice; too few rounds
// only costs cache hits (distinct encodings), never correctness.
const refineRounds = 3

// Canonicalize computes the canonical form of sys. The result is invariant
// under renaming of threads, registers, and shared variables, under
// permutation of the shared-variable table, and under permutation of the
// dis thread list. The system name is preserved on the reconstructed system
// but excluded from the hash.
//
// The algorithm:
//  1. Color every shared variable by iterated WL refinement: each round
//     encodes every program structurally (registers by first use, variable
//     occurrences by current color), then recolors each variable from the
//     sorted multiset of (program signature, occurrence positions) pairs it
//     participates in.
//  2. Order the dis threads by their final structural signature (stable, so
//     signature ties — which are either genuinely symmetric or normalized
//     away by first-use variable numbering — keep input order).
//  3. Assign global canonical variable indices by first use over the env
//     followed by the ordered dis threads, then emit the final encoding and
//     rebuild the system with canonical names.
func Canonicalize(sys *lang.System) *Canonical {
	type prog struct {
		p    *lang.Program
		role byte
	}
	var progs []prog
	if sys.Env != nil {
		progs = append(progs, prog{sys.Env, 'E'})
	}
	for _, d := range sys.Dis {
		progs = append(progs, prog{d, 'D'})
	}

	nv := len(sys.Vars)
	colors := make([]uint64, nv)
	var sigs []uint64
	for round := 0; round < refineRounds; round++ {
		sigs = make([]uint64, len(progs))
		occs := make([]map[lang.VarID][]int, len(progs))
		for i, pr := range progs {
			e := newPenc(func(v lang.VarID) uint64 { return colors[v] })
			e.program(pr.p, pr.role)
			sigs[i] = fnvSum(e.buf)
			occs[i] = e.occ
		}
		next := make([]uint64, nv)
		for v := 0; v < nv; v++ {
			var contribs []uint64
			for i := range progs {
				if pos := occs[i][lang.VarID(v)]; len(pos) > 0 {
					contribs = append(contribs, occSig(sigs[i], pos))
				}
			}
			sort.Slice(contribs, func(a, b int) bool { return contribs[a] < contribs[b] })
			h := fnv.New64a()
			var scratch [8]byte
			binary.BigEndian.PutUint64(scratch[:], colors[v])
			h.Write(scratch[:])
			for _, c := range contribs {
				binary.BigEndian.PutUint64(scratch[:], c)
				h.Write(scratch[:])
			}
			next[v] = h.Sum64()
		}
		colors = next
	}

	// Order dis threads by final signature. progs[0] is the env when
	// present; only the dis suffix is reordered.
	disStart := 0
	if sys.Env != nil {
		disStart = 1
	}
	order := make([]int, len(progs)-disStart)
	for i := range order {
		order[i] = disStart + i
	}
	sort.SliceStable(order, func(a, b int) bool { return sigs[order[a]] < sigs[order[b]] })

	// Final pass: assign global canonical variable indices by first use and
	// emit the definitive encoding.
	varIdx := make([]int, nv)
	for i := range varIdx {
		varIdx[i] = -1
	}
	nextVar := 0
	assign := func(v lang.VarID) uint64 {
		if varIdx[v] < 0 {
			varIdx[v] = nextVar
			nextVar++
		}
		return uint64(varIdx[v])
	}
	final := []byte("pvra-c1")
	final = binary.AppendVarint(final, int64(sys.Dom))
	final = binary.AppendVarint(final, int64(sys.Init))
	final = binary.AppendUvarint(final, uint64(nv))
	if sys.Env != nil {
		final = append(final, 1)
	} else {
		final = append(final, 0)
	}
	final = binary.AppendUvarint(final, uint64(len(sys.Dis)))

	ordered := make([]prog, 0, len(progs))
	if sys.Env != nil {
		ordered = append(ordered, progs[0])
	}
	for _, i := range order {
		ordered = append(ordered, progs[i])
	}
	regMaps := make([]map[lang.RegID]int, len(ordered))
	for i, pr := range ordered {
		e := newPenc(assign)
		e.program(pr.p, pr.role)
		final = append(final, e.buf...)
		regMaps[i] = e.regs
	}
	// Shared variables that occur in no program body get the trailing
	// indices in original-table order. They are pairwise interchangeable
	// (they appear nowhere), so this choice cannot affect the encoding.
	for v := 0; v < nv; v++ {
		if varIdx[v] < 0 {
			varIdx[v] = nextVar
			nextVar++
		}
	}

	sum := sha256.Sum256(final)

	varIDMap := make([]lang.VarID, nv)
	varMap := make(map[string]string, nv)
	vars := make([]string, nv)
	for v := 0; v < nv; v++ {
		varIDMap[v] = lang.VarID(varIdx[v])
		cname := fmt.Sprintf("v%d", varIdx[v])
		vars[varIdx[v]] = cname
		varMap[sys.Vars[v]] = cname
	}

	canon := &lang.System{
		Name: sys.Name,
		Vars: vars,
		Dom:  sys.Dom,
		Init: sys.Init,
	}
	rebuilt := make([]*lang.Program, len(ordered))
	for i, pr := range ordered {
		rebuilt[i] = rebuildProgram(pr.p, fmt.Sprintf("t%d", i), regMaps[i], varIDMap)
	}
	if sys.Env != nil {
		canon.Env = rebuilt[0]
		canon.Dis = rebuilt[1:]
	} else {
		canon.Dis = rebuilt
	}
	return &Canonical{Sys: canon, Hash: hex.EncodeToString(sum[:]), VarMap: varMap}
}

// rebuildProgram clones p with canonical register names r0..rM (ordered by
// first use per used, then declaration order for unused) and shared-variable
// IDs mapped through varIDMap.
func rebuildProgram(p *lang.Program, name string, used map[lang.RegID]int, varIDMap []lang.VarID) *lang.Program {
	n := len(p.Regs)
	regMap := make([]lang.RegID, n)
	next := len(used)
	for r := 0; r < n; r++ {
		if i, ok := used[lang.RegID(r)]; ok {
			regMap[r] = lang.RegID(i)
		} else {
			regMap[r] = lang.RegID(next)
			next++
		}
	}
	regs := make([]string, n)
	for i := range regs {
		regs[i] = fmt.Sprintf("r%d", i)
	}
	return &lang.Program{
		Name: name,
		Regs: regs,
		Body: lang.RemapStmt(p.Body, regMap, varIDMap),
	}
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// occSig hashes one program's contribution to a variable's color: the
// program's structural signature plus the ordinals of the variable's
// occurrences within it.
func occSig(progSig uint64, positions []int) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], progSig)
	h.Write(scratch[:])
	for _, p := range positions {
		binary.BigEndian.PutUint64(scratch[:], uint64(p))
		h.Write(scratch[:])
	}
	return h.Sum64()
}
