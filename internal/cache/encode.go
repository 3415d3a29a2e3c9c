// Package cache implements the content-addressed verdict cache: a
// canonical-form hasher for lang.System that is invariant under renaming of
// threads, registers, and shared variables and under permutation of the dis
// thread list, and one verdict store — an LRU in memory with single-flight
// computation and an optional checksummed on-disk layer — keyed by the
// canonical hash plus the verdict-affecting options.
//
// The soundness argument is spelled out in DESIGN.md. In short: the cache
// key is the SHA-256 of a full structural encoding of the canonical form,
// so two systems collide only when their canonical forms are byte-identical
// — i.e. when they are literally the same system up to names and dis order,
// which cannot change any verdict. Imperfect canonicalization (e.g. a
// Weisfeiler–Lehman color collision between genuinely different variables)
// only yields different encodings and therefore cache misses, never wrong
// hits.
package cache

import (
	"encoding/binary"

	"paramra/internal/lang"
)

// Structural encoding tags. Statement and expression tags share one byte
// space; the encoding is prefix-free because every node's arity is fixed by
// its tag (or written explicitly for Seq/Choice).
const (
	tagSkip byte = iota + 1
	tagAssume
	tagAssertFail
	tagAssign
	tagSeq
	tagChoice
	tagStar
	tagWhile
	tagLoad
	tagStore
	tagCAS
	tagConst
	tagReg
	tagUn
	tagBin
)

// penc serializes one program body. Registers are canonicalized by first
// use in traversal order (so register names and declaration order never
// matter); each shared-variable occurrence is encoded via varCode, which
// during refinement returns the variable's current color and in the final
// pass returns (and assigns) the global canonical index.
type penc struct {
	buf     []byte
	regs    map[lang.RegID]int
	varCode func(lang.VarID) uint64
	occ     map[lang.VarID][]int
	nocc    int
}

func newPenc(varCode func(lang.VarID) uint64) *penc {
	return &penc{
		regs:    make(map[lang.RegID]int),
		varCode: varCode,
		occ:     make(map[lang.VarID][]int),
	}
}

func (e *penc) tag(t byte) { e.buf = append(e.buf, t) }

func (e *penc) u64(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

func (e *penc) i64(x int64) { e.buf = binary.AppendVarint(e.buf, x) }

func (e *penc) reg(r lang.RegID) {
	i, ok := e.regs[r]
	if !ok {
		i = len(e.regs)
		e.regs[r] = i
	}
	e.u64(uint64(i))
}

func (e *penc) shared(v lang.VarID) {
	e.occ[v] = append(e.occ[v], e.nocc)
	e.nocc++
	e.u64(e.varCode(v))
}

func (e *penc) program(p *lang.Program, role byte) {
	e.buf = append(e.buf, role)
	e.u64(uint64(len(p.Regs)))
	e.stmt(p.Body)
}

func (e *penc) stmt(st lang.Stmt) {
	switch st := st.(type) {
	case lang.Skip:
		e.tag(tagSkip)
	case lang.Assume:
		e.tag(tagAssume)
		e.expr(st.Cond)
	case lang.AssertFail:
		e.tag(tagAssertFail)
	case lang.Assign:
		e.tag(tagAssign)
		e.reg(st.Reg)
		e.expr(st.E)
	case lang.Seq:
		e.tag(tagSeq)
		e.u64(uint64(len(st.Stmts)))
		for _, s := range st.Stmts {
			e.stmt(s)
		}
	case lang.Choice:
		e.tag(tagChoice)
		e.u64(uint64(len(st.Branches)))
		for _, b := range st.Branches {
			e.stmt(b)
		}
	case lang.Star:
		e.tag(tagStar)
		e.stmt(st.Body)
	case lang.While:
		e.tag(tagWhile)
		e.expr(st.Cond)
		e.stmt(st.Body)
	case lang.Load:
		e.tag(tagLoad)
		e.reg(st.Reg)
		e.shared(st.Var)
	case lang.Store:
		e.tag(tagStore)
		e.shared(st.Var)
		e.expr(st.E)
	case lang.CAS:
		e.tag(tagCAS)
		e.shared(st.Var)
		e.expr(st.Expect)
		e.expr(st.New)
	}
}

func (e *penc) expr(x lang.Expr) {
	switch x := x.(type) {
	case lang.ConstExpr:
		e.tag(tagConst)
		e.i64(int64(x.V))
	case lang.RegExpr:
		e.tag(tagReg)
		e.reg(x.Reg)
	case lang.UnExpr:
		e.tag(tagUn)
		e.tag(byte(x.Op))
		e.expr(x.E)
	case lang.BinExpr:
		e.tag(tagBin)
		e.tag(byte(x.Op))
		e.expr(x.L)
		e.expr(x.R)
	}
}
