package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"paramra"
	"paramra/internal/analysis"
	"paramra/internal/bench"
	"paramra/internal/cache"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/tqbf"
)

// input is one distinct system a workload sends.
type input struct {
	name string
	src  string // concrete syntax, parsed anew by every op
	// unsafe is the expected verdict, known before the timed phase: a corpus
	// entry's Want, a TQBF formula's truth, the reference oracle's verdict on
	// a generated system, or a renamed copy's original's.
	unsafe bool
}

// plan is everything a workload sends, drawn from its seed.
type plan struct {
	inputs []input
	// warm is sent by every set-up, before the timed phase: the first pass
	// for the library workloads; cache-warming originals and a warm-up pass on
	// inputs disjoint from the timed ones for the service workloads.
	warm []int
	// ops is the timed op stream, cycled; each batch sends the next batch ops.
	ops   []int
	batch int
	// gen describes the generated systems, for the run's log (service
	// workloads only).
	gen *freshGen
}

func (p *plan) add(in input) int {
	p.inputs = append(p.inputs, in)
	return len(p.inputs) - 1
}

// digest identifies the plan: the same seed always yields the same digest.
func (p *plan) digest(workload string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", workload, p.batch)
	for _, in := range p.inputs {
		fmt.Fprintf(h, "%s\x00%s\x00%t\x00", in.name, in.src, in.unsafe)
	}
	var b [8]byte
	for _, stream := range [][]int{p.warm, p.ops} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(stream)))
		h.Write(b[:])
		for _, i := range stream {
			binary.LittleEndian.PutUint64(b[:], uint64(i))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// libraryPasses is how many differently shuffled passes a library plan holds
// before its op stream repeats.
const libraryPasses = 16

// slowDatalog names the corpus entries the Datalog workload leaves out: each
// takes seconds alone on the Datalog backend, which would leave a run with a
// handful of ops.
var slowDatalog = map[string]bool{
	"peterson-ra": true, "peterson-ra-rmwfence": true,
	"lamport-2-ra": true, "corr2-coherence": true,
}

func corpusInputs(p *plan, skip map[string]bool) []int {
	var ids []int
	for _, e := range bench.Corpus() {
		if skip[e.Name] {
			continue
		}
		ids = append(ids, p.add(input{name: e.Name, src: e.Src, unsafe: e.Want == bench.Unsafe}))
	}
	return ids
}

// libraryPlan shuffles the fixed entries into libraryPasses passes; extra, when
// non-nil, adds freshly drawn inputs to each pass.
func libraryPlan(seed int64, skip map[string]bool, extra func(*plan, *rand.Rand) ([]int, error)) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	p := &plan{}
	fixed := corpusInputs(p, skip)
	for k := 0; k < libraryPasses; k++ {
		pass := append([]int(nil), fixed...)
		if extra != nil {
			more, err := extra(p, r)
			if err != nil {
				return nil, err
			}
			pass = append(pass, more...)
		}
		r.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		p.ops = append(p.ops, pass...)
		p.batch = len(pass)
	}
	p.warm = p.ops[:p.batch]
	return p, nil
}

// tqbfPerPass is the number of TQBF reductions in each fixpoint pass.
const tqbfPerPass = 8

func tqbfInputs(p *plan, r *rand.Rand) ([]int, error) {
	var ids []int
	for i := 0; i < tqbfPerPass; i++ {
		q := tqbf.Random(r, 2, 2)
		sys, err := tqbf.Reduce(q)
		if err != nil {
			return nil, fmt.Errorf("reducing %s: %w", q, err)
		}
		ids = append(ids, p.add(input{name: fmt.Sprintf("tqbf-%d", len(p.inputs)), src: lang.Print(sys), unsafe: q.Eval()}))
	}
	return ids, nil
}

// Admission bounds for generated systems. The reference oracle is
// paramra.Verify with the prepass off; a system it cannot decide within
// admitMacroStates macro-states has no checkable verdict, and on a few such
// systems it grows by gigabytes before deciding. A system whose prepass
// replay reaches the library's default cap runs on to the server's far
// larger cap when served, for seconds (README, finding 2). Both bounds count
// work, not time, so the admitted systems depend on the seed alone.
const (
	admitMacroStates  = 500
	admitReplayStates = 30_000
)

// freshGen draws generated systems that are pairwise distinct modulo the
// verdict cache's normalization (slice, then canonicalize), so each one is a
// cache miss the first time it is sent, and admits those the reference
// oracle decides within the bounds above. Env loops are left out: with them
// the prepass replay of some systems grows without bound (README).
type freshGen struct {
	rng  *rand.Rand
	seen map[string]bool
	n    int
	// Candidates judged, and those rejected by each bound.
	judged, overMacro, overReplay int
}

var freshProfiles = func() []fuzzgen.Profile {
	var ps []fuzzgen.Profile
	for _, name := range []string{"default", "small", "nocas"} {
		p, _ := fuzzgen.ProfileByName(name)
		p.EnvLoops = false
		ps = append(ps, p)
	}
	return ps
}()

func newFreshGen(seed int64) *freshGen {
	return &freshGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func cacheKey(sys *lang.System) string {
	sliced, _ := analysis.Slice(sys, analysis.SliceOptions{})
	return cache.Canonicalize(sliced).Hash
}

// claim reports whether sys is new to the generator and marks it seen.
func (g *freshGen) claim(sys *lang.System) bool {
	k := cacheKey(sys)
	if g.seen[k] {
		return false
	}
	g.seen[k] = true
	return true
}

// draw returns the next generated system not seen before.
func (g *freshGen) draw() *lang.System {
	for {
		prof := freshProfiles[g.n%len(freshProfiles)]
		g.n++
		if sys := fuzzgen.Generate(g.rng.Int63(), prof); g.claim(sys) {
			return sys
		}
	}
}

// judgement is the outcome of judging one candidate.
type judgement struct {
	unsafe, overMacro, overReplay bool
}

func judge(ctx context.Context, sys *lang.System) (judgement, error) {
	out, err := paramra.Prepass(ctx, sys, paramra.Options{MaxStates: admitReplayStates})
	if err != nil {
		return judgement{}, fmt.Errorf("admitting %s: %w", sys.Name, err)
	}
	res, err := paramra.Verify(ctx, sys, paramra.Options{MaxMacroStates: admitMacroStates})
	if err != nil {
		return judgement{}, fmt.Errorf("admitting %s: %w", sys.Name, err)
	}
	return judgement{unsafe: res.Unsafe, overMacro: !res.Complete, overReplay: out.ReplayStates >= admitReplayStates}, nil
}

// take adds n admitted systems to p. Candidates are drawn in order and
// judged on GOMAXPROCS goroutines; the first n admitted in draw order are
// kept, so the result depends on the seed alone.
func (g *freshGen) take(ctx context.Context, p *plan, n int) ([]int, error) {
	var ids []int
	for len(ids) < n {
		// A few more than needed, since about one candidate in fifty fails.
		need := n - len(ids)
		cands := make([]*lang.System, need+need/32+1)
		for i := range cands {
			cands[i] = g.draw()
		}
		vs := make([]judgement, len(cands))
		errs := make([]error, len(cands))
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) {
						return
					}
					vs[i], errs[i] = judge(ctx, cands[i])
				}
			}()
		}
		wg.Wait()
		for i, sys := range cands {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if len(ids) == n {
				break
			}
			g.judged++
			switch v := vs[i]; {
			case v.overMacro:
				g.overMacro++
			case v.overReplay:
				g.overReplay++
			default:
				ids = append(ids, p.add(input{name: sys.Name, src: lang.Print(sys), unsafe: v.unsafe}))
			}
		}
	}
	return ids, nil
}

// report prints how many candidates the admission bounds turned away.
func (g *freshGen) report(w io.Writer) {
	fmt.Fprintf(w, "generated: %d distinct candidates judged, %d rejected (%.2f%%): %d need more than %d macro-states, %d more than %d replay states\n",
		g.judged, g.overMacro+g.overReplay, 100*ratio(float64(g.overMacro+g.overReplay), float64(g.judged)),
		g.overMacro, admitMacroStates, g.overReplay, admitReplayStates)
}

// Service plan sizes. The server's verdict cache is an LRU of 4096
// entries, so a fresh system sent again after more than 4096 other fresh
// ones is a miss again: the cold pool holds coldPool > 4096 systems, and the
// hot fresh pool cycles past 4096 while the originals stay recent.
const (
	serviceBatch  = 512
	coldPool      = 4096 + serviceBatch
	warmupFresh   = 512
	hotFreshPool  = 4096
	hotGenerated  = 232 // generated originals beside the 24 corpus entries
	hotCopies     = 2048
	hotWarmCopies = 256
)

// coldPlan: every timed request is a fresh system.
func coldPlan(ctx context.Context, seed int64) (*plan, error) {
	p := &plan{batch: serviceBatch, gen: newFreshGen(seed)}
	var err error
	if p.warm, err = p.gen.take(ctx, p, warmupFresh); err != nil {
		return nil, err
	}
	if p.ops, err = p.gen.take(ctx, p, coldPool); err != nil {
		return nil, err
	}
	return p, nil
}

// hotPlan: the set-up sends every original once, so the cache holds them;
// then one request in ten is a fresh system and the rest are renamed copies
// of the originals.
func hotPlan(ctx context.Context, seed int64) (*plan, error) {
	p := &plan{batch: serviceBatch, gen: newFreshGen(seed)}
	g := p.gen
	origs := corpusInputs(p, nil)
	for _, i := range origs {
		g.claim(lang.MustParseSystem(p.inputs[i].src))
	}
	gen, err := g.take(ctx, p, hotGenerated)
	if err != nil {
		return nil, err
	}
	origs = append(origs, gen...)
	copies := func(n int) []int {
		ids := make([]int, n)
		for j := range ids {
			o := p.inputs[origs[j%len(origs)]]
			sys := cache.Rename(lang.MustParseSystem(o.src), g.rng.Int63())
			ids[j] = p.add(input{name: o.name + "-renamed", src: lang.Print(sys), unsafe: o.unsafe})
		}
		return ids
	}
	warmFresh, err := g.take(ctx, p, hotWarmCopies/9)
	if err != nil {
		return nil, err
	}
	fresh, err := g.take(ctx, p, hotFreshPool)
	if err != nil {
		return nil, err
	}
	p.warm = append(p.warm, origs...)
	p.warm = append(p.warm, mix(warmFresh, copies(hotWarmCopies))...)
	p.ops = mix(fresh, copies(hotCopies))
	return p, nil
}

// mix lays out a stream in which every tenth request is the next fresh
// system and the others cycle through the copies, until the fresh ones run
// out.
func mix(fresh, copies []int) []int {
	out := make([]int, 0, len(fresh)*10)
	c := 0
	for _, f := range fresh {
		out = append(out, f)
		for k := 0; k < 9; k++ {
			out = append(out, copies[c%len(copies)])
			c++
		}
	}
	return out
}
