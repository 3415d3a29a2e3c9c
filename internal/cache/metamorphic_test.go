package cache_test

// Metamorphic cache-consistency suite: for every corpus entry, seeded
// renamings of threads/registers/variables plus permutations of the var
// table, register tables, and dis order must (a) produce the identical
// canonical hash, (b) hit the verdict cache populated by the original, and
// (c) yield a byte-identical serve.VerdictCore. The negative direction —
// one-token semantic changes must change the hash — is pinned in
// canonical_test.go.

import (
	"bytes"
	"context"
	"testing"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/cache"
	"paramra/internal/lang"
	"paramra/internal/serve"
)

// metaOptions mirrors a default-configured server: prepass on, bounded
// unrolling.
func metaOptions(c *paramra.Cache) paramra.Options {
	return paramra.Options{
		Prepass:   true,
		UnrollDis: 2,
		Cache:     c,
	}
}

func coreBytes(sys *lang.System, res paramra.Result) []byte {
	return serve.VerifyResponse{
		System:  sys.Name,
		Verdict: serve.Verdict(res),
		Result:  serve.FromResult(res),
	}.CoreBytes()
}

// TestMetamorphicCorpus runs the full corpus. Renamed variants are checked
// for hash equality on every seed, and for cache hits plus byte-identical
// verdict cores through a shared cache.
func TestMetamorphicCorpus(t *testing.T) {
	ctx := context.Background()
	for _, e := range bench.Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sys := e.System()
			wantHash := cache.Canonicalize(sys).Hash

			c := paramra.NewCache(paramra.CacheOptions{})
			opts := metaOptions(c)
			cold, err := paramra.Verify(ctx, sys, opts)
			if err != nil {
				t.Fatalf("cold verify: %v", err)
			}
			if cold.CacheHit {
				t.Fatal("cold verify reported CacheHit")
			}
			coldCore := coreBytes(sys, cold)

			for seed := int64(1); seed <= 3; seed++ {
				ren := cache.Rename(sys, seed)
				if got := cache.Canonicalize(ren).Hash; got != wantHash {
					t.Fatalf("seed %d: canonical hash changed under renaming:\n  %s\n  %s", seed, got, wantHash)
				}
				if !cold.Complete {
					// An incomplete cold verdict is never stored; nothing
					// to assert about hits.
					continue
				}
				warm, err := paramra.Verify(ctx, ren, opts)
				if err != nil {
					t.Fatalf("seed %d: renamed verify: %v", seed, err)
				}
				if !warm.CacheHit {
					t.Errorf("seed %d: renamed variant missed the cache", seed)
				}
				if warmCore := coreBytes(ren, warm); !bytes.Equal(warmCore, coldCore) {
					t.Errorf("seed %d: verdict core differs between miss and renamed hit:\n  cold: %s\n  warm: %s",
						seed, coldCore, warmCore)
				}
			}

			// The unmodified system itself must of course hit too.
			if cold.Complete {
				warm, err := paramra.Verify(ctx, sys, opts)
				if err != nil {
					t.Fatalf("warm verify: %v", err)
				}
				if !warm.CacheHit {
					t.Error("identical resubmission missed the cache")
				}
				if warmCore := coreBytes(sys, warm); !bytes.Equal(warmCore, coldCore) {
					t.Errorf("verdict core differs between miss and hit:\n  cold: %s\n  warm: %s", coldCore, warmCore)
				}
			}
		})
	}
}

// TestMetamorphicPrintParse: renamed variants survive printing and
// reparsing with the hash intact — the form they take over the wire.
func TestMetamorphicPrintParse(t *testing.T) {
	for _, e := range bench.Corpus() {
		sys := e.System()
		want := cache.Canonicalize(sys).Hash
		for seed := int64(1); seed <= 3; seed++ {
			ren := cache.Rename(sys, seed)
			back, err := lang.ParseSystem(lang.Print(ren))
			if err != nil {
				t.Fatalf("%s seed %d: renamed system does not reparse: %v", e.Name, seed, err)
			}
			if got := cache.Canonicalize(back).Hash; got != want {
				t.Errorf("%s seed %d: hash changed across print/parse", e.Name, seed)
			}
		}
	}
}

// isomorphicPairs lists corpus entries that genuinely are the same system
// modulo renaming. sb-litmus and Dekker's core collapse to the identical
// shape: store own flag, load the other, assume 0, publish, with the second
// thread asserting on the published value (x→f0, y→f1, a→cs0).
var isomorphicPairs = map[[2]string]bool{
	{"sb-litmus", "dekker-ra"}: true,
}

// TestMetamorphicCorpusHashesDistinct: distinct corpus entries must land on
// distinct canonical hashes unless they are known isomorphic duplicates —
// and any pair sharing a hash must agree on the expected verdict, which is
// what hash soundness promises.
func TestMetamorphicCorpusHashesDistinct(t *testing.T) {
	want := make(map[string]bench.Verdict)
	seen := make(map[string]string)
	for _, e := range bench.Corpus() {
		want[e.Name] = e.Want
		h := cache.Canonicalize(e.System()).Hash
		prev, ok := seen[h]
		if !ok {
			seen[h] = e.Name
			continue
		}
		if want[prev] != e.Want {
			t.Errorf("corpus entries %s (want %v) and %s (want %v) share a canonical hash but disagree on the verdict — canonicalizer collision",
				prev, want[prev], e.Name, e.Want)
			continue
		}
		if !isomorphicPairs[[2]string{prev, e.Name}] && !isomorphicPairs[[2]string{e.Name, prev}] {
			t.Errorf("corpus entries %s and %s share a canonical hash; if they are isomorphic, record the pair in isomorphicPairs",
				prev, e.Name)
		}
	}
}
