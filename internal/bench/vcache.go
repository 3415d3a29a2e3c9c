package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"paramra"
	"paramra/internal/cache"
)

// VerdictCacheRow is one corpus entry's trip through the content-addressed
// verdict cache (E20): a cold populating run, a warm identical resubmission,
// and a warm renamed clone, all against one shared cache.
type VerdictCacheRow struct {
	Name    string
	Verdict Verdict
	Stored  bool // cold verdict was storable (complete, error-free)
	Hit     bool // warm resubmission hit
	RenHit  bool // renamed clone hit
	Cold    time.Duration
	Warm    time.Duration
	Renamed time.Duration
}

// Speedup is the cold/warm wall-clock ratio (0 when the warm run did not
// finish measurably fast — sub-resolution warm times are clamped).
func (r VerdictCacheRow) Speedup() float64 {
	w := r.Warm
	if w < time.Microsecond {
		w = time.Microsecond
	}
	return float64(r.Cold) / float64(w)
}

// VerdictCacheExperiment measures the verdict cache on the corpus with the
// raserved default options (prepass on, unroll 2): per entry, a cold run
// populates a shared cache, then the identical system and a seeded renamed
// clone are resubmitted. Rows come back sorted by cold time, slowest first,
// so the headline speedups lead the table.
func VerdictCacheExperiment(ctx context.Context) ([]VerdictCacheRow, error) {
	c := paramra.NewCache(paramra.CacheOptions{})
	opts := paramra.Options{
		Prepass:   true,
		UnrollDis: 2,
		Cache:     c,
		Metrics:   instr.Metrics,
	}
	var out []VerdictCacheRow
	for _, e := range Corpus() {
		sys := e.System()
		start := time.Now()
		cold, err := paramra.Verify(ctx, sys, opts)
		coldT := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: cold verify: %w", e.Name, err)
		}
		row := VerdictCacheRow{
			Name:    e.Name,
			Verdict: Safe,
			Stored:  cold.Complete,
			Cold:    coldT,
		}
		if cold.Unsafe {
			row.Verdict = Unsafe
		}

		start = time.Now()
		warm, err := paramra.Verify(ctx, sys, opts)
		row.Warm = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: warm verify: %w", e.Name, err)
		}
		row.Hit = warm.CacheHit

		start = time.Now()
		ren, err := paramra.Verify(ctx, cache.Rename(sys, 1), opts)
		row.Renamed = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: renamed verify: %w", e.Name, err)
		}
		row.RenHit = ren.CacheHit
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cold > out[j].Cold })
	return out, nil
}

// VerdictCacheTable formats E20.
func VerdictCacheTable(rows []VerdictCacheRow) *Table {
	t := &Table{
		Title:   "Verdict cache: cold vs warm vs renamed-clone (shared cache, raserved defaults)",
		Columns: []string{"benchmark", "verdict", "stored", "hit", "renamed hit", "cold", "warm", "renamed", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Verdict, r.Stored, r.Hit, r.RenHit,
			r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond),
			r.Renamed.Round(time.Microsecond), fmt.Sprintf("%.1fx", r.Speedup()))
	}
	return t
}
