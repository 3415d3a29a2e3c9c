package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// batchStat is one untraced batch of the timed phase.
type batchStat struct {
	ops  int
	wall time.Duration
	lat  []float64 // ms, of the ops that succeeded
	cal  int       // index of the last calibration before the batch
	// speed is the host's speed around the batch relative to the reference
	// host: a batch's times are multiplied by it to report them at
	// reference speed.
	speed float64
}

// phase accumulates a run's timed phase.
type phase struct {
	counts         [][2]int // per input: ops that answered SAFE, UNSAFE
	batches        []batchStat
	tracedOps      int
	tracedWall     time.Duration
	errs           int
	firstErr       error
	mallocs, bytes uint64
	acc            *layerAcc // traced runs only
	kernel         []time.Duration
}

// runPhase sends whole batches until the time is up. A traced run
// alternates untraced and traced batches, so that its tracing overhead is
// measured under the same conditions. An untraced run calibrates the host's
// speed (see calib.go) at most calibEvery before each batch and once after
// the last.
func runPhase(ctx context.Context, cfg config, w workload, p *plan, ex executor, cal *calibrator) (*phase, error) {
	ph := &phase{counts: make([][2]int, len(p.inputs))}
	minBatches := 1
	if cfg.trace {
		ph.acc = newLayerAcc()
		minBatches = 2
	}
	var lastCal time.Time
	calibrate := func() {
		ph.kernel = append(ph.kernel, cal.measure())
		lastCal = time.Now()
	}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var spent time.Duration
	for b := 0; b < minBatches || spent < limit; b++ {
		if !cfg.trace && time.Since(lastCal) >= calibEvery {
			calibrate()
		}
		stream := cyclic(p.ops, b*p.batch, p.batch)
		var m0, m1 runtime.MemStats
		var before map[string]float64
		traced := cfg.trace && b%2 == 1
		if traced {
			var err error
			if before, err = ex.counters(ctx); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		var recs []opRecord
		if traced {
			recs = runBatch(ctx, ex, p, stream, w.clients, ph.acc)
		} else {
			recs = runBatch(ctx, ex, p, stream, w.clients, nil)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		spent += d
		ph.record(p, recs)
		if traced {
			after, err := ex.counters(ctx)
			if err != nil {
				return nil, err
			}
			ph.acc.addProm(before, after)
			ph.acc.gcCycles += m1.NumGC - m0.NumGC
			ph.tracedOps += len(recs)
			ph.tracedWall += d
			continue
		}
		ph.mallocs += m1.Mallocs - m0.Mallocs
		ph.bytes += m1.TotalAlloc - m0.TotalAlloc
		bs := batchStat{ops: len(recs), wall: d, cal: len(ph.kernel) - 1, speed: 1}
		for _, r := range recs {
			if r.err == nil {
				bs.lat = append(bs.lat, float64(r.lat)/1e6)
			}
		}
		ph.batches = append(ph.batches, bs)
	}
	if !cfg.trace {
		calibrate()
		for i := range ph.batches {
			b := &ph.batches[i]
			b.speed = speed(ph.kernel[b.cal], ph.kernel[b.cal+1])
		}
	}
	return ph, nil
}

func (ph *phase) record(p *plan, recs []opRecord) {
	for _, r := range recs {
		switch {
		case r.err != nil:
			ph.errs++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("%s: %w", p.inputs[r.id].name, r.err)
			}
		case r.unsafe:
			ph.counts[r.id][1]++
		default:
			ph.counts[r.id][0]++
		}
	}
}

// wrongVerdicts counts the ops whose verdict differs from the expected one
// and names each input that got one.
func (ph *phase) wrongVerdicts(p *plan, w io.Writer) int {
	wrong := 0
	for i, c := range ph.counts {
		bad := c[1]
		if p.inputs[i].unsafe {
			bad = c[0]
		}
		if bad > 0 {
			wrong += bad
			fmt.Fprintf(w, "MISMATCH %s: %d ops gave the wrong verdict\n", p.inputs[i].name, bad)
		}
	}
	return wrong
}

func (ph *phase) untracedOps() int {
	n := 0
	for _, b := range ph.batches {
		n += b.ops
	}
	return n
}

func (ph *phase) untracedWall() time.Duration {
	var d time.Duration
	for _, b := range ph.batches {
		d += b.wall
	}
	return d
}

// tailWindow is the fewest ops a p99 is taken over, so that at least ten
// samples lie beyond it.
const tailWindow = 1000

// latency returns the median over batches of each batch's median, and the
// median over windows of at least tailWindow ops of each window's p99.
// Medians over batches keep a burst of interference from outside the
// process from moving the result; it moves a few batches instead. With
// scaled set, every latency is first scaled to the reference host's speed.
func (ph *phase) latency(scaled bool) (p50, p99 float64, windows int) {
	var p50s, p99s, window []float64
	total, seen := 0, 0
	for _, b := range ph.batches {
		total += len(b.lat)
	}
	for _, b := range ph.batches {
		if len(b.lat) == 0 {
			continue
		}
		f := 1.0
		if scaled {
			f = b.speed
		}
		p50s = append(p50s, f*quantile(b.lat, 0.5))
		for _, x := range b.lat {
			window = append(window, f*x)
		}
		seen += len(b.lat)
		// A remainder too short for a window of its own joins the last one.
		if len(window) >= tailWindow && total-seen >= tailWindow || seen == total {
			p99s = append(p99s, quantile(window, 0.99))
			window = window[:0]
		}
	}
	return quantile(p50s, 0.5), quantile(p99s, 0.5), len(p99s)
}

// throughput is the median over batches of ops per second, scaled to the
// reference host's speed when scaled is set.
func (ph *phase) throughput(scaled bool) float64 {
	var rates []float64
	for _, b := range ph.batches {
		r := float64(b.ops) / b.wall.Seconds()
		if scaled {
			r /= b.speed
		}
		rates = append(rates, r)
	}
	return quantile(rates, 0.5)
}

// endToEnd derives the timed end-to-end metrics of an untraced run and
// prints the unscaled values and the host speed beside them.
func (ph *phase) endToEnd(w io.Writer) []metric {
	p50, p99, windows := ph.latency(true)
	rawP50, rawP99, _ := ph.latency(false)
	var speeds []float64
	samples := 0
	for _, b := range ph.batches {
		speeds = append(speeds, b.speed)
		samples += len(b.lat)
	}
	fmt.Fprintf(w, "latency: %d samples in %d batches; p99 is the median over %d windows of at least %d ops\n",
		samples, len(ph.batches), windows, min(tailWindow, samples))
	fmt.Fprintf(w, "host speed vs reference: median %.3f [%.3f, %.3f] over batches\n",
		quantile(speeds, 0.5), quantile(speeds, 0.25), quantile(speeds, 0.75))
	fmt.Fprintf(w, "unscaled: throughput_per_s %.6g lat_p50_ms %.6g lat_p99_ms %.6g\n",
		ph.throughput(false), rawP50, rawP99)
	ops := float64(ph.untracedOps())
	return []metric{
		{"throughput_per_s", "ops/s", ph.throughput(true)},
		{"lat_p50_ms", "ms", p50},
		{"lat_p99_ms", "ms", p99},
		{"allocs_per_op", "count", float64(ph.mallocs) / ops},
		{"bytes_per_op", "B", float64(ph.bytes) / ops},
	}
}
