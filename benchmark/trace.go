package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"paramra/internal/obs"
)

// The traced run wraps the calls the program makes outside any span of its
// own in benchmark-side spans named after the stage they time
// ("lang.parse", ...). The program's own spans nest under the op's root
// (library workloads) or come back in the response (service workloads);
// programStage charges their self time to a stage. Spans not listed here
// inherit their parent's stage.
var programStage = map[string]string{
	"op": "op.unattributed",
	// verify's own time, outside the backends' spans, is where paramra.Verify
	// builds the dependency graph of an UNSAFE fixpoint verdict
	// (depgraph.FromViolation), beside option checks and classification.
	"verify":               "depgraph.build",
	"prepass":              "absint.prepass",
	"well-formedness":      "simplified.fixpoint",
	"fixpoint":             "simplified.fixpoint",
	"init-saturate":        "simplified.init_saturate",
	"layered":              "engine.layer",
	"layer":                "engine.layer",
	"cache-lookup":         "cache.lookup",
	"cache-store":          "cache.lookup",
	"datalog":              "encode.skeleton",
	"skeleton-enumeration": "encode.skeleton",
	"datalog-eval":         "datalog.eval",
}

func stageOf(name, parent string) string {
	if s, ok := programStage[name]; ok {
		return s
	}
	if strings.Contains(name, ".") {
		return name
	}
	return parent
}

// layerOf is the layer a stage belongs to: the part before the dot.
func layerOf(stage string) string {
	l, _, _ := strings.Cut(stage, ".")
	return l
}

// keptTraceBytes bounds the span trees kept in memory for the trace file.
const keptTraceBytes = 8 << 20

// layerAcc accumulates the span trees and counters of a run's traced ops.
type layerAcc struct {
	mu   sync.Mutex
	ops  int
	opNs int64
	self map[string]int64 // stage → self time, ns

	prepassRuns, prepassDecided int
	replayStates                float64
	fixpointRuns                int
	macroStates, satSteps       float64
	layeredRuns, layers         int
	dedup, states, frontier     float64
	encodeRuns                  int
	skeletons                   float64
	datalogRuns                 int
	rounds, atoms               float64
	requests                    int
	rttNs                       int64

	prom     map[string]float64 // /metrics deltas over the traced batches
	gcCycles uint32

	kept [][]byte
	size int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]int64{}, prom: map[string]float64{}}
}

// add accounts one traced op's span tree.
func (a *layerAcc) add(root *obs.TreeNode) {
	line, _ := json.Marshal(root)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	a.opNs += root.DurNs
	a.walk(root, "")
	if a.size+len(line) <= keptTraceBytes {
		a.kept = append(a.kept, line)
		a.size += len(line)
	}
}

func (a *layerAcc) walk(n *obs.TreeNode, parent string) {
	stage := stageOf(n.Name, parent)
	if self := n.DurNs - covered(n.Children); self > 0 {
		a.self[stage] += self
	}
	num := func(k string) float64 {
		v, _ := n.Attrs[k].(float64)
		return v
	}
	switch n.Name {
	case "prepass":
		a.prepassRuns++
		if v, _ := n.Attrs["verdict"].(string); v != "" && v != "INCONCLUSIVE" {
			a.prepassDecided++
		}
		a.replayStates += num("replay_states")
	case "fixpoint":
		a.fixpointRuns++
		a.macroStates += num("macro_states")
		a.satSteps += num("saturation_steps")
	case "layered":
		a.layeredRuns++
		a.dedup += num("dedup_hits")
		a.states += num("states")
		a.frontier += num("peak_frontier")
	case "layer":
		a.layers++
	case "skeleton-enumeration":
		a.encodeRuns++
		a.skeletons += num("skeletons")
	case "datalog-eval":
		a.datalogRuns++
		a.rounds += num("rounds")
		a.atoms += num("atoms")
	case "serve.request":
		a.requests++
		a.rttNs += n.DurNs
	}
	for _, c := range n.Children {
		a.walk(c, stage)
	}
}

// covered is the length of the union of the children's intervals. Children
// of one node share a clock, even when they overlap (parallel workers).
func covered(children []*obs.TreeNode) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, len(children))
	for i, c := range children {
		iv[i] = [2]int64{c.StartNs, c.StartNs + c.DurNs}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// addProm adds the difference between two /metrics scrapes.
func (a *layerAcc) addProm(before, after map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, v := range after {
		a.prom[k] += v - before[k]
	}
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// metrics derives the per-layer metrics. untracedNsPerOp is the wall time
// per op of the run's untraced batches, tracedNsPerOp that of its traced
// ones.
func (a *layerAcc) metrics(tracedNsPerOp, untracedNsPerOp float64) []metric {
	ops := float64(a.ops)
	perOp := func(stage string, unit float64) float64 { return ratio(float64(a.self[stage]), ops) / unit }
	const us, ms, s = 1e3, 1e6, 1e9
	fixNs := float64(a.self["simplified.fixpoint"] + a.self["simplified.init_saturate"] + a.self["engine.layer"])
	p := a.prom
	backendNs := p["raserved_backend_fixpoint_ns_sum"] + p["raserved_backend_datalog_ns_sum"]
	return []metric{
		{"lang.parse_us", "us", perOp("lang.parse", us)},
		{"analysis.slice_us", "us", perOp("analysis.slice", us)},
		{"cache.canonicalize_us", "us", perOp("cache.canonicalize", us)},
		{"cache.lookup_us", "us", perOp("cache.lookup", us)},
		{"cache.hit_ratio", "ratio", ratio(p["paramra_cache_hits_total"], p["paramra_cache_hits_total"]+p["paramra_cache_misses_total"])},
		{"absint.prepass_ms", "ms", perOp("absint.prepass", ms)},
		{"absint.decided_ratio", "ratio", ratio(float64(a.prepassDecided), float64(a.prepassRuns))},
		{"absint.replay_states", "count", ratio(a.replayStates, float64(a.prepassRuns))},
		{"simplified.fixpoint_ms", "ms", perOp("simplified.fixpoint", ms)},
		{"simplified.init_saturate_ms", "ms", perOp("simplified.init_saturate", ms)},
		{"simplified.macro_states_per_s", "1/s", ratio(a.macroStates, fixNs/s)},
		{"simplified.saturation_steps", "count", ratio(a.satSteps, float64(a.fixpointRuns))},
		{"engine.layers", "count", ratio(float64(a.layers), float64(a.layeredRuns))},
		{"engine.layer_ms", "ms", perOp("engine.layer", ms)},
		{"engine.dedup_ratio", "ratio", ratio(a.dedup, a.dedup+a.states)},
		{"engine.peak_frontier", "count", ratio(a.frontier, float64(a.layeredRuns))},
		{"depgraph.build_us", "us", perOp("depgraph.build", us)},
		{"encode.skeleton_ms", "ms", perOp("encode.skeleton", ms)},
		{"encode.skeletons", "count", ratio(a.skeletons, float64(a.encodeRuns))},
		{"datalog.eval_ms", "ms", perOp("datalog.eval", ms)},
		{"datalog.rounds", "count", ratio(a.rounds, float64(a.datalogRuns))},
		{"datalog.atoms_per_s", "1/s", ratio(a.atoms, float64(a.self["datalog.eval"])/s)},
		{"serve.client_rtt_us", "us", ratio(float64(a.rttNs), float64(a.requests)) / us},
		{"serve.handler_overhead_us", "us", ratio(p["raserved_endpoint_verify_ns_sum"]-backendNs, p["raserved_endpoint_verify_ns_count"]) / us},
		{"serve.encode_us", "us", perOp("serve.encode", us)},
		{"serve.rejected", "count", p["raserved_over_capacity_total"]},
		{"op.unattributed_ms", "ms", perOp("op.unattributed", ms)},
		{"runtime.gc_cycles_per_op", "count", ratio(float64(a.gcCycles), ops)},
		{"trace.overhead_ratio", "ratio", ratio(tracedNsPerOp, untracedNsPerOp)},
		{"trace.coverage_ratio", "ratio", 1 - ratio(float64(a.self["op.unattributed"]), float64(a.opNs))},
	}
}

// printLayers writes the self-time share of each layer over the traced ops.
func (a *layerAcc) printLayers(w io.Writer) {
	byLayer := map[string]int64{}
	for stage, ns := range a.self {
		byLayer[layerOf(stage)] += ns
	}
	names := make([]string, 0, len(byLayer))
	for l := range byLayer {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return byLayer[names[i]] > byLayer[names[j]] })
	fmt.Fprintf(w, "  %-12s %12s %7s   (self time over %d traced ops)\n", "layer", "ms/op", "share", a.ops)
	for _, l := range names {
		fmt.Fprintf(w, "  %-12s %12.4f %6.1f%%\n", l, ratio(float64(byLayer[l]), float64(a.ops))/1e6,
			100*ratio(float64(byLayer[l]), float64(a.opNs)))
	}
}

// writeKept writes the kept span trees, one JSON tree per line.
func (a *layerAcc) writeKept(w io.Writer) error {
	for _, line := range a.kept {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
