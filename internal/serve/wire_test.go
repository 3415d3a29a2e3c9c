package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"paramra"
	"paramra/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden wire-schema files")

// fullStats populates every counter with a distinct value so field swaps are
// visible in the goldens.
func fullStats() paramra.Stats {
	return paramra.Stats{
		MacroStates: 101, DisTransitions: 102, EnvConfigs: 103, EnvMsgs: 104,
		SaturationSteps: 105, States: 106, Transitions: 107, Skeletons: 108,
		DatalogFacts: 109, DatalogRules: 110, FixpointRounds: 111,
		DatalogAtoms: 112, DedupHits: 113, PeakFrontier: 114,
		Wall: 115 * time.Millisecond,
	}
}

// goldenCases enumerates one fully-populated instance of every wire
// envelope. The rendered JSON is the wire contract: a change to these bytes
// is an API change and must be deliberate (rerun with -update and review the
// diff).
func goldenCases() map[string]any {
	return map[string]any{
		"verify_response": VerifyResponse{
			APIVersion: APIVersion,
			RequestID:  "req-1",
			System:     "prodcons",
			Verdict:    "UNSAFE",
			Result: ResultDTO{
				Unsafe:         true,
				Complete:       true,
				Class:          "env(nocas)+dis(acyc)",
				Underapprox:    false,
				Stats:          FromStats(fullStats()),
				EnvThreadBound: 6,
				Graph:          "a -> b\n",
				Witness:        []string{"msg(x=2)", "msg(y=1)"},
				DecidedBy:      "fixpoint",
				PrepassReason:  "goal value escapes the abstraction",
				CacheHit:       true,
			},
			Confirm: &ConfirmDTO{EnvThreads: 2, Witness: "e1\ne2\n"},
		},
		"verify_response_confirm_failed": VerifyResponse{
			APIVersion: APIVersion,
			System:     "prodcons",
			Verdict:    "UNSAFE",
			Result:     ResultDTO{Unsafe: true, Complete: true, Class: "env(nocas)+dis(acyc)", EnvThreadBound: 6},
			Confirm: &ConfirmDTO{
				Error: &ConfirmErrorDTO{BoundTried: 3, StateCapHit: true},
			},
		},
		"instance_response": InstanceResponse{
			APIVersion: APIVersion,
			RequestID:  "req-2",
			System:     "prodcons",
			EnvThreads: 2,
			Verdict:    "UNSAFE",
			Result: InstanceResultDTO{
				Unsafe: true, Complete: true, States: 321,
				Stats:   FromStats(paramra.Stats{States: 321, Transitions: 654}),
				Witness: "store x 1\nload x -> 1\n",
			},
		},
		"deadlock_response": DeadlockResponse{
			APIVersion: APIVersion,
			RequestID:  "req-3",
			System:     "barrier",
			EnvThreads: 1,
			Result: DeadlockResultDTO{
				Deadlocks: 2, Terminal: 5, Complete: true,
				Example:      "state{pc=3}",
				StuckThreads: []string{"worker#0", "checker"},
			},
		},
		"inventory_response": InventoryResponse{
			APIVersion: APIVersion,
			RequestID:  "req-4",
			System:     "mp",
			Inventory:  map[string][]int{"x": {0, 1}, "y": {0, 1}},
		},
		"error_response": ErrorResponse{
			APIVersion: APIVersion,
			RequestID:  "req-5",
			TraceID:    "trace-5",
			Error: ErrorDTO{
				Status:  400,
				Code:    CodeInvalidOptions,
				Message: "maxStates = -1: must be ≥ 0 (0 means unlimited)",
				Field:   "maxStates",
			},
		},
		"verify_response_traced": VerifyResponse{
			APIVersion: APIVersion,
			RequestID:  "req-6",
			TraceID:    "trace-6",
			System:     "mp",
			Verdict:    "SAFE",
			Result:     ResultDTO{Complete: true, Class: "env(nocas)+dis(acyc)", EnvThreadBound: -1, DecidedBy: "fixpoint"},
			Trace:      &TraceDTO{Spans: goldenSpans()},
		},
		"slow_response": SlowResponse{
			APIVersion:  APIVersion,
			RequestID:   "req-7",
			TraceID:     "trace-7",
			ThresholdMS: 500,
			Total:       41,
			Requests: []SlowEntry{
				{
					TraceID:   "trace-6",
					RequestID: "req-6",
					Method:    "POST",
					Path:      "/v1/verify",
					Status:    200,
					DurNs:     750_000_000,
					Spans:     goldenSpans(),
				},
				{
					TraceID:    "trace-3",
					Method:     "POST",
					Path:       "/v1/inventory",
					Status:     500,
					DurNs:      900_000_000,
					TraceError: "trace: span 4 never ended",
				},
			},
		},
	}
}

// goldenSpans is a hand-built span tree with deterministic offsets, pinning
// the JSON shape of obs.TreeNode on the wire.
func goldenSpans() []*obs.TreeNode {
	return []*obs.TreeNode{
		{
			Name: "verify", StartNs: 0, DurNs: 740_000_000,
			Attrs: map[string]any{"backend": "fixpoint", "complete": true},
			Children: []*obs.TreeNode{
				{Name: "prepass", StartNs: 1_000, DurNs: 2_000_000,
					Attrs: map[string]any{"verdict": "inconclusive"}},
				{Name: "fixpoint", StartNs: 2_100_000, DurNs: 737_000_000},
			},
		},
	}
}

// TestWireGolden pins the rendered JSON of every response envelope against
// testdata/golden, and checks each decodes back to the identical value
// (round trip).
func TestWireGolden(t *testing.T) {
	for name, v := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (rerun with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire schema drifted from golden %s:\n--- want\n%s\n--- got\n%s", path, want, got)
			}

			// Round trip through the wire back into the same Go value.
			back := reflect.New(reflect.TypeOf(v))
			if err := json.Unmarshal(got, back.Interface()); err != nil {
				t.Fatalf("decoding own golden: %v", err)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), v) {
				t.Errorf("round trip changed the value:\nsent: %#v\ngot:  %#v", v, back.Elem().Interface())
			}
		})
	}
}

// TestStatsRoundTrip pins that FromStats/ToStats preserve every counter
// (wall time at millisecond granularity, the wire precision).
func TestStatsRoundTrip(t *testing.T) {
	s := fullStats()
	got := FromStats(s).ToStats()
	if !reflect.DeepEqual(got, s) {
		t.Errorf("stats round trip:\nin:  %+v\nout: %+v", s, got)
	}
}

// fieldNames lists a struct type's exported field names, sorted.
func fieldNames(v any) []string {
	t := reflect.TypeOf(v)
	var names []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWireCoversLibrary is the drift guard: every exported field of the
// library result types must be accounted for here. Adding a field to
// paramra.Result (or Stats, …) fails this test until the wire DTO and the
// golden are extended — or the field is consciously added to the exclusion
// list below.
func TestWireCoversLibrary(t *testing.T) {
	cases := []struct {
		name     string
		lib      any
		want     []string
		excluded []string // library fields deliberately not on the wire
	}{
		{
			name: "Result", lib: paramra.Result{},
			want: []string{"CacheHit", "Class", "Complete", "DecidedBy",
				"EnvThreadBound", "Graph", "PrepassReason", "Stats",
				"Underapprox", "Unsafe", "Witness"},
		},
		{
			name: "Stats", lib: paramra.Stats{},
			want: []string{"DatalogAtoms", "DatalogFacts", "DatalogRules",
				"DedupHits", "DisTransitions", "EnvConfigs", "EnvMsgs",
				"FixpointRounds", "MacroStates", "PeakFrontier",
				"SaturationSteps", "Skeletons", "States", "Transitions",
				"Wall"},
		},
		{
			name: "InstanceResult", lib: paramra.InstanceResult{},
			want: []string{"Complete", "States", "Stats", "Unsafe", "Witness"},
		},
		{
			name: "DeadlockResult", lib: paramra.DeadlockResult{},
			want: []string{"Complete", "Deadlocks", "Example", "StuckThreads", "Terminal"},
		},
		{
			name: "ConfirmError", lib: paramra.ConfirmError{},
			want: []string{"BoundTried", "Err", "StateCapHit"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := fieldNames(tc.lib)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("paramra.%s fields changed — update the wire DTO, the goldens, and this list.\nnow:    %v\npinned: %v",
					tc.name, got, tc.want)
			}
		})
	}
}

// TestVerdictStrings pins the canonical verdict spellings the CLI and the
// wire share.
func TestVerdictStrings(t *testing.T) {
	cases := []struct {
		res  paramra.Result
		want string
	}{
		{paramra.Result{Complete: true}, "SAFE"},
		{paramra.Result{Unsafe: true, Complete: true}, "UNSAFE"},
		{paramra.Result{}, "UNKNOWN (limit reached)"},
		{paramra.Result{Complete: true, Underapprox: true}, "SAFE (up to the unrolling bound)"},
		{paramra.Result{Underapprox: true}, "UNKNOWN (limit reached) (up to the unrolling bound)"},
		{paramra.Result{Unsafe: true, Complete: true, Underapprox: true}, "UNSAFE"},
	}
	for _, tc := range cases {
		if got := Verdict(tc.res); got != tc.want {
			t.Errorf("Verdict(%+v) = %q, want %q", tc.res, got, tc.want)
		}
	}
	if got := InstanceVerdict(paramra.InstanceResult{Unsafe: true}); got != "UNSAFE" {
		t.Errorf("InstanceVerdict unsafe = %q", got)
	}
	if got := InstanceVerdict(paramra.InstanceResult{Complete: true}); got != "SAFE" {
		t.Errorf("InstanceVerdict safe = %q", got)
	}
	if got := InstanceVerdict(paramra.InstanceResult{}); got != "SAFE (within explored bounds)" {
		t.Errorf("InstanceVerdict incomplete = %q", got)
	}
}

// TestVerdictCoreExcludesTiming pins that the deterministic kernel ignores
// the engine counters that vary run to run.
func TestVerdictCoreExcludesTiming(t *testing.T) {
	a := VerifyResponse{System: "s", Verdict: "SAFE", Result: ResultDTO{Stats: StatsDTO{WallMS: 7, DedupHits: 9}}}
	b := VerifyResponse{System: "s", Verdict: "SAFE", Result: ResultDTO{Stats: StatsDTO{WallMS: 1000, PeakFrontier: 8}}}
	if !bytes.Equal(a.CoreBytes(), b.CoreBytes()) {
		t.Errorf("core bytes differ on timing-only changes:\n%s\n%s", a.CoreBytes(), b.CoreBytes())
	}
	c := b
	c.Result.Unsafe = true
	if bytes.Equal(b.CoreBytes(), c.CoreBytes()) {
		t.Error("core bytes identical despite a verdict-bit change")
	}
}
