package serve

import (
	"encoding/json"
	"strings"
	"time"

	"paramra"
	"paramra/internal/obs"
)

// APIVersion is the wire-contract version carried in every response
// envelope. Bump it only with a compatibility plan; additive, omitempty
// fields do not require a bump.
const APIVersion = "v1"

// StatsDTO is the wire form of paramra.Stats. Field names are the lowerCamel
// spellings of the Go fields; zero counters are omitted so each backend's
// response carries only its own field group.
type StatsDTO struct {
	// Fixpoint backend.
	MacroStates     int `json:"macroStates,omitempty"`
	DisTransitions  int `json:"disTransitions,omitempty"`
	EnvConfigs      int `json:"envConfigs,omitempty"`
	EnvMsgs         int `json:"envMsgs,omitempty"`
	SaturationSteps int `json:"saturationSteps,omitempty"`

	// Concrete backend.
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`

	// Datalog backend.
	Skeletons      int `json:"skeletons,omitempty"`
	DatalogFacts   int `json:"datalogFacts,omitempty"`
	DatalogRules   int `json:"datalogRules,omitempty"`
	FixpointRounds int `json:"fixpointRounds,omitempty"`
	DatalogAtoms   int `json:"datalogAtoms,omitempty"`

	// Shared engine counters.
	DedupHits    int64 `json:"dedupHits,omitempty"`
	PeakFrontier int64 `json:"peakFrontier,omitempty"`
	WallMS       int64 `json:"wallMs,omitempty"`
}

// FromStats converts library stats to the wire form.
func FromStats(s paramra.Stats) StatsDTO {
	return StatsDTO{
		MacroStates:     s.MacroStates,
		DisTransitions:  s.DisTransitions,
		EnvConfigs:      s.EnvConfigs,
		EnvMsgs:         s.EnvMsgs,
		SaturationSteps: s.SaturationSteps,
		States:          s.States,
		Transitions:     s.Transitions,
		Skeletons:       s.Skeletons,
		DatalogFacts:    s.DatalogFacts,
		DatalogRules:    s.DatalogRules,
		FixpointRounds:  s.FixpointRounds,
		DatalogAtoms:    s.DatalogAtoms,
		DedupHits:       s.DedupHits,
		PeakFrontier:    s.PeakFrontier,
		WallMS:          s.Wall.Milliseconds(),
	}
}

// ToStats converts wire stats back to the library form (wall time is carried
// at millisecond precision on the wire).
func (d StatsDTO) ToStats() paramra.Stats {
	return paramra.Stats{
		MacroStates:     d.MacroStates,
		DisTransitions:  d.DisTransitions,
		EnvConfigs:      d.EnvConfigs,
		EnvMsgs:         d.EnvMsgs,
		SaturationSteps: d.SaturationSteps,
		States:          d.States,
		Transitions:     d.Transitions,
		Skeletons:       d.Skeletons,
		DatalogFacts:    d.DatalogFacts,
		DatalogRules:    d.DatalogRules,
		FixpointRounds:  d.FixpointRounds,
		DatalogAtoms:    d.DatalogAtoms,
		DedupHits:       d.DedupHits,
		PeakFrontier:    d.PeakFrontier,
		Wall:            time.Duration(d.WallMS) * time.Millisecond,
	}
}

// ResultDTO is the wire form of paramra.Result. The dependency graph is
// carried pre-rendered (its Go form is an internal pointer structure).
type ResultDTO struct {
	Unsafe         bool     `json:"unsafe"`
	Complete       bool     `json:"complete"`
	Class          string   `json:"class"`
	Underapprox    bool     `json:"underapprox,omitempty"`
	Stats          StatsDTO `json:"stats"`
	EnvThreadBound int64    `json:"envThreadBound"`
	Graph          string   `json:"graph,omitempty"`
	Witness        []string `json:"witness,omitempty"`
	DecidedBy      string   `json:"decidedBy,omitempty"`
	PrepassReason  string   `json:"prepassReason,omitempty"`
	CacheHit       bool     `json:"cacheHit,omitempty"`
}

// FromResult converts a library result to the wire form.
func FromResult(r paramra.Result) ResultDTO {
	d := ResultDTO{
		Unsafe:         r.Unsafe,
		Complete:       r.Complete,
		Class:          r.Class.String(),
		Underapprox:    r.Underapprox,
		Stats:          FromStats(r.Stats),
		EnvThreadBound: r.EnvThreadBound,
		Witness:        r.Witness,
		DecidedBy:      r.DecidedBy,
		PrepassReason:  r.PrepassReason,
		CacheHit:       r.CacheHit,
	}
	if r.Graph != nil {
		d.Graph = r.Graph.String()
	}
	return d
}

// InstanceResultDTO is the wire form of paramra.InstanceResult.
type InstanceResultDTO struct {
	Unsafe   bool     `json:"unsafe"`
	Complete bool     `json:"complete"`
	States   int      `json:"states"`
	Stats    StatsDTO `json:"stats"`
	Witness  string   `json:"witness,omitempty"`
}

// FromInstanceResult converts a library instance result to the wire form.
func FromInstanceResult(r paramra.InstanceResult) InstanceResultDTO {
	return InstanceResultDTO{
		Unsafe:   r.Unsafe,
		Complete: r.Complete,
		States:   r.States,
		Stats:    FromStats(r.Stats),
		Witness:  r.Witness,
	}
}

// DeadlockResultDTO is the wire form of paramra.DeadlockResult.
type DeadlockResultDTO struct {
	Deadlocks    int      `json:"deadlocks"`
	Terminal     int      `json:"terminal"`
	Complete     bool     `json:"complete"`
	Example      string   `json:"example,omitempty"`
	StuckThreads []string `json:"stuckThreads,omitempty"`
}

// FromDeadlockResult converts a library deadlock report to the wire form.
func FromDeadlockResult(r paramra.DeadlockResult) DeadlockResultDTO {
	return DeadlockResultDTO{
		Deadlocks:    r.Deadlocks,
		Terminal:     r.Terminal,
		Complete:     r.Complete,
		Example:      r.Example,
		StuckThreads: r.StuckThreads,
	}
}

// ConfirmErrorDTO is the wire form of paramra.ConfirmError.
type ConfirmErrorDTO struct {
	BoundTried  int64  `json:"boundTried"`
	StateCapHit bool   `json:"stateCapHit,omitempty"`
	Cause       string `json:"cause,omitempty"`
}

// FromConfirmError converts a library confirmation failure to the wire form.
func FromConfirmError(e *paramra.ConfirmError) ConfirmErrorDTO {
	d := ConfirmErrorDTO{BoundTried: e.BoundTried, StateCapHit: e.StateCapHit}
	if e.Err != nil {
		d.Cause = e.Err.Error()
	}
	return d
}

// RequestOptions is the wire form of the verification knobs. The zero value
// of every field selects the server's documented default; negative values
// and values above the server caps are rejected with a 400 naming the field.
type RequestOptions struct {
	// BudgetMS is the per-request verification budget in milliseconds,
	// mapped onto a context deadline (0 = server default; capped by the
	// server's max budget). A budget the client set that expires yields 408;
	// an expired server-imposed default yields 504.
	BudgetMS int64 `json:"budgetMs,omitempty"`
	// MaxStates caps concrete-instance exploration (0 = server default cap).
	MaxStates int `json:"maxStates,omitempty"`
	// MaxMacroStates caps the fixpoint macro-state search (0 = unlimited;
	// the budget is the primary limit).
	MaxMacroStates int `json:"maxMacroStates,omitempty"`
	// MaxSkeletons caps Datalog skeleton enumeration (0 = backend default).
	MaxSkeletons int `json:"maxSkeletons,omitempty"`
	// UnrollDis unrolls looping dis threads (bounded under-approximation).
	UnrollDis int `json:"unrollDis,omitempty"`
	// Datalog selects the makeP → Datalog backend.
	Datalog bool `json:"datalog,omitempty"`
	// Prepass enables the abstract-interpretation fast path (nil = server
	// default, which is on — matching the CLIs).
	Prepass *bool `json:"prepass,omitempty"`
	// GoalVar/GoalVal switch to the Message Generation problem.
	GoalVar string `json:"goalVar,omitempty"`
	GoalVal int    `json:"goalVal,omitempty"`
	// Confirm asks the server to confirm an UNSAFE verdict with a concrete
	// instance (ConfirmViolation) within ConfirmMaxEnv env threads.
	Confirm       bool `json:"confirm,omitempty"`
	ConfirmMaxEnv int  `json:"confirmMaxEnv,omitempty"`
}

// VerifyRequest asks for a parameterized safety verdict.
type VerifyRequest struct {
	// System is the system in .ra concrete syntax.
	System string `json:"system"`
	// Options tunes the run; the zero value is the server default.
	Options RequestOptions `json:"options"`
}

// InstanceRequest asks for concrete exploration of a fixed instance.
type InstanceRequest struct {
	System string `json:"system"`
	// EnvThreads is the instance's environment thread count (≥ 0).
	EnvThreads int            `json:"envThreads"`
	Options    RequestOptions `json:"options"`
}

// ConfirmDTO reports a confirmation attempt attached to an UNSAFE verdict.
type ConfirmDTO struct {
	// EnvThreads is the confirming instance's env thread count.
	EnvThreads int `json:"envThreads"`
	// Witness is the confirming interleaving, one event per line.
	Witness string `json:"witness,omitempty"`
	// Error is set when no instance within the bound confirmed.
	Error *ConfirmErrorDTO `json:"error,omitempty"`
}

// TraceDTO is the opt-in per-response span tree: the spans the request's
// verification opened, nested parent→child, with start offsets and
// durations in nanoseconds. Clients request it with the "X-Trace: 1" header;
// the trace ID itself rides on the envelope. Error replaces Spans when the
// capture could not be reconstructed.
type TraceDTO struct {
	Spans []*obs.TreeNode `json:"spans,omitempty"`
	Error string          `json:"error,omitempty"`
}

// VerifyResponse is the /v1/verify success envelope.
type VerifyResponse struct {
	APIVersion string      `json:"apiVersion"`
	RequestID  string      `json:"requestId,omitempty"`
	TraceID    string      `json:"traceId,omitempty"`
	System     string      `json:"system"`
	Verdict    string      `json:"verdict"`
	Result     ResultDTO   `json:"result"`
	Confirm    *ConfirmDTO `json:"confirm,omitempty"`
	Trace      *TraceDTO   `json:"trace,omitempty"`
}

// InstanceResponse is the /v1/instance success envelope.
type InstanceResponse struct {
	APIVersion string            `json:"apiVersion"`
	RequestID  string            `json:"requestId,omitempty"`
	TraceID    string            `json:"traceId,omitempty"`
	System     string            `json:"system"`
	EnvThreads int               `json:"envThreads"`
	Verdict    string            `json:"verdict"`
	Result     InstanceResultDTO `json:"result"`
	Trace      *TraceDTO         `json:"trace,omitempty"`
}

// DeadlockResponse is the /v1/deadlocks success envelope.
type DeadlockResponse struct {
	APIVersion string            `json:"apiVersion"`
	RequestID  string            `json:"requestId,omitempty"`
	TraceID    string            `json:"traceId,omitempty"`
	System     string            `json:"system"`
	EnvThreads int               `json:"envThreads"`
	Result     DeadlockResultDTO `json:"result"`
	Trace      *TraceDTO         `json:"trace,omitempty"`
}

// InventoryResponse is the /v1/inventory success envelope. Inventory maps
// each shared variable to the values of generatable messages (keys render
// sorted, so the body is deterministic).
type InventoryResponse struct {
	APIVersion string           `json:"apiVersion"`
	RequestID  string           `json:"requestId,omitempty"`
	TraceID    string           `json:"traceId,omitempty"`
	System     string           `json:"system"`
	Inventory  map[string][]int `json:"inventory"`
	Trace      *TraceDTO        `json:"trace,omitempty"`
}

// ErrorDTO is the machine-readable error payload.
type ErrorDTO struct {
	// Status is the HTTP status code, repeated in the body.
	Status int `json:"status"`
	// Code is a stable machine-readable discriminator (see errors.go).
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Field names the offending request field for invalid_options errors.
	Field string `json:"field,omitempty"`
}

// ErrorResponse is the error envelope of every non-2xx response.
type ErrorResponse struct {
	APIVersion string   `json:"apiVersion"`
	RequestID  string   `json:"requestId,omitempty"`
	TraceID    string   `json:"traceId,omitempty"`
	Error      ErrorDTO `json:"error"`
}

// Verdict renders the canonical verdict string for a Result — the exact
// spelling raverify prints, shared here so the CLI and the wire API cannot
// drift: "SAFE", "UNSAFE", "UNKNOWN (limit reached)", with the
// under-approximation qualifier appended on unrolled SAFE verdicts.
func Verdict(res paramra.Result) string {
	v := "SAFE"
	if res.Unsafe {
		v = "UNSAFE"
	}
	if !res.Unsafe && !res.Complete {
		v = "UNKNOWN (limit reached)"
	}
	if res.Underapprox && !res.Unsafe {
		v += " (up to the unrolling bound)"
	}
	return v
}

// InstanceVerdict renders the verdict string for a fixed-instance
// exploration: UNSAFE on a violation, SAFE within the explored bounds
// otherwise (matching raexplore's qualification).
func InstanceVerdict(r paramra.InstanceResult) string {
	if r.Unsafe {
		return "UNSAFE"
	}
	if !r.Complete {
		return "SAFE (within explored bounds)"
	}
	return "SAFE"
}

// VerdictCore is the deterministic kernel of a verify response: the fields
// that do not depend on timing or on engine-scheduling counters. They are
// identical across repeated runs; a prepass UNSAFE witness too, since the
// replay is one sequential search. The soak harness
// compares these bytes between the live server and a local library run.
type VerdictCore struct {
	System         string   `json:"system"`
	Verdict        string   `json:"verdict"`
	Unsafe         bool     `json:"unsafe"`
	Complete       bool     `json:"complete"`
	Class          string   `json:"class"`
	EnvThreadBound int64    `json:"envThreadBound"`
	DecidedBy      string   `json:"decidedBy"`
	Witness        []string `json:"witness"`
}

// Core projects the response onto its deterministic kernel.
func (r VerifyResponse) Core() VerdictCore {
	return VerdictCore{
		System:         r.System,
		Verdict:        r.Verdict,
		Unsafe:         r.Result.Unsafe,
		Complete:       r.Result.Complete,
		Class:          r.Result.Class,
		EnvThreadBound: r.Result.EnvThreadBound,
		DecidedBy:      r.Result.DecidedBy,
		Witness:        r.Result.Witness,
	}
}

// CoreBytes renders the deterministic kernel as canonical JSON bytes, the
// unit of the soak harness's byte-identical verdict comparison.
func (r VerifyResponse) CoreBytes() []byte {
	b, err := json.Marshal(r.Core())
	if err != nil { // a struct of scalars and strings cannot fail to marshal
		panic(err)
	}
	return b
}

// queryBool reads a boolean query parameter ("1", "true", "yes" are true).
func queryBool(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
