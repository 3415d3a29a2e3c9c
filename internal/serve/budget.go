package serve

import (
	"fmt"
	"time"

	"paramra"
)

// budgetSource records who imposed the effective deadline of a request, so
// an exhausted budget maps onto a deterministic status code: 408 when the
// client asked for the bound, 504 when the server imposed it.
type budgetSource int

const (
	budgetServer budgetSource = iota
	budgetClient
)

// FieldError is a request-validation failure naming the offending wire
// field. The server renders it as a 400 with Code "invalid_options".
type FieldError struct {
	// Field is the wire-level knob name, e.g. "budgetMs" or "maxStates".
	Field string
	// Reason states the violated constraint.
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("serve: %s %s", e.Field, e.Reason)
}

// budget resolves the request's budget against the server's defaults and
// cap. Zero means "server default"; a negative or above-cap request is
// rejected with a field-level error rather than silently clamped.
func (c Config) budget(reqMS int64) (time.Duration, budgetSource, error) {
	if reqMS < 0 {
		return 0, budgetServer, &FieldError{
			Field:  "budgetMs",
			Reason: fmt.Sprintf("= %d: must be ≥ 0 (0 = server default)", reqMS),
		}
	}
	if reqMS == 0 {
		return c.DefaultBudget, budgetServer, nil
	}
	b := time.Duration(reqMS) * time.Millisecond
	if b > c.MaxBudget {
		return 0, budgetServer, &FieldError{
			Field:  "budgetMs",
			Reason: fmt.Sprintf("= %d: exceeds the server budget cap %d", reqMS, c.MaxBudget.Milliseconds()),
		}
	}
	return b, budgetClient, nil
}

// lowerFirst converts a Go field name to its wire spelling (MaxStates →
// maxStates); the wire schema uses lowerCamel names throughout.
func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]|0x20) + s[1:]
}

// Options maps wire knobs onto a paramra.Options, enforcing server caps
// with field-level errors. The returned Options carries no observability
// hooks; the server attaches its registry afterwards. Call on a Defaulted
// config — the zero Config rejects every nonzero knob.
func (c Config) Options(ro RequestOptions) (paramra.Options, error) {
	if c.MaxStatesCap > 0 && ro.MaxStates > c.MaxStatesCap {
		return paramra.Options{}, &FieldError{
			Field:  "maxStates",
			Reason: fmt.Sprintf("= %d: exceeds the server cap %d", ro.MaxStates, c.MaxStatesCap),
		}
	}
	if ro.Confirm && ro.ConfirmMaxEnv > c.MaxConfirmEnv {
		return paramra.Options{}, &FieldError{
			Field:  "confirmMaxEnv",
			Reason: fmt.Sprintf("= %d: exceeds the server cap %d", ro.ConfirmMaxEnv, c.MaxConfirmEnv),
		}
	}
	if ro.ConfirmMaxEnv < 0 {
		return paramra.Options{}, &FieldError{
			Field:  "confirmMaxEnv",
			Reason: fmt.Sprintf("= %d: must be ≥ 0", ro.ConfirmMaxEnv),
		}
	}
	opts := paramra.Options{
		MaxMacroStates: ro.MaxMacroStates,
		MaxStates:      ro.MaxStates,
		MaxSkeletons:   ro.MaxSkeletons,
		UnrollDis:      ro.UnrollDis,
		Datalog:        ro.Datalog,
		Prepass:        true,
	}
	if ro.Prepass != nil {
		opts.Prepass = *ro.Prepass
	}
	if ro.GoalVar != "" {
		opts.Goal = &paramra.Goal{Var: ro.GoalVar, Val: ro.GoalVal}
	}
	if opts.MaxStates == 0 {
		// Concrete exploration must never be unbounded on a shared server:
		// loops make concrete state spaces infinite in general.
		opts.MaxStates = c.MaxStatesCap
	}
	// Strict validation: the server answers 400 with the offending field
	// instead of the library's silent clamp.
	if err := opts.Validate(); err != nil {
		var oe *paramra.OptionError
		if asOptionError(err, &oe) {
			return paramra.Options{}, &FieldError{
				Field:  lowerFirst(oe.Field),
				Reason: fmt.Sprintf("= %d: %s", oe.Value, oe.Reason),
			}
		}
		return paramra.Options{}, err
	}
	return opts, nil
}
