// Command ravet is the static analyzer ("vet") for .ra system files. It
// parses each file, runs the lint rules of internal/analysis — dead register
// stores, loads whose value is never read, unreachable code and asserts,
// write-only shared variables, never-true assumes, CAS operations that can
// never succeed, registers read before assignment, empty loop bodies,
// comparisons against never-written values, stores no reader can
// distinguish — and prints one "file:line:col: rule: message" diagnostic per
// finding. Reachability and values come from one interference-closed value
// analysis, so every finding holds for any number of env threads. With -json
// the findings are emitted instead as a JSON array of
// {file, line, col, rule, severity, thread, msg} objects.
//
// Usage:
//
//	ravet [flags] system.ra ...
//
// The exit code is 0 when every file is clean, 1 when any diagnostic fired,
// and 2 on parse or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paramra"
	"paramra/internal/analysis"
	"paramra/internal/obs"
)

// jsonDiag is the machine-readable diagnostic shape (-json): one object per
// finding, in the same order as the text output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Thread   string `json:"thread,omitempty"`
	Msg      string `json:"msg"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		footprint = flag.Bool("footprint", false, "also print each thread's per-variable load/store/CAS footprint")
		slicePrev = flag.Bool("slice", false, "also print what the verdict-preserving slicer would remove")
		jsonOut   = flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	)
	obsf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ravet [flags] system.ra ...")
		flag.PrintDefaults()
		return 2
	}
	sess, err := obsf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ravet:", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ravet:", err)
		}
	}()
	root := sess.Tracer.Start("ravet", nil)
	defer root.End()

	code := 0
	jsonDiags := []jsonDiag{} // non-nil so -json prints [] on clean runs
	for _, path := range flag.Args() {
		fspan := root.Child("vet")
		fspan.SetAttr("file", path)
		sys, err := paramra.ParseFile(path)
		if err != nil {
			fspan.End()
			fmt.Fprintln(os.Stderr, err)
			code = 2
			continue
		}
		diags := paramra.Analyze(sys)
		fspan.SetAttr("diagnostics", len(diags))
		fspan.End()
		for _, d := range diags {
			d.File = path
			if *jsonOut {
				jsonDiags = append(jsonDiags, jsonDiag{
					File: d.File, Line: d.Pos.Line, Col: d.Pos.Col,
					Rule: d.Rule, Severity: analysis.Severity(d.Rule),
					Thread: d.Thread, Msg: d.Msg,
				})
			} else {
				fmt.Println(d)
			}
			if code == 0 {
				code = 1
			}
		}
		if *footprint {
			fmt.Printf("%s: footprint:\n", path)
			fmt.Print(indent(analysis.Footprint(sys).String()))
		}
		if *slicePrev {
			if _, stats := paramra.Slice(sys); stats.Changed() {
				fmt.Printf("%s: slice would shrink the system: %s\n", path, stats)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDiags); err != nil {
			fmt.Fprintln(os.Stderr, "ravet:", err)
			return 2
		}
	}
	return code
}

func indent(s string) string {
	var out []byte
	start := true
	for i := 0; i < len(s); i++ {
		if start {
			out = append(out, ' ', ' ')
			start = false
		}
		out = append(out, s[i])
		if s[i] == '\n' {
			start = true
		}
	}
	return string(out)
}
