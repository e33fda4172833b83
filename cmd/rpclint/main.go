// Command rpclint machine-enforces the repository's determinism,
// locking, ownership, and error-code invariants: the analyzers of
// internal/analysis (wallclock, rngsource, lockheld, statuserr,
// sinkobserve, plus the interprocedural bufown, goroleak, and lockorder)
// over package patterns resolved like the go command's, against the
// working directory and the build `go vet` reads:
//
//	rpclint ./...          # human-readable findings, exit 2 if any
//	rpclint -json ./...    # machine-readable [{file,line,col,analyzer,message}]
//
// The exit code is 0 when clean, 1 on a load or analysis error, and 2
// when there are findings. Suppress a finding with a justified directive
// on the flagged line or the line above:
//
//	//rpclint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rpcscale/internal/analysis"
)

var jsonOut = flag.Bool("json", false, "emit findings as JSON")

func main() {
	flag.Usage = usage
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpclint:", err)
		os.Exit(1)
	}
	if *jsonOut {
		// The JSON shape (file/line/col/analyzer/message) is the stable
		// machine contract for CI annotation tooling.
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "rpclint:", err)
			os.Exit(1)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

func run(patterns []string) ([]analysis.Finding, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunAnalyzers(pkgs, analysis.Analyzers())
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: rpclint [-json] [package pattern ...]\n\nAnalyzers:\n")
	for _, a := range analysis.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nFlags:\n")
	flag.PrintDefaults()
}
