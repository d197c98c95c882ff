// Command janus-vet runs the project-specific static analyzers over the
// module: simclock (no wall clock / global RNG in simulation packages), netio
// (no silently discarded Close/SetDeadline/Write errors, and socket I/O under
// a deadline or an audited helper, in the networking packages), and hotalloc
// (//janus:hotpath functions are allocation-free). See internal/lint for the
// invariants and the //lint:ignore suppression syntax.
//
// Usage:
//
//	janus-vet [./...]              # analyze the whole module
//
// Exit status is 0 when no findings are reported, 1 otherwise, 2 on usage
// or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Parse()
	if args := flag.Args(); len(args) > 1 || (len(args) == 1 && args[0] != "./...") {
		fatalf("usage: janus-vet [./...]")
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := lint.LoadModule(root)
	if err != nil {
		fatalf("%v", err)
	}

	findings := lint.Run(prog, lint.Analyzers())
	for _, f := range findings {
		fmt.Println(f)
	}
	fmt.Fprintf(os.Stderr, "janus-vet: %d finding(s)\n", len(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "janus-vet: "+format+"\n", args...)
	os.Exit(2)
}
