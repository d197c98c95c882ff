package lint

import (
	"go/ast"
)

// newSimClock flags wall-clock and global-RNG use inside the simulation and
// experiment packages. The DES engine (internal/des), the simulated
// instance models (internal/sim, internal/cloudsim), the admission table
// the simulator decides through (internal/admission), and the load
// generator (internal/loadgen) must derive every timestamp from an
// injected clock and every random draw from an explicitly seeded source —
// that is what makes the paper's experiments (Fig 12–14) reproducible
// run-to-run. One raw time.Now() or global rand.Intn() turns a
// deterministic experiment into a flaky one without any test failing.
//
// Seeded sources (rand.New(rand.NewSource(seed))) are allowed; only the
// process-global convenience functions are banned. time.Since/Until are
// banned too: each hides a time.Now() inside.
func newSimClock() *Analyzer {
	a := &Analyzer{
		Name:  "simclock",
		Doc:   "no wall clock or global math/rand in simulation/experiment packages",
		Scope: simClockScope,
	}
	a.Run = func(p *Pass) {
		p.inspect(func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			switch importedPath(p.Pkg, p.File, id) {
			case "time":
				if hint, banned := bannedTimeFuncs[sel.Sel.Name]; banned {
					p.reportf(sel.Pos(), "time.%s in simulation package %s breaks experiment reproducibility; %s",
						sel.Sel.Name, p.Pkg.Path, hint)
				}
			case "math/rand", "math/rand/v2":
				if bannedRandFuncs[sel.Sel.Name] {
					p.reportf(sel.Pos(), "global rand.%s in simulation package %s breaks experiment reproducibility; draw from a seeded *rand.Rand",
						sel.Sel.Name, p.Pkg.Path)
				}
			}
		})
	}
	return a
}

// simClockScope lists the module-relative packages that must stay
// deterministic.
var simClockScope = []string{
	"internal/admission",
	"internal/des",
	"internal/sim",
	"internal/cloudsim",
	"internal/loadgen",
	"internal/scenario",
}

var bannedTimeFuncs = map[string]string{
	"Now":       "use the injected clock",
	"Sleep":     "use the injected clock's timer or the DES scheduler",
	"After":     "use the injected clock's timer or the DES scheduler",
	"AfterFunc": "use the injected clock's timer or the DES scheduler",
	"Tick":      "use the injected clock's ticker or the DES scheduler",
	"NewTicker": "use the injected clock's ticker or the DES scheduler",
	"NewTimer":  "use the injected clock's timer or the DES scheduler",
	"Since":     "it calls time.Now internally; subtract injected-clock readings instead",
	"Until":     "it calls time.Now internally; subtract injected-clock readings instead",
}

var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}
