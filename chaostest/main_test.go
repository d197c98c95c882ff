// Package chaostest is the chaos integration suite: it boots real Janus
// clusters — multi-process where the failure involves process death or
// promotion signals, in-process where it needs server-side counters — and
// injects faults through the internal/failpoint registry to prove the
// degradation guarantees the design documents promise (DESIGN.md §4.2):
//
//  1. Retry exhaustion yields the router's default reply within the
//     bounded retry budget (TestInvariantBoundedDefaultReply).
//  2. Slave promotion preserves bucket credit up to the replication
//     window (TestInvariantPromotionPreservesCredit).
//  3. Bucket handoff under 20% packet loss never inflates the aggregate
//     admitted volume above C + r·t
//     (TestInvariantHandoffNeverInflatesAdmission).
//  4. A coordinator partition never causes two routers to map a key to
//     different owners within the same epoch
//     (TestInvariantSingleOwnerPerEpoch).
//
// Runs are seeded: JANUS_CHAOS_SEED (default 1) feeds every probabilistic
// failpoint, so a failing run reproduces with the same seed.
// JANUS_CHAOS_BUDGET=long lengthens the load phases for nightly runs.
package chaostest

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

var (
	// bins maps daemon name to the built binary path; nil in -short mode
	// (the multi-process tests skip themselves).
	bins map[string]string
	// chaosSeed feeds every probabilistic failpoint spec.
	chaosSeed uint64 = 1
	// longBudget lengthens load phases (nightly runs).
	longBudget bool
)

func TestMain(m *testing.M) {
	flag.Parse()
	if s := os.Getenv("JANUS_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaostest: bad JANUS_CHAOS_SEED %q: %v\n", s, err)
			os.Exit(2)
		}
		chaosSeed = v
	}
	longBudget = os.Getenv("JANUS_CHAOS_BUDGET") == "long"

	code := func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "janus-chaos-bins")
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaostest: %v\n", err)
				return 2
			}
			defer os.RemoveAll(dir)
			bins = make(map[string]string)
			for _, name := range []string{"janus-dbd", "janusd", "janus-router", "janus-coordinator"} {
				bin := filepath.Join(dir, name)
				cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
				cmd.Dir = ".." // the package lives one level below the module root
				cmd.Env = os.Environ()
				if msg, err := cmd.CombinedOutput(); err != nil {
					fmt.Fprintf(os.Stderr, "chaostest: build %s: %v\n%s", name, err, msg)
					return 2
				}
				bins[name] = bin
			}
		}
		return m.Run()
	}()
	os.Exit(code)
}
