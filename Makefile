GO ?= go

# Build identity stamped into every binary: janus_build_info{version} on
# each daemon's /metrics page reports this value. Defaults to the git
# describe output; override with VERSION=... for release builds.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X repro/internal/version.Version=$(VERSION)

# Seed for the chaos suite's probabilistic failpoints; a failing run
# reproduces with the same seed.
JANUS_CHAOS_SEED ?= 1

# Seed for the scenario suite's workload generators (DES tier replays the
# identical run for the same seed).
JANUS_SCENARIO_SEED ?= 1

.PHONY: check check-race build test fmt vet lint race examples chaos chaos-long fuzz-smoke bench bench-smoke bench-allocs race-overload race-scenarios scenarios scenarios-long smoke-metrics

# The pre-merge gate: formatting, static checks, the janus-vet analyzer
# suite, build, and the full test suite.
check: fmt vet lint build test

# The same gate with the race detector on — slower, run by its own CI job.
# It skips lint, which check already runs.
check-race: vet build race

# Every Go file as gofmt prints it; the benchmark's build directory holds
# other modules' sources and is skipped.
fmt:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	[ -z "$$out" ] || { echo "gofmt -l: these files need formatting:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# janus-vet enforces the repo's own invariants: no wall clock in
# simulation packages (simclock), no silently dropped socket errors and
# deadline-dominated network reads/writes (netio), //janus:hotpath
# functions the compiler's escape analysis finds allocation-free
# (hotalloc, which runs one go build of the hot packages). See
# internal/lint. The wire formats are pinned by golden-bytes tests, not
# here, and stale references in the docs (a BENCH_*.json ledger, a path,
# flag, metric, test name or DESIGN.md section) fail TestDocsReferencesAreLive
# in the test target.
lint:
	$(GO) run ./cmd/janus-vet ./...

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs every example to completion (photoshare without -serve), so a change
# that breaks what an example does, not only what it compiles against,
# fails here. Kept out of go test ./...: each boots a loopback deployment.
examples:
	@for ex in quickstart nosqlquota photoshare multitier; do \
		echo "# go run ./examples/$$ex"; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# The chaos suite: real clusters under injected loss/delay/partition,
# asserting the four degradation invariants (see chaostest). Fixed seed,
# short load budget — the pre-merge variant.
chaos:
	JANUS_CHAOS_SEED=$(JANUS_CHAOS_SEED) $(GO) test -race -count=1 ./chaostest/

# Nightly variant: longer load phases and several seeds.
chaos-long:
	for seed in 1 2 3 4 5; do \
		JANUS_CHAOS_SEED=$$seed JANUS_CHAOS_BUDGET=long $(GO) test -race -count=1 ./chaostest/ || exit 1; \
	done

# Short fuzzing passes over every fuzz target; enough to catch decode
# panics and invariant breaks introduced by a wire or HA change.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzAppendHTTPQuery -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzParseHTTPRawQuery -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzServeRequest -fuzztime 10s ./internal/h1/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/tcp/
	$(GO) test -run '^$$' -fuzz FuzzClientResponse -fuzztime 10s ./internal/client/
	$(GO) test -run '^$$' -fuzz FuzzLBRelay -fuzztime 10s ./internal/lb/
	$(GO) test -run '^$$' -fuzz FuzzHAFrameDecode -fuzztime 10s ./internal/qosserver/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/minisql/
	$(GO) test -run '^$$' -fuzz FuzzExecute -fuzztime 10s ./internal/minisql/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/minisql/
	$(GO) test -run '^$$' -fuzz FuzzBucketMatchesModel -fuzztime 10s ./internal/bucket/

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): four
# workloads through the client-visible path, the run a PR is judged on.
bench:
	bash benchmark/run.sh

# The same program at a tenth of the length: it exits non-zero on a compile
# break against the product API, a missing metric or any failed check, so a
# PR that would break the benchmark fails here first. Numbers from a run
# this short are not comparable with `make bench`.
bench-smoke:
	bash benchmark/run.sh -seconds 2 -windows 4 -setups 1

# The alloc pins: exact allocs/op on the zero-alloc hot paths (the worker's
# decode→decideTimed→encode, sojourn observe, audited Decide, CoDel
# dequeue, a live server's UDP intake — budgets in
# internal/qosserver/allocpin_test.go), plus the legs around it: the
# router→janusd UDP exchange (transport Do) and Router.Route allocate
# nothing, a request decoded with its key left in the datagram
# (wire.DecodeRequestKey) and a table lookup by those bytes
# (table.Sharded.GetBytes) nothing whatever the key, client.Check and the
# LB's proxy of a router-shaped reply on a warmed connection nothing, the
# h1 server loop nothing beyond its handler, a /qos request on the router
# nothing more than Router.Route (the key stays bytes), the router's
# key→owner pick (membership.Pick) nothing, a first-sight rule fetch
# (store.Get's point select through a warmed minisql Client over loopback)
# nothing on a miss and 5 objects on a hit, the engine's included, a
# checkpoint UPDATE over loopback nothing, and a whole DNS-mode check through
# internal/cluster nothing for a resident key and 2 objects for a first-sight
# one; and the live heap a minisql rule row holds (at most 330 B) and a
# resident key holds in the QoS server's table
# (TestAllocPinResidentKeyBytes, at most 110 B, its entry 64 B), janusd's
# intake mallocs over 400 exchanges across 40 GCs, an
# idle janusd's heap (at most 1 MiB), what a drained burst leaves behind, and
# what a first exchange allocates after New (not the listener's buffer).
# The pins assert their budgets, so this is a test run, not a benchmark run.
bench-allocs:
	$(GO) test ./internal/qosserver ./internal/transport ./internal/wire ./internal/table ./internal/client ./internal/lb ./internal/h1 ./internal/router ./internal/membership ./internal/minisql ./internal/store ./internal/cluster -run AllocPin -count=1 -v

# The intake race-stress acceptance: the concurrent-intake + CoDel + handoff +
# rule-churn suites, a burst through the intake's packet free list, the
# bucket's lock-free decisions beside reinstalls and min-merges, and the audit
# ledger's installs, admissions and passes under its one mutex, 20
# consecutive green runs under the race detector. Kept out of the pre-merge
# gate for time; run it when touching intake, table sharding, the bucket, the
# audit ledger or the CoDel controller.
race-overload:
	$(GO) test -race -count=20 -run 'TestCodel|TestOverload|TestIntakeShardedStress|TestIntakeServesConcurrentClients|TestReinstallInPlaceRaceFree|TestAllocPinIntakeBurst' ./internal/qosserver/
	$(GO) test -race -count=20 -run 'TestConcurrentConsumeConservation' ./internal/bucket/
	$(GO) test -race -count=20 -run 'TestMergeBesideDecisionsConserves' ./internal/admission/
	$(GO) test -race -count=20 -run 'TestLedgerConcurrentInstallAdmitAudit' ./internal/audit/
	JANUS_CHAOS_SEED=$(JANUS_CHAOS_SEED) $(GO) test -race -count=20 -run TestInvariantCodelNeverInflatesAdmission ./chaostest/

# The scenario suite — the SLO regression gate: five named adversarial
# workloads (Zipf hot-set churn, diurnal sine, 10× flash crowd,
# multi-tenant rule classes, slow-loris) each run twice, as a deterministic
# million-user DES and against a live loopback cluster with autoscale in
# the loop, and every report is checked against the scenario's SLO budget.
# Regenerates SCENARIOS_SLO.json. See internal/scenario and DESIGN.md §3.7.
scenarios:
	JANUS_SCENARIOS_REAL=1 JANUS_SCENARIO_SEED=$(JANUS_SCENARIO_SEED) \
		JANUS_SCENARIOS_JSON=$(CURDIR)/SCENARIOS_SLO.json \
		$(GO) test -count=1 -v -run 'TestDES|TestRealScenariosMeetSLO' ./internal/scenario/

# Nightly variant: the real tier runs each scenario's long budget (~3×).
scenarios-long:
	JANUS_SCENARIOS_REAL=1 JANUS_SCENARIO_BUDGET=long JANUS_SCENARIO_SEED=$(JANUS_SCENARIO_SEED) \
		JANUS_SCENARIOS_JSON=$(CURDIR)/SCENARIOS_SLO.json \
		$(GO) test -count=1 -v -run 'TestDES|TestRealScenariosMeetSLO' ./internal/scenario/

# The flash-crowd-under-loss race acceptance: the scenario invariant (20%
# receive loss + 10× crowd must not mint credit, drop datagrams, or blind
# the autoscaler) green for 20 consecutive seeds under the race detector.
race-scenarios:
	for seed in $$(seq 1 20); do \
		JANUS_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run TestInvariantFlashCrowdUnderLoss ./chaostest/ || exit 1; \
	done

# Boots the four-tier stack with -metrics-addr and asserts every daemon's
# /metrics answers with janus_* series.
smoke-metrics:
	./scripts/smoke_metrics.sh
