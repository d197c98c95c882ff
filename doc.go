// Package repro is a from-scratch Go reproduction of "Janus: A Generic QoS
// Framework for Software-as-a-Service Applications" (Jiang, Lee, Zomaya —
// IEEE CLUSTER 2018).
//
// The implementation lives under internal/ (DESIGN.md §1 lists every
// package), the daemons and tools under cmd/, usage examples under
// examples/. cmd/janus-bench regenerates every table and figure of the
// paper's evaluation:
//
//	go run ./cmd/janus-bench -run all
//
// and the tests of internal/cloudsim and internal/experiments assert their
// shapes. The benchmarks in this package are the §V-C design-choice
// ablations and BenchmarkEmbeddedDecision, which times the QoS server's
// decision (internal/admission's Table.Decide) with no socket and no
// goroutine:
//
//	go test -run '^$' -bench 'Ablation|EmbeddedDecision' .
package repro
