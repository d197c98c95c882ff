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
// ablations and BenchmarkEmbeddedDecision, which calls Decide on one QoS
// server with no socket in the path:
//
//	go test -run '^$' -bench 'Ablation|EmbeddedDecision' .
package repro
