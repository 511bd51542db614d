GO ?= go

.PHONY: ci fmt build vet lint test race matrix chaos precheck analyze daemon-smoke fuzz-smoke perfbench perfbench-gate bench bench-parallel bench-symbolic bench-dataplane

# ci is the gate every change must pass: gofmt, build, vet, the
# determinism lint, the full test suite under the race detector, the
# fault-detection matrix, the chaos survival matrix, the static model
# preflight, the zero-findings analyzer gate, the daemon smoke test, the
# differential fuzzers, the benchmark module's own vet and tests, and the
# benchmark's full-size digests.
ci: fmt build vet lint race matrix chaos precheck analyze daemon-smoke fuzz-smoke perfbench perfbench-gate

# fmt fails when any Go file in the tree is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint enforces the determinism invariants on every internal package: no
# wall-clock time or process-global randomness in results, no map
# iteration order leaking into ordered output (see tools/detlint). The
# package list comes from go list, so a new package is linted too.
lint:
	$(GO) run ./tools/detlint $$($(GO) list -f '{{.Dir}}' ./internal/... | sed "s|^$$(pwd)/|./|")

# matrix runs the fault-detection matrix: every injectable fault must be
# caught, and the union of all fixtures must stay incident-free.
matrix:
	$(GO) test -short -run 'TestFaultMatrix' ./internal/switchv

# chaos runs the survival bijection matrix under the race detector:
# every chaos mode must leave a hardened campaign's canonical report
# byte-identical to the chaos-free run, and must break the unhardened
# stack (see internal/chaos/survival_test.go).
chaos:
	$(GO) test -race -run 'TestSurvival' ./internal/chaos

# precheck runs the static preflight analyzer over every P4 model in the
# repo (models/ plus any example models); error-severity findings fail.
precheck:
	$(GO) run ./cmd/p4check $$(find models examples -name '*.p4' | sort)

# analyze enforces zero findings of ANY severity on every model shipped
# under models/ — stricter than precheck, which only blocks on errors.
# p4check exits 1 on any finding, so the target fails on the first warn.
analyze:
	$(GO) run ./cmd/p4check $$(find models -name '*.p4' | sort)

# daemon-smoke boots a faulty switchd over TCP, runs a one-target
# switchvd round against it, and asserts through the HTTP API that the
# fault surfaced as a fleet incident record.
daemon-smoke:
	$(GO) run ./tools/daemonsmoke

# fuzz-smoke runs the differential fuzzers for a short burst each: the
# interpreter-vs-compiled engine fuzzer (arbitrary frames must produce
# bit-identical outcomes), the witness-vs-solver generation fuzzer
# (fuzzed workloads must reach identical per-goal verdicts with and
# without the solver-free pre-pass), the sliced-vs-full-blast fuzzer
# (cone-of-influence slice restriction must never flip a verdict), and
# the p4rt WriteRequest and ReadResponse decoder fuzzers (arbitrary
# bytes must not panic them, and a decoded message must survive a
# re-encode unchanged), the p4rt frame-reader fuzzer (arbitrary bytes
# must not panic it, and a frame it reads must re-encode to exactly the
# bytes it consumed), and the P4 front-end fuzzer (arbitrary source
# through the parser and ir.Compile must not panic or hang). Each target
# minimizes a new input for at most 1 s (-fuzzminimizetime; Go's default
# is 60 s, during which nothing is fuzzed), so the 10-s budget is spent
# fuzzing. The two generation targets first delete the corpus earlier
# runs cached for them under GOCACHE and start from their seed corpus:
# each of their inputs takes a whole generation to replay, and -fuzztime
# counts that replay ("gathering baseline coverage"), so a cached corpus
# of a few hundred inputs would use up the 10 s before fuzzing began.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDifferentialEngines' -fuzztime 10s -fuzzminimizetime 1s ./internal/p4/compile
	rm -rf "$$($(GO) env GOCACHE)/fuzz/switchv/internal/symbolic/FuzzWitnessVsSolver"
	$(GO) test -run '^$$' -fuzz 'FuzzWitnessVsSolver' -fuzztime 10s -fuzzminimizetime 1s ./internal/symbolic
	rm -rf "$$($(GO) env GOCACHE)/fuzz/switchv/internal/symbolic/FuzzSlicedVsFullBlast"
	$(GO) test -run '^$$' -fuzz 'FuzzSlicedVsFullBlast' -fuzztime 10s -fuzzminimizetime 1s ./internal/symbolic
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeWriteRequest' -fuzztime 10s -fuzzminimizetime 1s ./internal/p4rt
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeReadResponse' -fuzztime 10s -fuzzminimizetime 1s ./internal/p4rt
	$(GO) test -run '^$$' -fuzz 'FuzzReadRawFrame' -fuzztime 10s -fuzzminimizetime 1s ./internal/p4rt
	$(GO) test -run '^$$' -fuzz 'FuzzFrontEnd' -fuzztime 10s -fuzzminimizetime 1s ./internal/p4/ir

# perfbench vets and tests the benchmark program. It is its own module
# (perfbench/go.mod), so the root build and test targets never compile
# it; this catches a change that breaks a symbol it calls.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# perfbench-gate runs every benchmark workload at full size for a short
# run. run.sh exits 1 when a round's digest or a deterministic count
# (SMT checks, packets, verdicts, incidents) differs from
# perfbench/expected.json, so a change that moves what a workload
# computes fails here. cp-fuzz-inst1 runs at seeds 0 and 52, which
# expected.json pins with an accepted-invalid and a rejected-valid
# incident, so the oracle runs under both kinds; the data-plane
# workloads pin any seed.
perfbench-gate:
	bash perfbench/run.sh --workload cp-fuzz-inst1 --seed 0 --seconds 1 --trace 0
	bash perfbench/run.sh --workload cp-fuzz-inst1 --seed 52 --seconds 1 --trace 0
	bash perfbench/run.sh --workload dp-cold-inst1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload dp-cold-wan --seconds 1 --trace 0
	bash perfbench/run.sh --workload dp-warm-inst1 --seconds 1 --trace 0

# bench reruns the paper-evaluation benchmarks once each and records the
# parallel-engine scaling run as machine-readable JSON.
bench: bench-parallel bench-symbolic bench-dataplane
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Each bench-* target records the raw `go test -json` stream and then
# distills it into a compact deterministic summary (benchmark name ->
# sorted metrics) so BENCH_* trajectories diff cleanly across commits.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelCampaign' -benchtime 1x -json . > BENCH_parallel.json
	$(GO) run ./tools/benchsummary BENCH_parallel.json

# bench-symbolic records the data-plane generation ablation (serial vs
# pruned vs pruned+parallel+witness) with its built-in reduction/
# identity/check-budget/speedup gates as machine-readable JSON.
bench-symbolic:
	$(GO) test -run '^$$' -bench 'BenchmarkDataPlaneGen' -benchtime 1x -json . > BENCH_symbolic.json
	$(GO) run ./tools/benchsummary BENCH_symbolic.json

# bench-dataplane records the interpreter-vs-compiled packets/sec
# comparison, including its built-in >= 10x single-thread speedup gate,
# as machine-readable JSON.
bench-dataplane:
	$(GO) test -run '^$$' -bench 'BenchmarkCompiledVsInterp' -benchtime 1x -json . > BENCH_dataplane.json
	$(GO) run ./tools/benchsummary BENCH_dataplane.json
