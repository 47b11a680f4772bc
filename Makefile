GO ?= go

.PHONY: check fmt vet build lint test test-race stress-pml chaos pool-guard fuzz-smoke bench bench-smoke bench-udp smoke-udp figures

# check is the repo's verification gate: gofmt, vet, build, the gompilint
# suite, the full test suite under the race detector, the debug-build arena
# guard, and a short fixed-budget run of the packet-decoder fuzz targets.
check: fmt vet build lint test-race pool-guard fuzz-smoke

# fmt fails when any Go file in the tree (outside dot-directories such as
# the benchmark's .bench_build/) is not gofmt-formatted, listing the
# offenders.
fmt:
	@out=$$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# stress-pml repeats the messaging-core suites under the race detector: a
# recycled request completed twice, or a registry snapshot read while it is
# being written, shows up in one run of many, not in a single pass. -p 1
# keeps the two packages from loading the cores at once: simnet's
# delay-model tests time modeled sends against the wall clock.
stress-pml:
	$(GO) test -race -count=10 -p 1 ./internal/pml ./internal/simnet

# chaos runs the seeded fault-injection matrix (DESIGN.md §7): simnet
# fault-plan unit tests, control-plane retry under drops/partitions, PML
# recovery from duplicated/reordered packets, MPI-level peer death, the
# mid-job rank respawn path, and the end-to-end twomesh recovery demo
# (rank killed mid-phase, survivors rebuild over gompi://alive).
# Deterministic seeds — a failure here is a bug, not flakiness.
chaos:
	$(GO) test -race -run Chaos ./internal/simnet ./internal/prrte ./internal/pmix ./internal/pml ./mpi ./internal/twomesh ./runtime

# lint runs the project's own go/analysis suite (DESIGN.md §6a): request
# leaks, pool ownership, lock order, handle lifecycle, discarded MPI errors,
# in-flight buffer aliasing, collective order/balance, sync/atomic mixing,
# and //gompilint:noalloc hot paths — interprocedural via per-function
# effect summaries.
lint:
	$(GO) run ./cmd/gompilint ./...

# pool-guard exercises the -tags debug arena guard: double-putBuf panics
# and recycled packets are poisoned, under the race detector.
pool-guard:
	$(GO) test -race -tags debug -run TestPoolGuard ./internal/pml

# fuzz-smoke runs the packet-decoder fuzz targets for a short fixed
# budget on top of the committed seed corpora (internal/pml/testdata/fuzz,
# internal/btl/udp/testdata/fuzz).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzMatchHeaderRoundTrip$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/btl/udp

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every ablation benchmark once — a fast plumbing check
# that the measurement harnesses still execute end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAblation' -benchtime=1x ./...

# bench-udp regenerates the simnet-vs-udp transport comparison quoted by
# EXPERIMENTS.md: the same OSU kernels over the simulated fabric and over
# real loopback UDP sockets (forced udp BTL), accumulated as JSONL.
bench-udp:
	rm -f BENCH_udp.json
	for t in sim udp; do \
		$(GO) run ./cmd/osu -bench latency -transport $$t -profile loopback -np 2 -ppn 2 -sessions -json BENCH_udp.json && \
		$(GO) run ./cmd/osu -bench bw -transport $$t -profile loopback -np 2 -ppn 2 -sessions -json BENCH_udp.json && \
		$(GO) run ./cmd/osu -bench allreduce -transport $$t -profile loopback -np 8 -ppn 8 -sessions -json BENCH_udp.json || exit 1; \
	done

# smoke-udp is the CI process-mode gate: a real multi-process job over
# loopback UDP sockets, with prun's own watchdog bounding the run.
smoke-udp:
	$(GO) run ./cmd/prun -np 2 -transport udp -timeout 60s -app ring
	$(GO) run ./cmd/prun -np 4 -transport udp -timeout 60s -app ring

figures:
	$(GO) run ./cmd/figures -table 1 -fig all
