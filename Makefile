# Build, test, and fuzz entry points. `make ci` is the full gate.

GO      ?= go
FUZZTIME ?= 10s
BENCH_RUNS ?= 3
FARM_SOAK_COUNT ?= 3

# Lint tools are pinned by module path + version and run via `go run`,
# so CI is reproducible without committing tool binaries or deps.
STATICCHECK_MOD := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_MOD := golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all vet fmt-check build test race fuzz-smoke farm-soak transport-matrix federation-matrix fleet-matrix shm-smoke examples-smoke fleet-smoke bench-json bench-gate bench-adaptive bench-selftest bench-golden staticcheck govulncheck cosim-lint lint lint-fix-check ci

all: build

vet:
	$(GO) vet ./...

# fmt-check fails, listing the files, when any tracked Go file is not
# gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic shake of the native fuzz targets: new coverage is
# explored for FUZZTIME each, then the corpus properties are re-checked.
fuzz-smoke:
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzMsgRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzBatchRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzShmRing$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/farm/ -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME)

# farm-soak repeats the multi-session farm suite, the resilient session
# layer and the concurrent pool hammer under the race detector — the
# concurrency gate for the session manager, the mux listener and the
# session transport's write-through path.
# FARM_SOAK_COUNT=10 is the nightly deep-soak sizing.
farm-soak:
	$(GO) test ./internal/farm/ ./internal/cosim/ -race -count=$(FARM_SOAK_COUNT) -run 'Farm|Mux|Session|PoolHammer'

# transport-matrix proves every transport kind produces bit-identical
# simulations: the root determinism matrix plus the per-transport
# conformance, soak, and kind-reporting suites, under the race detector.
transport-matrix:
	$(GO) test -race -run 'TransportMatrix|TestCoSimEndToEnd|ReportedKind|MultiRunReports' . ./internal/router/
	$(GO) test -race -run 'Shm|UDS' ./internal/cosim/ ./internal/farm/

# federation-matrix proves the time manager behind every run: router.Run
# bit-identical to a test-local transcription of the pairwise loop across
# every transport, multi-board and pulse-device topologies deterministic,
# topologies bounded by the board's interrupt vector, federations
# submitted as specs through the farm and the fleet equal to their direct
# runs, the manager's edge cases (cancellation of elongated runs
# included), the two-party DriverSimulate wrapper, the quantum schedule
# against its independent reference, the kernel's driver ports, and the
# board's side of the seam (grant traffic, the board as the federate and
# cosim.Serve running it over a wire, both modes agreeing, any party
# served over a wire matching its in-process run) — all under -race.
federation-matrix:
	$(GO) test -race -run 'TestFederation|TestRunDispatchesFederation|TestMultiBoard|TestMultiRunReports|TestRunContextCancellation' ./internal/router/
	$(GO) test -race -run 'TestFarmRunsFederatedSessions|TestSpec' ./internal/farm/
	$(GO) test -race -run 'TestFleetFederatedSpec' ./internal/fleet/
	$(GO) test -race ./internal/cosim/federation/
	$(GO) test -race -run 'Driver' ./internal/hdlsim/
	$(GO) test -race ./internal/board/

# fleet-matrix proves the multi-host control plane under the race
# detector: M sessions placed across K in-process hosts bit-identical to
# the single-farm baseline, a host kill mid-run re-placed to completion,
# tenancy admission, and the spec-first farm API it all rides on.
fleet-matrix:
	$(GO) test -race ./internal/fleet/ ./internal/farm/
	$(GO) test -race -run 'TestFarmAcceptance' .

# fleet-smoke launches three cosim-farm processes in -farmd mode and
# drives 24 sessions through cosim-farmctl, kill -9'ing one host mid-run
# — the cross-process control-plane rendezvous the in-repo tests cannot
# cover (see docs/FLEET.md).
fleet-smoke:
	./scripts/fleet_smoke.sh

# shm-smoke launches cosim-hw and cosim-board as two real processes,
# joined first by a -shm-path link file — the cross-process rendezvous of
# CreateShm/OpenShm that in-process tests cannot cover — then over TCP,
# plain and -pipelined; every run must reach 100% accuracy, and its
# hw-side and board-side -trace transcripts (timestamps stripped) must
# match the goldens in scripts/testdata/link/ (the script's header has
# the regeneration command).
shm-smoke:
	./scripts/shm_smoke.sh

# examples-smoke runs every example program and fails on any nonzero
# exit: quickstart, hwswpartition and servo with the board itself the
# granted party of the two-party DriverSimulate wrapper, debugging with
# the board served by cosim.Serve behind an in-memory wire (log.Fatal on
# the board's error); chaos, dse and dualboard through
# router.Run / RunFederation; homogeneous in one HDL kernel with an ISS core; and
# router's loopback replay with its waveform written to a temp
# directory. Several self-check and exit nonzero on wrong results
# (quickstart, debugging, hwswpartition log.Fatal; chaos compares its
# injured run with a clean one).
examples-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for ex in quickstart debugging hwswpartition servo chaos dse dualboard homogeneous; do \
		$(GO) run ./examples/$$ex >/dev/null || { echo "examples-smoke: $$ex failed"; exit 1; }; \
	done; \
	$(GO) run ./examples/router -vcd "$$dir/router.vcd" >/dev/null || { echo "examples-smoke: router failed"; exit 1; }; \
	echo "examples-smoke: OK"

# bench-json measures what bench/ cannot (the Kernel/ micro-benchmarks,
# allocs per quantum on the tcp/uds/shm transports, the fleet) into
# BENCH_cosim.json, ungated: copy it to BENCH_baseline.json to refresh
# the baseline.
bench-json:
	$(GO) run ./cmd/cosim-bench -runs $(BENCH_RUNS) -v -out BENCH_cosim.json

# bench-gate measures the same and fails when any entry regressed >25% vs
# the committed baseline — in wall clock (ns_per_op) or in steady-state
# allocation rate (allocs_per_quantum) — or is missing from it, or when shm
# is no longer 3x faster than tcp on the fresh run. Without a committed
# baseline only the shm floor applies.
bench-gate:
	$(GO) run ./cmd/cosim-bench -runs $(BENCH_RUNS) -v -out BENCH_cosim.json -baseline BENCH_baseline.json

# bench-adaptive proves the adaptive-quantum speedup claim in isolation:
# the determinism soak plus the Fig.5 adaptive sweep (quick sizing).
bench-adaptive:
	$(GO) test -run 'TestAdaptive' -v .
	$(GO) run ./cmd/cosim-experiments -fig 5a -quick

# bench-selftest vets and tests the repository benchmark (bench/, its own
# module, see bench/README.md): metric tables against BENCHMARK.json, every
# metric emitted traced and untraced, the layer split summing to wall time.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-golden runs every benchmark workload's reference inputs once and
# checks their fingerprints against bench/testdata/golden.json (≈5s): it
# fails, naming the input, when a change moved a simulated bit.
bench-golden:
	bash bench/run.sh --seconds 0 --trace 0

staticcheck:
	$(GO) run $(STATICCHECK_MOD) ./...

govulncheck:
	$(GO) run $(GOVULNCHECK_MOD) ./...

# cosim-lint runs the in-repo analyzer suite (pooled-buffer ownership,
# simulation determinism, obs-handle hygiene — see docs/STATIC_ANALYSIS.md).
# It is pure stdlib and needs no network, so it always runs.
cosim-lint:
	$(GO) run ./cmd/cosim-lint ./...

# lint-fix-check produces the machine-readable findings artifact CI
# uploads (cosim-lint.json) alongside the per-file console summary.
lint-fix-check:
	$(GO) run ./cmd/cosim-lint -json -out cosim-lint.json ./...

# lint always runs the gofmt check and the in-repo suite, then the pinned external linters
# when they are fetchable (CI) — skipping those cleanly offline: the
# repository must keep building and testing with no network at all.
lint: fmt-check cosim-lint
	@if $(GO) run $(STATICCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_MOD) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline); skipped"; \
	fi
	@if $(GO) run $(GOVULNCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_MOD) ./...; \
	else \
		echo "lint: govulncheck unavailable (offline); skipped"; \
	fi

ci: vet build race fuzz-smoke farm-soak bench-adaptive bench-selftest bench-golden lint
