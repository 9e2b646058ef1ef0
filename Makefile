# Build / verification entry points. `make verify` is the full gate:
# build + tests + vet + domain lint (cmd/lintx) + race detector over the
# concurrency-heavy packages + the chaos (fault-injection) suite.

GO ?= go

# Packages with real concurrency (worth the ~100x race-detector slowdown),
# and the POS tagger, which the executor calls from DoP goroutines at once.
RACE_PKGS = ./internal/obs/... ./internal/dataflow/... ./internal/crawler/... ./internal/nlp/postag/

.PHONY: build test vet lint race chaos supervisor-chaos fuzz bench bench-baseline bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 bench-all alloc-gate verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Domain static analysis (internal/analysis/checks): determinism,
# map-iteration order, lock copies, goroutine lifecycles, write-path
# error handling, metric-name hygiene. `lintx -list` enumerates checks.
lint:
	$(GO) run ./cmd/lintx ./...

# The crawler package's full suite takes a couple of minutes under -race;
# the timeout leaves headroom on slow machines.
race:
	$(GO) test -race -timeout 15m $(RACE_PKGS)

# Deterministic fault-injection suite under the race detector: chaos
# crawls over flaky/dead/rate-limited webs, checkpoint/resume identity,
# and the executor's quarantine / fail-fast / retry paths.
chaos:
	$(GO) test -race -timeout 10m \
		-run 'Chaos|Checkpoint|Resume|Fault|Quarantine|FailFast|OpRetries|Panic' \
		./internal/synthweb/ ./internal/crawler/ ./internal/crawler/shard/ ./internal/dataflow/

# Fleet fault-tolerance suite under the race detector: seeded crash
# schedules (explicit points, random-rate replays, and the exhaustive
# crash-at-every-(shard, round) sweep), stall detection, degraded-mode
# completion, and the supervision-is-invisible clean-run gate — every
# recovery byte-identical at DoP 1 and full DoP.
supervisor-chaos:
	$(GO) test -race -timeout 15m -count=1 \
		./internal/crawler/shard/supervisor/
	$(GO) test -race -timeout 10m -count=1 \
		-run 'Crash|StepFault|CheckpointSilent|StepShard|RestartShard|Fence|DeliverMail|SentinelErrors' \
		./internal/synthweb/ ./internal/crawler/ ./internal/crawler/shard/

# Short fuzzing sessions over the HTML pipeline, the language filter and the
# analysis flow's two hot kernels (seeds alone run as part of `make test`).
# FuzzIdentify, FuzzTag and FuzzAnalyze are differential: langid.Identify,
# postag.Tag and ling.Analyze against the predecessors kept in their tests.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzTokenizeRepairExtract -fuzztime=30s ./internal/htmlkit/
	$(GO) test -run=NONE -fuzz=FuzzDecodeEntities -fuzztime=15s ./internal/htmlkit/
	$(GO) test -run=NONE -fuzz=FuzzExtract -fuzztime=30s ./internal/boiler/
	$(GO) test -run=NONE -fuzz=FuzzIdentify -fuzztime=60s ./internal/langid/
	$(GO) test -run=NONE -fuzz=FuzzTag -fuzztime=60s ./internal/nlp/postag/
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=30s ./internal/ling/

bench:
	$(GO) test -bench . -benchmem

# Regenerate the committed benchmark baseline (one iteration per
# benchmark; see BENCH_BASELINE.json and bench_baseline_test.go).
bench-baseline:
	$(GO) test -run=NONE -bench . -benchtime 1x | tee /tmp/bench.out
	$(GO) run ./cmd/benchjson < /tmp/bench.out > BENCH_BASELINE.json

# Regenerate the committed tracing-overhead baseline (BENCH_PR4.json):
# the PR3 resilience benchmarks re-measured (the tracing-off regression
# gate, see bench_pr4_test.go) plus the trace-on/off pairs.
bench-pr4:
	( $(GO) test -run=NONE -bench 'Crawl' -benchtime 5x ./internal/crawler/ ; \
	  $(GO) test -run=NONE -bench 'Execute' -benchtime 200x ./internal/dataflow/ ) | tee /tmp/bench_pr4.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr4.out > BENCH_PR4.json

# Regenerate the committed logging-overhead baseline (BENCH_PR5.json):
# the resilience benchmarks re-measured (the logging-off regression gate,
# see bench_pr5_test.go) plus the log-on/off and trace-on/off pairs.
bench-pr5:
	( $(GO) test -run=NONE -bench 'Crawl' -benchtime 5x ./internal/crawler/ ; \
	  $(GO) test -run=NONE -bench 'Execute' -benchtime 200x ./internal/dataflow/ ) | tee /tmp/bench_pr5.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr5.out > BENCH_PR5.json

# Regenerate the committed sharded-crawl baseline (BENCH_PR6.json): a
# 12k-page crawl budget against the ~1M-page synthetic web at DoP 1 and
# DoP 4. The gated metric is virtual throughput (vdocs/s) on the
# deterministic shard clocks, so one iteration per benchmark suffices
# and the numbers are machine-independent (see bench_pr6_test.go).
bench-pr6:
	$(GO) test -run=NONE -bench 'ShardCrawl' -benchtime 1x ./internal/crawler/shard/ | tee /tmp/bench_pr6.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr6.out > BENCH_PR6.json

# Regenerate the committed hot-path allocation budgets (BENCH_PR7.json):
# allocs/op and ns/op for every //lintx:hotpath root's gate workload
# (see alloc_gate_test.go). The allocs/op numbers are the budgets
# `make alloc-gate` enforces.
bench-pr7:
	$(GO) test -run=NONE -bench 'HotPath' -benchmem -benchtime 1000x . | tee /tmp/bench_pr7.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr7.out > BENCH_PR7.json

# Regenerate the committed supervised-fleet baseline (BENCH_PR8.json):
# the PR-6 DoP-4 fleet plan rerun under the shard supervisor with no
# crash schedule. The gate (bench_pr8_test.go) pins the supervised
# vdocs/s within 2% of BENCH_PR6's DoP-4 number — supervision off the
# fault path is (virtually) free.
bench-pr8:
	$(GO) test -run=NONE -bench 'SupervisedShardCrawl' -benchtime 1x ./internal/crawler/shard/supervisor/ | tee /tmp/bench_pr8.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr8.out > BENCH_PR8.json

# Regenerate the committed series-sampling baseline (BENCH_PR9.json):
# the PR-8 supervised DoP-4 fleet plan rerun with fleet series sampling
# off and on. The gate (bench_pr9_test.go) pins the sampling-off vdocs/s
# within 2% of BENCH_PR8 — a detached recorder must be free.
bench-pr9:
	$(GO) test -run=NONE -bench 'SupervisedShardCrawlSeries' -benchtime 1x ./internal/crawler/shard/supervisor/ | tee /tmp/bench_pr9.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr9.out > BENCH_PR9.json

# Regenerate the committed cost-profiling baseline (BENCH_PR10.json):
# the PR-8 supervised DoP-4 fleet plan rerun with per-shard cost
# profiling off and on. The gate (bench_pr10_test.go) pins the
# profiling-off vdocs/s within 2% of BENCH_PR9's sampling-off number — a
# detached profiler must be free. Compare the two baselines with
# `go run ./cmd/benchjson compare BENCH_PR9.json BENCH_PR10.json`.
bench-pr10:
	$(GO) test -run=NONE -bench 'SupervisedShardCrawlProf' -benchtime 1x ./internal/crawler/shard/supervisor/ | tee /tmp/bench_pr10.out
	$(GO) run ./cmd/benchjson < /tmp/bench_pr10.out > BENCH_PR10.json

# Regenerate every committed benchmark baseline in one pass, oldest
# first. `make verify` never runs benchmarks (its gates read only the
# committed BENCH_*.json numbers); run this when a PR moves performance
# on purpose and the committed baselines must follow, then eyeball the
# diffs with `go run ./cmd/benchjson compare`.
bench-all: bench-baseline bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10

# Enforce the committed allocs/op budgets with testing.AllocsPerRun —
# the dynamic counterpart of the static allocfree/boxing/hotpathpurity
# checks in `make lint`.
alloc-gate:
	$(GO) test -run 'TestAllocGate' .

# Every golden, determinism and identity test (trace/log/series/profile
# exports, the doctor, the sharded-crawl DoP and resume identities) is a
# plain package test, so `test` already runs each of them exactly once.
verify: build test vet lint race chaos supervisor-chaos alloc-gate
