# Build / verification entry points. `make verify` is the full gate:
# build + tests + vet + domain lint (cmd/lintx) + race detector over the
# concurrency-heavy packages + the chaos (fault-injection) suites + the
# allocation gate. `make bench` runs the repo's one benchmark (bench/).

GO ?= go

# Packages with real concurrency (worth the ~100x race-detector slowdown),
# and what the executor calls from DoP goroutines at once: the operators
# (internal/core), the POS tagger, the entity taggers, the relevance
# classifier and htmlkit's pooled scratch; and the simulator, whose
# generator's pooled scratch the fleet's shard goroutines share.
RACE_PKGS = ./internal/obs/... ./internal/dataflow/... ./internal/crawler/... ./internal/core/ ./internal/nlp/postag/ ./internal/ie/... ./internal/classify/ ./internal/htmlkit/ ./internal/textgen/ ./internal/synthweb/

# `make loc`: non-test Go code outside bench/, less blank and comment-only
# lines — the one size every simplicity PR quotes. It counts the working
# tree: tracked and untracked Go files git does not ignore, less any
# tracked file that was removed from disk.
LOC_FILES = git ls-files --cached --others --exclude-standard -- '*.go' | sort -u | \
	while read -r f; do [ -f "$$f" ] && echo "$$f"; done | \
	grep -v _test.go | grep -v /testdata/ | grep -v '^bench/'

.PHONY: build test vet lint race chaos supervisor-chaos fuzz bench alloc-gate loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is its own module, so `./...` never reaches it: vet it too, so a
# change that breaks the benchmark's compile fails here (vet, not build,
# so nothing is written into bench/).
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Domain static analysis (internal/analysis/checks): determinism (wall
# clock, blocking sleeps, math/rand), map-iteration order, goroutine
# lifecycles, write-path error handling, metric/trace/series/profiler
# name grammar, library printing — and //lintx:ignore directives that
# suppress nothing. Lock copies are vet's (-copylocks). `lintx -list`
# enumerates checks.
lint:
	$(GO) run ./cmd/lintx ./...

# The crawler package's full suite takes a couple of minutes under -race;
# the timeout leaves headroom on slow machines.
race:
	$(GO) test -race -timeout 15m $(RACE_PKGS)

# Deterministic fault-injection suite under the race detector: chaos
# crawls over flaky/dead/rate-limited webs, the executor's, crawler's and
# fleet's identity tests (DoP, rerun, checkpoint/resume and invisibility,
# each over all five pillars on a faulty fixture), and the executor's
# quarantine / fail-fast / retry paths, its in-place undo log and the seed
# corpus of its reference-executor fuzz target.
chaos:
	$(GO) test -race -timeout 10m \
		-run 'Identity|Chaos|Checkpoint|Resume|Fault|Quarantine|FailFast|OpRetries|Panic|InPlace|ExecuteMatchesReference' \
		./internal/synthweb/ ./internal/crawler/ ./internal/crawler/shard/ ./internal/dataflow/

# Fleet fault-tolerance suite under the race detector: seeded crash
# schedules (explicit points, random-rate replays, and the exhaustive
# crash-at-every-(shard, round) sweep), stall detection, degraded-mode
# completion, and the supervision-is-invisible clean-run gate — every
# recovery byte-identical at DoP 1 and full DoP; below the supervisor, the
# crawler's identity test (its resume axis kills a crawl mid-cycle) and
# the fleet's restart and fencing primitives.
supervisor-chaos:
	$(GO) test -race -timeout 15m -count=1 \
		./internal/crawler/shard/supervisor/
	$(GO) test -race -timeout 10m -count=1 \
		-run 'CrawlIdentity|Crash|StepFault|CheckpointSilent|StepShard|RestartShard|Fence|DeliverMail|SentinelErrors' \
		./internal/synthweb/ ./internal/crawler/ ./internal/crawler/shard/

# Short fuzzing sessions over the HTML pipeline, the MIME detector, the
# language filter, the classifier's tokenizer, the sentence splitter and
# tokenizer, the analysis flow's three hot kernels, the dataflow executor
# and the Meteor front end (seeds alone run as part of `make test`).
# FuzzStreamMatchesReference, FuzzDecodeEntities, FuzzExtractMatchesReference,
# FuzzDetect, FuzzIdentify, FuzzTag, FuzzAnalyze, crf's FuzzExtract,
# FuzzFind, FuzzTokenize and FuzzProbRelevant are differential: htmlkit's
# streaming core, its entity decoder, boiler.Extract, mimetype.Sniff,
# langid.Identify, postag.Tag, ling.Analyze, crf.Extract, dict.Find and the
# classifier's word scanner and ProbRelevant against the predecessors kept
# in their tests; so are the two FuzzRetention: the log sink and the trace
# recorder on the shared obs.Keeper against the per-class retention loops
# they replaced; FuzzRecorderMatchesReference: the trace recorder's
# one-object starts and block snapshots against the span-map, deep-copy
# recorder it replaced; and FuzzDecodeMatchesExtract: the CRF model's one decode
# of all classes against each class's Extract; FuzzLeanDocMatchesDoc:
# textgen's token-free LeanDoc against Doc; FuzzKeyedMatchesSplit: the
# simulator's keyed value RNGs against New(seed).Split(label), the
# allocating form they replace; and FuzzExecuteMatchesReference: the
# dataflow executor, its in-place undo log included, against the naive
# node-by-node reference executor in its tests. FuzzSentenceTokens checks
# the spans every tagger reads; FuzzParseCompile runs meteor.Parse and
# Compile against the real operator registry, which must never panic.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzTokenizeRepairExtract -fuzztime=30s ./internal/htmlkit/
	$(GO) test -run=NONE -fuzz=FuzzStreamMatchesReference -fuzztime=60s ./internal/htmlkit/
	$(GO) test -run=NONE -fuzz=FuzzDecodeEntities -fuzztime=15s ./internal/htmlkit/
	$(GO) test -run=NONE -fuzz='^FuzzExtract$$' -fuzztime=30s ./internal/boiler/
	$(GO) test -run=NONE -fuzz=FuzzExtractMatchesReference -fuzztime=60s ./internal/boiler/
	$(GO) test -run=NONE -fuzz=FuzzDetect -fuzztime=15s ./internal/mimetype/
	$(GO) test -run=NONE -fuzz=FuzzSentenceTokens -fuzztime=30s ./internal/nlp/
	$(GO) test -run=NONE -fuzz=FuzzTokenize -fuzztime=15s ./internal/classify/
	$(GO) test -run=NONE -fuzz=FuzzProbRelevant -fuzztime=30s ./internal/classify/
	$(GO) test -run=NONE -fuzz=FuzzIdentify -fuzztime=60s ./internal/langid/
	$(GO) test -run=NONE -fuzz=FuzzTag -fuzztime=60s ./internal/nlp/postag/
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=30s ./internal/ling/
	$(GO) test -run=NONE -fuzz='^FuzzExtract$$' -fuzztime=30s ./internal/ie/crf/
	$(GO) test -run=NONE -fuzz=FuzzDecodeMatchesExtract -fuzztime=30s ./internal/ie/crf/
	$(GO) test -run=NONE -fuzz=FuzzParseCompile -fuzztime=30s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzFind -fuzztime=30s ./internal/ie/dict/
	$(GO) test -run=NONE -fuzz=FuzzRetention -fuzztime=30s ./internal/obs/evlog/
	$(GO) test -run=NONE -fuzz=FuzzRetention -fuzztime=30s ./internal/obs/trace/
	$(GO) test -run=NONE -fuzz=FuzzRecorderMatchesReference -fuzztime=60s ./internal/obs/trace/
	$(GO) test -run=NONE -fuzz=FuzzLeanDocMatchesDoc -fuzztime=30s ./internal/textgen/
	$(GO) test -run=NONE -fuzz=FuzzKeyedMatchesSplit -fuzztime=15s ./internal/rng/
	$(GO) test -run=NONE -fuzz=FuzzExecuteMatchesReference -fuzztime=60s ./internal/dataflow/

# The repo's one benchmark (BENCHMARK.json, bench/README.md): wall-clock
# crawl and analysis-flow throughput with a layer-by-layer trace. The
# root paper benchmarks stay runnable with plain `go test -bench .`.
bench:
	bash bench/run.sh

# The repo's one allocation discipline (alloc_gate_test.go): a row per
# kernel the benchmark traces, held to its mallocs and bytes per call and
# to linear growth when its input doubles; beside it, internal/core's
# TestAllocGateOps holds the analysis flow's per-document operator chains.
alloc-gate:
	$(GO) test -run 'TestAllocGate' . ./internal/core/

# Code lines, total and per top-level package (cmd/x, internal/x, examples,
# and "." for the root package).
loc:
	@$(LOC_FILES) | xargs grep -cvE '^\s*(//.*)?$$' | awk -F'[/:]' ' \
		{ pkg = NF == 2 ? "." : (($$1 == "cmd" || $$1 == "internal") ? $$1 "/" $$2 : $$1); \
		  lines[pkg] += $$NF; total += $$NF } \
		END { printf "%-20s %6d\n", "total", total; \
		      for (p in lines) printf "%-20s %6d\n", p, lines[p] | "sort" }'

# Every golden, determinism and identity test (trace/log/series/profile
# exports, the doctor, and the one identity test per level: executor,
# crawler, fleet, supervisor) is a plain package test, so `test` already
# runs each of them exactly once.
verify: build test vet lint race chaos supervisor-chaos alloc-gate
