# Tier-1 verification: build, vet, tests, race tests — the gate every
# change must pass. `make verify` additionally runs staticcheck when it
# is installed, and skips it (loudly) when it is not, so the target works
# in offline containers without tool downloads.

GO ?= go

.PHONY: all build vet test race lrs-bench-once verify bench bench-json bench-compare audit-smoke cache-smoke batch-smoke lrs-smoke ops-smoke scale-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The LRS post path's cost benchmarks, one iteration each: they are the
# only place its per-event cost is pinned, so they must keep running.
lrs-bench-once:
	$(GO) test -run '^$$' -bench 'Incremental|SetField' -benchtime 1x ./internal/lrs/...

verify: build vet test race lrs-bench-once
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# Performance trajectory: emit machine-readable BENCH_<scenario>.json
# snapshots (schema pprox-bench/1) for the batch and cache scenarios into
# bench/. Each snapshot carries goodput trials with min/median/max spread,
# latency and per-stage quantiles, UA crossings and LRS gets per request,
# allocs/op micro-benchmarks, and the privacy/perf-SLO verdicts. The
# batch scenario (and so its committed baseline) runs with the hopwire
# frame transport on both hops; its full_path_get/batch_marshal allocs
# gate the transport's trajectory.
bench-json:
	$(GO) run ./cmd/pprox-bench -quick -out bench batch
	$(GO) run ./cmd/pprox-bench -quick -out bench cache
	$(GO) run ./cmd/pprox-bench -quick -out bench lrs10x

# Gate the fresh snapshots against the committed baselines. Exit 3 on a
# regression; timing checks are skipped automatically when either run's
# trial spread marks the host as noisy, but the host-independent checks
# (SLO verdicts, crossings/request, LRS gets/request, allocs/op) always
# apply. Refresh the baselines by copying bench/BENCH_*.json over
# bench/baselines/ in the PR that intentionally moves the numbers.
bench-compare: bench-json
	$(GO) run ./cmd/pprox-bench compare bench/baselines/BENCH_batch.json bench/BENCH_batch.json
	$(GO) run ./cmd/pprox-bench compare bench/baselines/BENCH_cache.json bench/BENCH_cache.json
	$(GO) run ./cmd/pprox-bench compare bench/baselines/BENCH_lrs10x.json bench/BENCH_lrs10x.json

# Privacy-SLO smoke test: boot an in-process cluster, inject one
# under-filled shuffle epoch, and fail unless the auditor reports the
# violation. Writes the /privacy report to audit-report.json.
audit-smoke:
	$(GO) run ./cmd/pprox-audit -smoke -out audit-report.json

# Recommendation-cache smoke test: run the pprox-bench cache scenario
# (Zipf get stream, cache off vs on). The scenario exits non-zero unless
# the hit rate is positive, the privacy auditor stays ok, and the cached
# run sends fewer gets to the LRS than the uncached one. Output is kept
# in cache-smoke.txt for CI artifact upload.
cache-smoke:
	$(GO) run ./cmd/pprox-bench -quick cache | tee cache-smoke.txt

# Request-pipeline smoke test: run the pprox-bench batch scenario (S=32
# get epochs). The scenario exits non-zero unless the epoch pipeline
# collapses UA enclave crossings to ≤ 2/S + ε per request, no request
# fails, and the privacy auditor stays ok on every trial; throughput is
# printed for information (it moves with host noise on small hosts).
# Output is kept in batch-smoke.txt for CI artifact upload.
batch-smoke:
	$(GO) run ./cmd/pprox-bench -quick batch | tee batch-smoke.txt

# LRS-scale smoke test: run the pprox-bench lrs10x scenario — the
# sharded, WAL-backed LRS with incremental CCO maintenance at 10× the
# paper's MovieLens cardinalities. The scenario exits non-zero unless the
# per-event incremental apply is ≥10× cheaper than a full TrainNow, the
# online model recommends exactly what the batch twin does, a WAL shard
# torn mid-append replays to the twin's state, and the full private path
# carries the workload with a clean privacy audit. Also emits
# bench/BENCH_lrs10x.json; output is kept in lrs-smoke.txt for CI
# artifact upload.
lrs-smoke:
	$(GO) run ./cmd/pprox-bench -quick -out bench lrs10x | tee lrs-smoke.txt

# Fleet telemetry smoke test: deploy an in-process hopwire cluster with a
# pprox-ops collector, drive traffic, and fail unless every node reports
# fresh with sane rollups (merged stage quantiles, goodput, anonymity
# watermark, no build skew), then kill one node and fail unless the
# collector marks exactly it stale. Writes the /fleet report to
# fleet.json for CI artifact upload.
ops-smoke:
	$(GO) run ./cmd/pprox-ops -smoke -out fleet.json

# Elastic fleet smoke test: deploy an in-process cluster with the live
# route registry and the autoscale reconciler, ramp request load up
# (a UA/IA pair is spawned and admitted at the next shuffle-epoch
# boundary) then down (the extra pair drains its final epoch whole and
# deregisters), and fail unless the privacy audit stays ok through both
# transitions and fleet goodput recovers on the remaining pair. Writes
# the final /fleet report to fleet.json for CI artifact upload.
scale-smoke:
	$(GO) run ./cmd/pprox-ops -scale-smoke -out fleet.json

clean:
	rm -rf bin
	rm -f bench/BENCH_*.json
