# Tier-1 verification: build, vet, tests, race tests — the gate every
# change must pass. `make verify` additionally runs staticcheck when it
# is installed, and skips it (loudly) when it is not, so the target works
# in offline containers without tool downloads.

GO ?= go

.PHONY: all build vet test race lrs-bench-once ia-bench-once crypto-bench-once verify tcp-smoke bench audit-smoke ops-smoke scale-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The LRS post and get paths' cost benchmarks and the event store's
# insert and lookup, one iteration each: they are the only place its
# per-event and per-get costs are priced, so they must keep running.
lrs-bench-once:
	$(GO) test -run '^$$' -bench 'Incremental|SetField|Search|Recommend|ShardedLog' -benchtime 1x ./internal/lrs/...

# The IA enclave's get path (ia/get + ia/get-response on a 20-item
# reply), one iteration per key material, so the benchmark keeps building
# and running; its allocation ceilings are tests (handlers_test.go).
ia-bench-once:
	$(GO) test -run '^$$' -bench 'IAGetPath' -benchtime 1x ./internal/proxy/

# The client's and the UA enclave's field crypto (box seal/open, a get's
# two sealed fields, the UA's get ECALL), one iteration each per key
# material, so the root package's crypto benchmarks keep building and
# running.
crypto-bench-once:
	$(GO) test -run '^$$' -bench 'Crypto_Box|Client_Seal|Enclave_UAGetEcall' -benchtime 1x .

verify: build vet test race lrs-bench-once ia-bench-once crypto-bench-once
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Real-binary smoke test over localhost TCP: pprox-keygen, pprox-stub
# -pseudonymize-with, pprox-proxy for the IA and the UA, and pprox-sidecar;
# one get and one post with curl. Fails unless both answer 200, the get
# returns 20 items, and the UA's /metrics shows hopwire exchanges and no
# HTTP fallback — the shipped binaries speak frames between hops.
tcp-smoke:
	GO=$(GO) sh scripts/tcp-smoke.sh

bench:
	$(GO) test -bench=. -benchmem .

# Privacy-SLO smoke test: boot an in-process cluster, inject one
# under-filled shuffle epoch, and fail unless the auditor reports the
# violation. Writes the /privacy report to audit-report.json.
audit-smoke:
	$(GO) run ./cmd/pprox-audit -smoke -out audit-report.json

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
# the final /fleet report to scale-fleet.json for CI artifact upload.
scale-smoke:
	$(GO) run ./cmd/pprox-ops -scale-smoke -out scale-fleet.json

clean:
	rm -rf bin
