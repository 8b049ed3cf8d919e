# Tier-1 verification: build, vet, tests, race tests — the gate every
# change must pass. `make verify` additionally runs staticcheck when it
# is installed, and skips it (loudly) when it is not, so the target works
# in offline containers without tool downloads.

GO ?= go

.PHONY: all build vet test race lrs-bench-once ia-bench-once crypto-bench-once verify tcp-smoke lrs-restart-smoke size bench clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The LRS post and get paths' cost benchmarks, the Refresh that rebuilds
# its index, the event store's insert and lookup, and the popularity
# ranking's re-rank and top-n read, one iteration each:
# they are the only place its per-event, per-get and per-refresh costs
# are priced, so they must keep running.
lrs-bench-once:
	$(GO) test -run '^$$' -bench 'Incremental|SetField|Search|Recommend|Refresh|ShardedLog|Ranking|PopularItems' -benchtime 1x ./internal/lrs/...

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
# returns 20 items, the UA's /metrics shows hopwire exchanges, the IA's
# none, and the stub counts the get and the post — the shipped binaries
# speak frames UA→IA and plain REST IA→LRS.
tcp-smoke:
	GO=$(GO) sh scripts/tcp-smoke.sh

# Real-binary restart of pprox-lrs with both -wal-dir and -snapshot: one
# post, SIGTERM, the same command again. Fails unless the restart serves
# and /metrics reads pprox_lrs_events 1.
lrs-restart-smoke:
	GO=$(GO) sh scripts/lrs-restart-smoke.sh

# Code-size counts a change quotes: non-test Go lines outside benchmark/,
# all Go lines, time.Sleep( calls in tests, Fuzz targets. Not a gate.
size:
	sh scripts/size.sh

bench:
	$(GO) test -bench=. -benchmem .

clean:
	rm -rf bin
