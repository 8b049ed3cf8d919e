#!/bin/sh
# lrs-restart-smoke runs the real pprox-lrs binary with both -wal-dir and
# -snapshot, posts one event, stops it with SIGTERM (which writes the
# snapshot) and starts it again with the same flags. It fails unless the
# first run exits cleanly, the restarted LRS becomes healthy and answers a
# get, and its /metrics shows pprox_lrs_events at 1: the WAL brought the
# event back and the snapshot was not restored on top of it.
#
#	GO=go sh scripts/lrs-restart-smoke.sh
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "lrs-restart-smoke: $*" >&2
	tail -n 20 "$dir/log" >&2 || true
	exit 1
}

lrs=127.0.0.1:18190

# start runs pprox-lrs in the background with the flags under test, its
# log appended to $dir/log, and waits up to 10 s for /healthz to answer
# 200; it fails if the process exits first.
start() {
	"$dir/bin/pprox-lrs" -listen $lrs -train-every 0 -wal-dir "$dir/wal" -snapshot "$dir/lrs.snap" 2>>"$dir/log" &
	lrs_pid=$!
	pids="$pids $lrs_pid"
	for _ in $(seq 100); do
		curl -sf -o /dev/null "http://$lrs/healthz" && return 0
		kill -0 $lrs_pid 2>/dev/null || fail "pprox-lrs exited at start-up"
		sleep 0.1
	done
	fail "pprox-lrs never became healthy"
}

$GO build -o "$dir/bin/" ./cmd/pprox-lrs

start
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"user":"alice","item":"item-1","idem":"smoke-1"}' http://$lrs/events)
[ "$code" = 200 ] || fail "post answered $code"
kill -TERM $lrs_pid
wait $lrs_pid || fail "the first run exited $? on SIGTERM"
[ -s "$dir/lrs.snap" ] || fail "SIGTERM wrote no snapshot"

start
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"user":"alice"}' http://$lrs/queries)
[ "$code" = 200 ] || fail "the restarted LRS answered a get with $code"
events=$(curl -s http://$lrs/metrics | awk '/^pprox_lrs_events / {print $2}')
[ "${events:-none}" = 1 ] || fail "the restarted LRS holds ${events:-no} events, want 1"
kill -TERM $lrs_pid
wait $lrs_pid || fail "the restarted LRS exited $? on SIGTERM"
echo "lrs-restart-smoke: post 200, clean SIGTERM, restart with -wal-dir and -snapshot healthy, get 200, pprox_lrs_events $events"
