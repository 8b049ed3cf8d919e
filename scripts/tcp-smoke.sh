#!/bin/sh
# tcp-smoke runs the real binaries on localhost: pprox-keygen, the stub LRS
# serving items pseudonymized under the IA key, an IA and a UA pprox-proxy
# and the sidecar. It sends one get and one post through the sidecar with
# curl and fails unless both answer 200, the get returns 20 items, the UA
# forwarded in hopwire frames (exchanges > 0), the IA made no frame
# exchange, and the stub counted the one get and the one post, which it
# can only have taken over HTTP: the IA reaches the LRS through its REST API.
# pprox-ops top -once then scrapes the UA, the IA and the stub and must
# exit 0 with one row per node, the UA's at epoch 1 or later. Then it
# stops the UA with SIGTERM and fails unless the UA logs a clean drain,
# its -trace-log holds epochs 1 and 2 of one request each, and the serve
# counts of all its records, Close's final one included, sum to the two
# requests.
#
#	GO=go sh scripts/tcp-smoke.sh
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
	echo "tcp-smoke: $*" >&2
	tail -n 20 "$dir/log" >&2 || true
	exit 1
}

# start runs one binary in the background, its log appended to $dir/log.
start() {
	"$@" 2>>"$dir/log" &
	pids="$pids $!"
}

# healthy waits up to 10 s for the node at $1 to answer /healthz with 200.
healthy() {
	for _ in $(seq 100); do
		curl -sf -o /dev/null "http://$1/healthz" && return 0
		sleep 0.1
	done
	fail "$1 never became healthy"
}

$GO build -o "$dir/bin/" ./cmd/pprox-keygen ./cmd/pprox-stub ./cmd/pprox-proxy ./cmd/pprox-sidecar ./cmd/pprox-ops
"$dir/bin/pprox-keygen" -out "$dir/keys" >/dev/null

stub=127.0.0.1:18180 ia=127.0.0.1:18181 ua=127.0.0.1:18182 sidecar=127.0.0.1:18183
start "$dir/bin/pprox-stub" -listen $stub -pseudonymize-with "$dir/keys/keys.json"
healthy $stub
start "$dir/bin/pprox-proxy" -role ia -listen $ia -next http://$stub -keys "$dir/keys/keys.json"
healthy $ia
start "$dir/bin/pprox-proxy" -role ua -listen $ua -next http://$ia -keys "$dir/keys/keys.json" -trace-log "$dir/ua.epochs"
ua_pid=$!
healthy $ua
start "$dir/bin/pprox-sidecar" -listen $sidecar -target http://$ua -bundle "$dir/keys/bundle.json"
healthy $sidecar

code=$(curl -s -o "$dir/get.json" -w '%{http_code}' -d '{"user":"alice"}' http://$sidecar/queries)
[ "$code" = 200 ] || fail "get answered $code"
items=$(grep -o '"stub-item-[0-9]*"' "$dir/get.json" | wc -l)
[ "$items" -eq 20 ] || fail "get returned $items items, want 20: $(cat "$dir/get.json")"

code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"user":"alice","item":"stub-item-0001"}' http://$sidecar/events)
[ "$code" = 200 ] || fail "post answered $code"

curl -s http://$ua/metrics >"$dir/ua.metrics"
curl -s http://$ia/metrics >"$dir/ia.metrics"
curl -s http://$stub/metrics >"$dir/stub.metrics"
exchanges=$(awk '/^pprox_hopwire_exchanges_total/ {print $2}' "$dir/ua.metrics")
[ "${exchanges:-0}" -gt 0 ] || fail "the UA completed no hopwire exchange"
ia_exchanges=$(awk '/^pprox_hopwire_exchanges_total/ {n += $2} END {print n + 0}' "$dir/ia.metrics")
[ "$ia_exchanges" = 0 ] || fail "the IA completed $ia_exchanges hopwire exchanges, want none"
stub_gets=$(awk '/^pprox_stub_gets_total/ {print $2}' "$dir/stub.metrics")
stub_posts=$(awk '/^pprox_stub_posts_total/ {print $2}' "$dir/stub.metrics")
[ "${stub_gets:-0}" = 1 ] && [ "${stub_posts:-0}" = 1 ] ||
	fail "the stub served ${stub_gets:-no} gets and ${stub_posts:-no} posts over HTTP, want 1 and 1"

"$dir/bin/pprox-ops" top -once -interval 200ms -targets http://$ua,http://$ia,http://$stub >"$dir/top" 2>>"$dir/log" ||
	fail "pprox-ops top -once exited $?: $(cat "$dir/top")"
rows=$(awk '$1 == "NODE" {table = 1; next} table && NF == 0 {table = 0} table' "$dir/top" | wc -l)
[ "$rows" -eq 3 ] || fail "top shows $rows node rows, want 3: $(cat "$dir/top")"
ua_epoch=$(awk '$1 == "ua" && $2 == "ua" && $3 == "up" {print $4}' "$dir/top")
[ "${ua_epoch:-0}" -ge 1 ] || fail "top shows the UA at epoch ${ua_epoch:-none}, want ≥ 1: $(cat "$dir/top")"

kill -TERM $ua_pid
wait $ua_pid || fail "the UA exited $? on SIGTERM"
drained=$(grep '"msg":"drain complete"' "$dir/log" | grep '"node":"ua"' || true)
echo "$drained" | grep -q '"clean":true,"sheds":0' || fail "the UA logged no clean drain on SIGTERM: ${drained:-none}"
for e in 1 2; do
	grep -q "\"epoch\":$e,\"batch\":1," "$dir/ua.epochs" || fail "no record of epoch $e with batch 1: $(cat "$dir/ua.epochs")"
done
serves=$(grep -o '"serve":{[^}]*}' "$dir/ua.epochs" | grep -o ':[0-9][0-9]*' | tr -d : | awk '{n += $1} END {print n + 0}')
[ "$serves" -eq 2 ] || fail "the UA's records count $serves serves, want 2: $(cat "$dir/ua.epochs")"
echo "tcp-smoke: get 200 with $items items, post 200, UA hopwire exchanges $exchanges, IA none, stub HTTP gets $stub_gets posts $stub_posts, top: $rows nodes with the UA at epoch $ua_epoch, clean drain, $(wc -l <"$dir/ua.epochs") epoch records with $serves serves"
