#!/bin/sh
# size prints four counts of the Go tree under the current directory, the
# figures a change's description quotes when it grows or shrinks the code:
# non-test Go lines outside benchmark/, all Go lines, time.Sleep( calls in
# test files, and Fuzz* targets. It reports; it gates nothing.
#
#	sh scripts/size.sh
set -eu

gofiles() {
	find . -path ./.git -prune -o -name '*.go' -type f -print
}

nontest=$(gofiles | grep -v '_test\.go$' | grep -v '^\./benchmark/' | xargs cat | wc -l | tr -d ' ')
all=$(gofiles | xargs cat | wc -l | tr -d ' ')
sleeps=$(gofiles | grep '_test\.go$' | xargs cat | grep -o 'time\.Sleep(' | wc -l | tr -d ' ')
fuzz=$(gofiles | grep '_test\.go$' | xargs cat | grep -c '^func Fuzz[A-Z0-9_]' || true)

echo "non-test Go lines outside benchmark/: $nontest"
echo "all Go lines: $all"
echo "time.Sleep( calls in _test.go files: $sleeps"
echo "Fuzz targets: $fuzz"
