#!/bin/sh
# Usage: scripts/linedelta.sh <base-ref>
#
# Prints the Go line delta of the working tree against <base-ref> (as in
# `git diff <base-ref>`): lines added, removed, and net, with non-test
# files and _test.go files counted apart. A new file counts once git
# tracks it (`git add`, or `git add -N` to count it unstaged).
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 <base-ref>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
git diff --no-renames --numstat "$1" -- '*.go' | awk '
	{ t = $3 ~ /_test\.go$/ ? "test" : "non-test"; add[t] += $1; del[t] += $2 }
	END {
		split("non-test test", ts, " ")
		for (i = 1; i <= 2; i++) {
			t = ts[i]
			printf "%-8s  +%d  -%d  net %+d\n", t, add[t], del[t], add[t] - del[t]
		}
	}'
