#!/usr/bin/env bash
# Usage: scripts/abpair.sh <base-ref> <workload> [pairs] [seed]
#
# Paired A/B runs of the repository benchmark. Exports <base-ref> (with
# `git archive`) and the working tree as it stands (tracked and untracked
# files, ignored ones left out) into two directories under one temporary
# directory, builds each side's benchsuite with its own
# benchsuite/run.sh, then runs `pairs` (default 10) pairs of the given
# workload (figures, traffic or serve) at `seed` (default 1), with the
# command and run length BENCHMARK.json declares. Odd pairs run base
# first, even pairs head first. For each end-to-end metric it prints each
# side's median, first and third quartile (linear interpolation), and how
# many pairs head won in the metric's better direction (ties count for
# neither), plus the failed-op totals. The exports keep the repository's
# own .git untouched, and the temporary directory is removed on exit.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs] [seed]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

base_sha=$(git rev-parse --verify "$base_ref^{commit}")
cmd=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
secs=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# name better, one per end-to-end metric.
dirs=$(sed -n 's/.*{"name": *"\([a-z_]*\)".*"better": *"\([a-z]*\)".*"bound".*/\1 \2/p' BENCHMARK.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/head" "$tmp/out"
git archive "$base_sha" | tar -x -C "$tmp/base"
git ls-files -z --cached --others --exclude-standard | tar -c --null --ignore-failed-read -T - 2> /dev/null | tar -x -C "$tmp/head"

echo "base $base_sha, head working tree, workload $workload, seed $seed, $pairs pairs of ${secs}s"
echo "nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset} (benchsuite sets it to its CPU count)"
for side in base head; do
	# run.sh builds before it parses flags; -h then exits without running.
	(cd "$tmp/$side" && bash benchsuite/run.sh -h > /dev/null 2>&1) || true
done

run() { # $1 side, $2 pair index
	local out="$tmp/out/$1.$2"
	(cd "$tmp/$1" && $cmd -workload "$workload" -seconds "$secs" -seed "$seed") > "$out" 2> "$out.err" ||
		echo "$1 pair $2 exited $? (see below)" >&2
	printf '%s pair %s: gomaxprocs %s, %s ops attempted, %s failed\n' "$1" "$2" \
		"$(sed -n 's/^stamp .*"gomaxprocs":\([0-9]*\).*/\1/p' "$out")" \
		"$(sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' "$out")" \
		"$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$out")"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
done

printf '%-18s %-6s %12s %12s %12s %12s %12s %12s %s\n' metric better \
	base_q1 base_med base_q3 head_q1 head_med head_q3 "head wins"
echo "$dirs" | while read -r name better; do
	[ -n "$name" ] || continue
	for i in $(seq 1 "$pairs"); do
		b=$(awk -v m="$name" '$1 == m {print $2}' "$tmp/out/base.$i")
		h=$(awk -v m="$name" '$1 == m {print $2}' "$tmp/out/head.$i")
		echo "${b:-nan} ${h:-nan}"
	done | awk -v name="$name" -v better="$better" '
		function q(a, n, p,   x, i, f) {
			x = p * (n - 1); i = int(x); f = x - i
			return i + 1 < n ? a[i] + f * (a[i + 1] - a[i]) : a[i]
		}
		function sort(a, n,   i, j, t) {
			for (i = 1; i < n; i++)
				for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		$1 != "nan" && $2 != "nan" {
			b[n] = $1; h[n] = $2; n++
			if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
		}
		END {
			if (n == 0) { printf "%-18s %-6s no readings\n", name, better; exit }
			sort(b, n); sort(h, n)
			printf "%-18s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %d/%d\n", name, better,
				q(b, n, 0.25), q(b, n, 0.5), q(b, n, 0.75), q(h, n, 0.25), q(h, n, 0.5), q(h, n, 0.75), wins, n
		}'
done
for side in base head; do
	failed=$(cat "$tmp"/out/"$side".[0-9]* | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' | awk '{s += $1} END {print s + 0}')
	echo "$side failed ops: $failed"
	cat "$tmp"/out/"$side".*.err | grep -v '^$' | sed "s/^/$side stderr: /" || true
done
