#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (see README.md). Everything the build writes stays
# under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$build/benchsuite" .

# Stamp the commit when the checkout is a git work tree of its own.
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$build/benchsuite" -root "$root" -commit "$commit" "$@"
