#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the Go toolchain writes — the binary, its build and module
# caches, its temporary files and its telemetry counters — is pointed
# under .bench_build in the checkout, so a checkout is measured with
# nothing but its own files and the installed toolchain, and leaves
# nothing outside itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# -buildvcs=false: a checkout need not be a git repository, nor sit in one.
go build -C "$here" -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" "$@"
