#!/usr/bin/env bash
# Builds the site benchmark and runs it with the given arguments, from the
# root of a checkout. Everything the build writes (the binary, Go's build
# cache, its temporary files, its per-user state) stays in .bench_build
# inside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
bin="$build/sitebench"
mkdir -p "$build/tmp" "$build/home"

stale() {
	[ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}

if stale; then
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= \
		go build -C bench -o "$bin" .
fi
exec "$bin" "$@"
