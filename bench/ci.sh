#!/usr/bin/env bash
# CI smoke for the benchmark, for .github/workflows/ci.yml to call (this
# directory is a module of its own, so the root `go test ./...` does not
# reach it): build, vet, the harness self-tests, and a 3-second window of
# every workload, untraced and traced, with answer checking only.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

test -z "$(gofmt -l .)"
go vet ./...
go test ./...
bin=$(mktemp -d)/lerabench
go build -o "$bin" .
for trace in 0 1; do
	"$bin" -all -smoke -seconds 3 -trace "$trace"
done
rm -rf "$(dirname "$bin")"
