#!/usr/bin/env bash
# Static-analysis gate: gofmt, go vet, the repo's own rvlint analyzers
# (determinism + invariant passes) run through the real vet -vettool
# protocol, and — when the tools are installed — staticcheck and
# govulncheck. Any finding fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "unformatted files:"
  echo "$out"
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== rvlint (go vet -vettool) =="
mkdir -p bin
go build -o bin/rvlint ./cmd/rvlint
go vet -vettool="$PWD/bin/rvlint" ./...

# The executor's per-instruction path must not heap-allocate: a local
# whose address reaches a handler or a Hook is moved to the heap on every
# step. TestRunAllocFree says that the path allocates; this names the
# line. cache.go's one-time DecodeCache.Clone escape is allowed.
echo "== escape analysis (internal/exec hot path) =="
esc=$(go build -gcflags=-m ./internal/exec 2>&1 | grep -E '/(exec|handlers)\.go:[0-9]+:[0-9]+: moved to heap' || true)
if [ -n "$esc" ]; then
  echo "heap escapes on the execution hot path:"
  echo "$esc"
  exit 1
fi

# The coverage hook runs on every hooked instruction, so the same rule
# holds for the collector, the map and the compiled rule tables;
# TestCollectorAllocFree is the behavioural pin.
echo "== escape analysis (internal/coverage hot path) =="
esc=$(go build -gcflags=-m ./internal/coverage 2>&1 | grep -E '/(collector|map|rules)\.go:[0-9]+:[0-9]+: moved to heap' || true)
if [ -n "$esc" ]; then
  echo "heap escapes on the coverage hot path:"
  echo "$esc"
  exit 1
fi

# Optional gates: run when installed (CI installs them; offline dev
# boxes may not have them).
if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck =="
  staticcheck ./...
else
  echo "== staticcheck: not installed, skipping =="
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck =="
  govulncheck ./...
else
  echo "== govulncheck: not installed, skipping =="
fi

echo "lint: all gates passed"
