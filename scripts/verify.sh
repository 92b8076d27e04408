#!/usr/bin/env bash
# Repo verification: tier-1 test suite + the fast benchmark tier.
#
#   scripts/verify.sh                   tier-1 tests, then benchmarks -m "not slow"
#   scripts/verify.sh --tier1-only      tier-1 tests only (the CI matrix legs)
#   scripts/verify.sh --fast            alias of --tier1-only
#   scripts/verify.sh --benchmarks-only fast benchmark tier only (CI runs this
#                                       after the tier-1 matrix has gated)
#
# Tier 1 is the full default pytest run (the bar every PR must keep green),
# followed by the CLI smoke (with its same-spec-same-fingerprint determinism
# gate), the serve/cluster/lifecycle smokes, one short traced run of the bench/ harness
# (its per-layer probes call MicroBatcher/ScoringSession directly, so a
# constructor change breaks it before any test notices) and the docs leg
# (runnable docstring examples via --doctest-modules, plus the Markdown link
# checker).
# The benchmark tier regenerates the paper's tables at reproduction scale
# and takes a few minutes; the "slow" marker gates the long scaling sweeps.
#
# CI-safe: strict mode, no interactive assumptions, and any tier failing
# fails the script (set -e propagates the benchmark tier's exit status too).

set -euo pipefail

mode="${1:-}"
case "$mode" in
    ""|--tier1-only|--fast|--benchmarks-only) ;;
    *)
        echo "usage: scripts/verify.sh [--tier1-only|--fast|--benchmarks-only]" >&2
        exit 2
        ;;
esac

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "$mode" != "--benchmarks-only" ]]; then
    echo "== tier 1: full test suite =="
    python -m pytest -x -q

    echo
    echo "== CLI smoke: train --fast -> quantize -> package -> stream -> bench =="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    python -m repro train --fast --workdir "$smoke_dir" >/dev/null
    python -m repro quantize --workdir "$smoke_dir" >/dev/null
    python -m repro package --workdir "$smoke_dir" >/dev/null
    python -m repro stream --workdir "$smoke_dir" >/dev/null
    python -m repro bench --workdir "$smoke_dir" >/dev/null
    # Determinism gate: the same spec, trained and packaged twice, must give
    # the same artifact fingerprint.
    for run in a b; do
        python -m repro train --fast --workdir "$smoke_dir/determinism-$run" >/dev/null
        python -m repro package --workdir "$smoke_dir/determinism-$run" >/dev/null
    done
    diff "$smoke_dir/determinism-a/package.fingerprint" \
        "$smoke_dir/determinism-b/package.fingerprint"
    echo "CLI smoke: OK"

    echo
    echo "== serve smoke: package -> repro serve -> alarm over each transport/protocol =="
    python scripts/serve_smoke.py >/dev/null
    echo "serve smoke: OK"

    echo
    echo "== cluster smoke: repro serve --workers 2, two tenants, worker kill =="
    python scripts/cluster_smoke.py >/dev/null
    echo "cluster smoke: OK"

    echo
    echo "== lifecycle smoke: canary -> gated promote -> hot-swap -> watcher rollback =="
    python scripts/lifecycle_smoke.py >/dev/null
    echo "lifecycle smoke: OK"

    echo
    echo "== traced benchmark smoke: per-layer harness drives batcher/session directly =="
    python3 bench/run.py --workload fleet_binary --quick --seconds 0.5 --trace 1 >/dev/null
    python3 bench/run.py --workload paced_alarm --quick --seconds 0.5 --trace 1 >/dev/null
    echo "traced benchmark smoke: OK"

    echo
    echo "== docs: runnable docstring examples + Markdown links =="
    python -m pytest --doctest-modules src/repro/nn src/repro/obs src/repro/serve src/repro/cluster -q
    python scripts/check_links.py
fi

if [[ "$mode" != "--tier1-only" && "$mode" != "--fast" ]]; then
    echo
    echo '== benchmarks (-m "not slow") =='
    # bench_*.py files must be named explicitly: pytest's default collection
    # pattern (test_*.py) deliberately keeps them out of the tier-1 run.
    python -m pytest benchmarks/bench_*.py -m "not slow" -q
fi

echo
echo "verify: OK"
