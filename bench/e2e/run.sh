#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments (see bench/e2e/README.md).  Works from any directory; the
# benchmark itself runs from the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
