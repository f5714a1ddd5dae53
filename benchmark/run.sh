#!/bin/bash
# Builds and runs the benchmark; run it from the repository root, e.g.
#   bash benchmark/run.sh --workload mixed --seed 1 --seconds 24 --trace 0
# Falls back to the opam switch's environment when dune is not on PATH.
# The shared dune cache is off so that the build writes only under _build.
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet benchmark/main.exe -- "$@"
