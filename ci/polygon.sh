#!/usr/bin/env bash
# Extend and verify a 50-gon, then four refusals that each exit 1 without a
# traceback: 4,001 points whose last two coincide, a pentagram walk (it winds
# twice), and the heptagon's formulation against a 1,000-gon (the shape test
# refuses it before the slack matrix is built).  Needs `exactnmf` and
# `python` on PATH; writes its files under $RUNNER_TEMP.
set -euo pipefail
tmp="${RUNNER_TEMP:?RUNNER_TEMP must name a scratch directory}"
data="$(cd "$(dirname "$0")/../tests/data" && pwd)"

# refuse NAME PATTERN COMMAND...: COMMAND exits 1, its stderr or stdout
# matches PATTERN, and no traceback escapes.
refuse() {
  local name=$1 pattern=$2
  shift 2
  set +e
  "$@" > "$tmp/$name.out" 2> "$tmp/$name.err"
  local code=$?
  set -e
  cat "$tmp/$name.out" "$tmp/$name.err"
  test "$code" -eq 1
  grep -q "$pattern" "$tmp/$name.out" "$tmp/$name.err"
  if grep -q Traceback "$tmp/$name.err"; then return 1; fi
}

python -c "from exactnmf.generate import random_convex_polygon; from exactnmf.rng import SplitMix64; from exactnmf.serialize import dumps, polygon_to_jsonable; print(dumps(polygon_to_jsonable(random_convex_polygon(SplitMix64(7919), 50))), end='')" > "$tmp/p50.json"
exactnmf extend --input "$tmp/p50.json" --output "$tmp/p50_formulation.json"
exactnmf verify --input "$tmp/p50.json" --cert "$tmp/p50_formulation.json"

python -c "import json; print(json.dumps({'vertices': [[str(i), str(i * i)] for i in range(4000)] + [['3999', str(3999 ** 2)]]}))" > "$tmp/duplicate.json"
refuse duplicate coincide exactnmf extend --input "$tmp/duplicate.json" --output "$tmp/duplicate_formulation.json"

echo '{"vertices": [["0", "10"], ["6", "-8"], ["-9", "3"], ["9", "3"], ["-6", "-8"]]}' > "$tmp/pentagram.json"
refuse pentagram "winds 2 times" exactnmf extend --input "$tmp/pentagram.json" --output "$tmp/pentagram_formulation.json"

python -c "import json; print(json.dumps({'vertices': [[str(i), str(i * i)] for i in range(999)] + [['500', str(10 ** 7)]]}))" > "$tmp/p1000.json"
refuse wrong_shape "shape mismatch" exactnmf verify --input "$tmp/p1000.json" --cert "$data/h7_formulation_pre_compact.json"
