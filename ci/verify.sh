#!/usr/bin/env bash
# Files written before compact certificates still verify: the heptagon
# certificate and formulation kept in tests/data, whose bytes predate the
# compact writers.  Then the pre-compact formulation with one lift entry
# negated: verify names the failure and exits 1, and nothing escapes as a
# traceback.  Needs `exactnmf` on PATH; writes its files under $RUNNER_TEMP.
set -euo pipefail
tmp="${RUNNER_TEMP:?RUNNER_TEMP must name a scratch directory}"
data="$(cd "$(dirname "$0")/../tests/data" && pwd)"

exactnmf verify --input "$data/h7_slack.json" --cert "$data/h7_certificate_pre_compact.json"
exactnmf verify --input "$data/h7_polygon.json" --cert "$data/h7_formulation_pre_compact.json"

set +e
exactnmf verify --input "$data/h7_polygon.json" --cert "$data/h7_formulation_negative_lift.json" \
  > "$tmp/negative_lift.out" 2> "$tmp/negative_lift.err"
code=$?
set -e
cat "$tmp/negative_lift.out" "$tmp/negative_lift.err"
test "$code" -eq 1
if grep -q Traceback "$tmp/negative_lift.err"; then exit 1; fi
