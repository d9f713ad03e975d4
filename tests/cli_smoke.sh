#!/usr/bin/env bash
# CLI smoke checks through the installed `coverdiam` entry point.
# Run from the root of a checkout: bash tests/cli_smoke.sh
# Any failing command or check exits nonzero.
set -euo pipefail

CHECK_DERIVE=$(cat <<'PY'
import json, sys
r = json.load(sys.stdin)
want = (json.loads(sys.argv[1]), json.loads(sys.argv[2]))
if (r["connected"], r["orbits"]) != want:
    sys.exit(f"cover derive: connected {r['connected']}, orbits {r['orbits']}; expected {want}")
PY
)
CHECK_DEFAULT_LEVEL=$(cat <<'PY'
import json, sys
rows = [(r["level"], r["status"]) for r in json.load(sys.stdin)["rows"]]
if rows != [(6, "PASS")]:
    sys.exit(f"ucover verify-bound with no level option: rows {rows}; expected [(6, 'PASS')]")
PY
)
CHECK_POINT=$(cat <<'PY'
import json, sys
rows = [(r["level"], r["status"], r["ratio"], r["corrected_ratio"]) for r in json.load(sys.stdin)["rows"]]
if rows != [(6, "PASS", None, None)]:
    sys.exit(f"ucover verify-bound on one vertex: rows {rows}; expected [(6, 'PASS', None, None)]")
PY
)
CHECK_ROW=$(cat <<'PY'
import json, sys
r, want = json.load(sys.stdin), json.loads(sys.argv[1])
if {k: r[k] for k in want} != want:
    sys.exit(f"row {r}; expected {want}")
PY
)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# universal covers
coverdiam ucover verify-bound --complex src/coverdiam/data/rp2_complex.json --levels 3,4,6
coverdiam ucover nerve --complex src/coverdiam/data/rp2_complex.json --level 4
# a renumbered order-5 plane once made coset enumeration run for minutes: a hang fails here
timeout 60 coverdiam ucover build --complex tests/data/plane5_relabelled.json
# the 5-sheet deck-reduced distances, and a nerve read from them
timeout 60 coverdiam ucover verify-bound --complex tests/data/plane5_relabelled.json --levels 1,2
coverdiam ucover nerve --complex tests/data/plane5_relabelled.json --level 1 --epsilon 1
# a one-vertex complex: d_base = 0, so the row passes with no ratio, and exits 0
echo '{"vertices": ["a"]}' > "$scratch/point.json"
coverdiam ucover verify-bound --complex "$scratch/point.json" \
  | python -c "$CHECK_POINT"

# metric graphs and voltage covers
coverdiam diam --graph src/coverdiam/data/unit_triangle.json
coverdiam cover verify-bound --graph src/coverdiam/data/figure_eight.json --voltage src/coverdiam/data/figure_eight_voltage.json
# edge records built on demand, and sheet orbits from the component roots
coverdiam cover derive --graph src/coverdiam/data/figure_eight.json --voltage src/coverdiam/data/figure_eight_voltage.json \
  | python -c "$CHECK_DERIVE" true '[[0, 1]]'
coverdiam cover derive --graph src/coverdiam/data/figure_eight.json --voltage tests/data/figure_eight_voltage_two_orbits.json \
  | python -c "$CHECK_DERIVE" false '[[0, 1], [2, 3]]'
echo '{"legs": [{"edge": "a@0", "start": 0.0, "end": 1.0}, {"edge": "a@1", "start": 0.0, "end": 1.0}, {"edge": "b@0", "start": 0.0, "end": 1.0}, {"edge": "b@0", "start": 0.0, "end": 1.0}]}' > "$scratch/route.json"
coverdiam cover shorten --graph src/coverdiam/data/figure_eight.json --voltage src/coverdiam/data/figure_eight_voltage.json --route "$scratch/route.json"
coverdiam sweep cover --count 20 --out /dev/null

# groups
# every enumeration is capped in definitions: one that loops fails here in a minute
timeout 60 coverdiam cayley zoo --out /dev/null
# a presentation file: its order, and the cap's verdict on its flag filling
coverdiam groups enumerate --presentation tests/data/s3_presentation.json \
  | python -c "$CHECK_ROW" '{"order": 6}'
coverdiam cayley verify --presentation tests/data/s3_presentation.json --gens 0,1 \
  | python -c "$CHECK_ROW" '{"order": 6, "diam": 3, "verdict": "hypothesis_failed"}'

# exit codes
# an empty complex is a user error: exit 1 with an Error line, no traceback
echo '{"vertices": [], "triangles": []}' > "$scratch/empty.json"
status=0
coverdiam ucover build --complex "$scratch/empty.json" 2> "$scratch/empty.err" || status=$?
test "$status" -eq 1
grep -q '^Error: ValueError' "$scratch/empty.err"
if grep -q Traceback "$scratch/empty.err"; then exit 1; fi
# a nonpositive level is a usage error: exit 2
status=0
coverdiam ucover verify-bound --complex src/coverdiam/data/rp2_complex.json --levels 0 || status=$?
test "$status" -eq 2
# verify-bound has one level option, --levels, at level 6 by default
coverdiam ucover verify-bound --complex src/coverdiam/data/rp2_complex.json \
  | python -c "$CHECK_DEFAULT_LEVEL"
status=0
coverdiam ucover verify-bound --complex src/coverdiam/data/rp2_complex.json --level 6 || status=$?
test "$status" -eq 2
# so is a negative tolerance
status=0
coverdiam sweep cover --count 1 --tol -1 || status=$?
test "$status" -eq 2
# and a nonpositive nerve epsilon
status=0
coverdiam ucover nerve --complex src/coverdiam/data/rp2_complex.json --level 1 --epsilon 0 || status=$?
test "$status" -eq 2
echo "cli smoke: all checks passed"
