#!/usr/bin/env bash
# End-to-end runs of the command-line pipeline: `repro --profile rpp1-desk`,
# `predict` from the model it trained, and `repro --profile rpp6-desk`. Each
# must exit 0 and write its files. First, `mesh` on two invalid configs must
# each exit 1 with exactly one stderr line, starting with `error: `, and
# `sample` of a one-step copy of the rpp1-desk config must write the same
# dataset.ds, by SHA-256, at --workers 1 and --workers 2: a one-step call
# samples in the calling thread whatever --workers says, and both runs are
# on one machine. The repro bytes are not compared, because
# another CPU's BLAS kernels may round differently; instead three metrics of
# each repro run must match ci/golden.json to 1e-9 relative: `mean_rmse_mm`
# and `mean_max_lpe_mm` of report.json and `train_rmse_mm` of model.json.
# Rounding from other BLAS kernels moved them by about 1e-15 relative.
#
# Usage: ci/end_to_end.sh [work_dir]
#
# DEFORMEST is the command to run, `python -m deformest.cli` by default:
#   PYTHONPATH=src ci/end_to_end.sh            from a source checkout
#   DEFORMEST=deformest ci/end_to_end.sh       after `pip install .`
# The outputs go to work_dir, a new temporary directory by default.
set -euo pipefail

read -r -a deformest <<< "${DEFORMEST:-python -m deformest.cli}"
golden=$(cd "$(dirname "$0")" && pwd)/golden.json
work=${1:-$(mktemp -d)}
mkdir -p "$work"

# check_golden PROFILE RUN_DIR: compare the run's metrics with the golden file
check_golden() {
    python3 - "$golden" "$1" "$2" <<'EOF'
import json, math, sys

golden, profile, run = sys.argv[1:]
want = json.load(open(golden))[profile]
report = json.load(open(f"{run}/report.json"))
got = {
    "mean_rmse_mm": report["mean_rmse_mm"],
    "mean_max_lpe_mm": report["mean_max_lpe_mm"],
    "train_rmse_mm": json.load(open(f"{run}/model.json"))["metrics"]["train_rmse_mm"],
}
misses = [name for name in want if not math.isclose(got[name], want[name], rel_tol=1e-9)]
for name in misses:
    print(f"{profile}: {name} is {got[name]!r}, golden {want[name]!r}", file=sys.stderr)
sys.exit(1 if misses else 0)
EOF
}

# check_error NAME: `mesh` on $work/NAME.json exits 1 with one stderr line, an error line
check_error() {
    local code=0
    "${deformest[@]}" mesh --config "$work/$1.json" --out "$work/$1" 2> "$work/$1.err" || code=$?
    if [[ $code -ne 1 || $(wc -l < "$work/$1.err") -ne 1 || $(head -c 7 "$work/$1.err") != "error: " ]]; then
        echo "$1 config: exit $code, expected 1 and one error line; stderr:" >&2
        cat "$work/$1.err" >&2
        exit 1
    fi
}

# a spacing whose lattice count overflows, and a NaN literal, which Python's json reads
region='"sampling": {"regions": {"end": {"mode": "box", "extents_mm": [204.8, 204.8, 102.4], "spacing_mm": 20.48}}}'
printf '{"mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2, "spacing_mm": 1e-320}}, %s}\n' \
    "$region" > "$work/tiny_spacing.json"
printf '{"mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2, "spacing_mm": 25.6}}, "material": {"poisson_ratio": NaN}, %s}\n' \
    "$region" > "$work/nan.json"
check_error tiny_spacing
check_error nan

# the rpp1-desk config at one load step
python3 - "$work/one_step.json" <<'EOF'
import json, sys
from deformest.cli import PROFILES

config = json.loads(json.dumps(PROFILES["rpp1-desk"]))
config["fem"]["n_steps"] = 1
with open(sys.argv[1], "w") as fh:
    json.dump(config, fh)
EOF
sha256() {
    python3 -c 'import hashlib, sys; print(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest())' "$1"
}
for workers in 1 2; do
    "${deformest[@]}" mesh --config "$work/one_step.json" --out "$work/one_step_$workers"
    "${deformest[@]}" sample --config "$work/one_step.json" --out "$work/one_step_$workers" \
        --workers "$workers"
done
if [[ $(sha256 "$work/one_step_1/dataset.ds") != $(sha256 "$work/one_step_2/dataset.ds") ]]; then
    echo "one-step dataset.ds differs between --workers 1 and --workers 2" >&2
    exit 1
fi

"${deformest[@]}" repro --profile rpp1-desk --out "$work/desk"
test -f "$work/desk/repro.manifest.json"
check_golden rpp1-desk "$work/desk"

printf 'dx_mm,dy_mm,dz_mm\n0,0,0\n0,0,0\n0,0,0\n' > "$work/obs.csv"
"${deformest[@]}" predict --model "$work/desk/model.json" \
    --observations "$work/obs.csv" --mesh "$work/desk/mesh.txt" --out "$work/pred"
test -f "$work/pred/field.csv"
test -f "$work/pred/field.vtk"

# ellipsoid sampling, the surface-normal filter and a six-region dataset
"${deformest[@]}" repro --profile rpp6-desk --out "$work/six"
test -f "$work/six/repro.manifest.json"
check_golden rpp6-desk "$work/six"

echo "end-to-end runs passed and match ci/golden.json; outputs in $work"
