#!/usr/bin/env bash
# End-to-end runs of the command-line pipeline: `repro --profile rpp1-desk`,
# `predict` from the model it trained, and `repro --profile rpp6-desk`. Each
# must exit 0 and write its files; the bytes are not compared, because
# another CPU's BLAS kernels may round differently.
#
# Usage: ci/end_to_end.sh [work_dir]
#
# DEFORMEST is the command to run, `python -m deformest.cli` by default:
#   PYTHONPATH=src ci/end_to_end.sh            from a source checkout
#   DEFORMEST=deformest ci/end_to_end.sh       after `pip install .`
# The outputs go to work_dir, a new temporary directory by default.
set -euo pipefail

read -r -a deformest <<< "${DEFORMEST:-python -m deformest.cli}"
work=${1:-$(mktemp -d)}
mkdir -p "$work"

"${deformest[@]}" repro --profile rpp1-desk --out "$work/desk"
test -f "$work/desk/repro.manifest.json"

printf 'dx_mm,dy_mm,dz_mm\n0,0,0\n0,0,0\n0,0,0\n' > "$work/obs.csv"
"${deformest[@]}" predict --model "$work/desk/model.json" \
    --observations "$work/obs.csv" --mesh "$work/desk/mesh.txt" --out "$work/pred"
test -f "$work/pred/field.csv"
test -f "$work/pred/field.vtk"

# ellipsoid sampling, the surface-normal filter and a six-region dataset
"${deformest[@]}" repro --profile rpp6-desk --out "$work/six"
test -f "$work/six/repro.manifest.json"

echo "end-to-end runs passed; outputs in $work"
