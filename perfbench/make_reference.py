"""Recompute the stored reference fields of the check targets.

    python3 perfbench/make_reference.py [--steps 2000]

For every mesh a workload uses, runs ``fem.deform`` at ``--steps`` Euler
steps for each check target and writes the fields, in simulation units, into
the ``fields`` section of perfbench/reference.json. Other
sections of that file (recorded gate values) are kept. The fine mesh takes
about 13 minutes on one core of a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from deformest import cli, fem, sampling  # noqa: E402

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def check_targets(mesh, cfg: cli.PipelineConfig):
    spec = cli.resolve_sampling_specs(cfg, mesh)["end"]
    centroid = mesh.vertices[mesh.contact_regions["end"]].mean(axis=0)
    return sampling.sample_points_for_region(mesh, "end", spec) - centroid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args()
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    fields = doc.setdefault("fields", {})
    meshes = {workloads.mesh_key(w.spacing_mm): w for w in workloads.WORKLOADS.values()}
    for name, w in meshes.items():
        cfg = cli.PipelineConfig.from_dict(workloads.check_config(w))
        mesh = cli.build_mesh(cfg)
        d = fem.elasticity_matrix(cfg.material)
        targets = check_targets(mesh, cfg)
        out = []
        for t in targets:
            out.append(fem.deform(mesh, d, "end", t, args.steps).flat_displacements.tolist())
            print(f"{name}: target {t.round(3).tolist()} done", flush=True)
        fields[name] = {"n_steps": args.steps, "targets": targets.tolist(), "u": out}
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
