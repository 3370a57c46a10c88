"""Command line interface.

Subcommands:
  mesh gen    write a generated mesh to a JSON file
  mesh check  validate a mesh file
  study run   run a convergence study and write its report
"""

import argparse
import dataclasses
import json
import sys

from .mesh import (MeshError, generate_cube_mesh, generate_square_mesh,
                   load_mesh, quality_report, save_mesh)
from .study import StudyConfig, run_study
from .system import NotConverged


def _mesh_gen(args):
    try:
        if args.dim == 2:
            mesh = generate_square_mesh(args.n, args.family)
        else:
            mesh = generate_cube_mesh(args.n, args.family)
        save_mesh(mesh, args.out)
    except (MeshError, ValueError, OSError) as exc:
        print(f"mesh generation failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: dim={mesh.dim} "
          f"vertices={mesh.n_vertices} cells={mesh.n_cells}")
    return 0


def _mesh_check(args):
    try:
        mesh = load_mesh(args.infile)
        mesh.validate()
        quality = quality_report(mesh)
    except (MeshError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"invalid mesh: {exc}", file=sys.stderr)
        return 1
    print(f"ok: dim={mesh.dim} vertices={mesh.n_vertices} "
          f"cells={mesh.n_cells}")
    # the extremes of the paper's mesh assumptions: edge ratio per cell,
    # kernel radius over diameter, and in 3D the edge ratio per face
    print(f"max tau: {quality.max_tau:.12g}")
    print(f"min rho: {float(quality.rho.min()):.12g}")
    if quality.tau_face is not None:
        print(f"max tau_face: {float(quality.tau_face.max()):.12g}")
    return 0


def _study_run(args):
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 1
        if not isinstance(loaded, dict):
            print("bad config file: the top level must be a JSON object, "
                  f"not {type(loaded).__name__}", file=sys.stderr)
            return 1
        settings.update(loaded)
    # explicit flags override config-file values
    for field in dataclasses.fields(StudyConfig):
        value = getattr(args, field.name)
        if value is not None:
            settings[field.name] = value
    known = {field.name for field in dataclasses.fields(StudyConfig)}
    unknown = sorted(set(settings) - known)
    if unknown:
        print(f"unknown config keys: {', '.join(unknown)}", file=sys.stderr)
        return 1
    try:
        if isinstance(settings.get("levels"), str):
            settings["levels"] = [int(tok) for tok
                                  in settings["levels"].split(",")
                                  if tok.strip()]
        config = StudyConfig(**settings)
        report = run_study(config)
    except (MeshError, NotConverged, ValueError, OSError) as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 1
    for key, slope in report["slopes"].items():
        print(f"slope {key}: {slope:.3f}")
    if config.assert_rates and not report["passed"]:
        print("rate check failed", file=sys.stderr)
        return 2
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyvem",
        description="Poisson solver on polygonal and polyhedral meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_parser = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh_parser.add_subparsers(dest="action", required=True)

    gen = mesh_sub.add_parser("gen", help="generate a mesh file")
    gen.add_argument("--dim", type=int, choices=(2, 3), default=2)
    gen.add_argument("--n", type=int, required=True,
                     help="subdivisions per axis")
    gen.add_argument("--family", default="uniform",
                     help="uniform, smalledge(eps), hanging, "
                          "distorted(seed), facesplit(eps)")
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=_mesh_gen)

    check = mesh_sub.add_parser("check", help="validate a mesh file")
    check.add_argument("--in", dest="infile", required=True,
                       help="mesh JSON path")
    check.set_defaults(func=_mesh_check)

    study_parser = sub.add_parser("study", help="convergence studies")
    study_sub = study_parser.add_subparsers(dest="action", required=True)

    run = study_sub.add_parser("run", help="run a convergence study")
    run.add_argument("--config", help="JSON file with study settings")
    run.add_argument("--dim", type=int, choices=(2, 3))
    run.add_argument("--k", type=int, help="polynomial degree")
    run.add_argument("--stab", choices=("s1", "s2", "s2tilde", "3d"))
    run.add_argument("--family")
    run.add_argument("--levels", help="comma-separated subdivisions, "
                                      "e.g. 4,8,16")
    run.add_argument("--case", help="sine, corner, or patch")
    run.add_argument("--out", help="report output directory")
    run.add_argument("--assert-rates", dest="assert_rates",
                     action="store_true", default=None,
                     help="exit nonzero when fitted rates miss the "
                          "expected orders")
    run.set_defaults(func=_study_run)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
