"""Command-line front end: seeded batch runs emitting CSV/JSON + manifest.

Every command writes its primary output plus ``<out>.manifest.json``
recording the command, the fully resolved configuration (seed
included), the package version, and the output paths.  Re-running with
the same configuration reproduces every output byte for byte,
regardless of ``--threads``.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import InvalidInputError, NumericFailureError
from .groups import build_group, check_invariance, pair_orbits
from .irreps import _block_eigenvalues, ground_state_irrep_census, sample_invariant
from .linalg import eigensolve, multiset_deviation, read_matrix_text, write_matrix_text
from .rng import EnsembleConfig
from .su2 import DimensionTable, f_space, gs_distribution, width_table

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_manifest(out_path: str, command: str, config: dict, outputs: list[str]) -> str:
    manifest = {
        "command": command,
        "config": config,
        "spec_version": __version__,
        "outputs": outputs,
    }
    path = out_path + ".manifest.json"
    with open(path, "w", encoding="ascii", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_rows(out, fmt, header, rows):
    """Emit rows as CSV (header + lines) or JSON (list of objects)."""
    with open(out, "w", encoding="ascii", newline="") as fh:
        if fmt == "json":
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
                fh.write("\n")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {threads}")


def _group_config(args) -> dict:
    cfg = {"group": args.group, "m": args.m, "seed": args.seed, "sigma0": args.sigma0}
    if args.group == "cyclic":
        if args.n is None:
            raise InvalidInputError("--group cyclic requires --n")
        cfg["n"] = args.n
    elif args.n is not None:
        raise InvalidInputError(f"--n only applies to --group cyclic, not {args.group}")
    return cfg


def _cmd_build(args) -> int:
    config = _group_config(args)
    group = build_group(args.group, args.n)
    cfg = EnsembleConfig(args.seed, 1, args.sigma0, args.group, args.n, args.m)
    h, _ = sample_invariant(group, cfg, trial_index=0)
    write_matrix_text(h, args.out)
    violation = check_invariance(h, group, args.m)
    config["out"] = args.out
    _write_manifest(args.out, "build", config, [args.out])
    print(f"wrote {h.dim}x{h.dim} invariant matrix to {args.out} "
          f"(generator violation {_fmt(violation)})")
    return 0


def _cmd_spectrum(args) -> int:
    if args.m < 1:
        raise InvalidInputError(f"--m must be >= 1, got {args.m}")
    h, asym = read_matrix_text(args.infile)
    if h.dim % args.m != 0:
        raise InvalidInputError(f"matrix dim {h.dim} is not a multiple of m={args.m}")
    sites = h.dim // args.m
    n = args.n
    if args.group == "cyclic":
        if n is None:
            n = sites
        elif n != sites:
            raise InvalidInputError(f"--n {n} disagrees with file ({sites} sites)")
    group = build_group(args.group, n)
    if group.sites != sites:
        raise InvalidInputError(
            f"{args.group} acts on {group.sites} sites but file has {sites}"
        )
    structure = pair_orbits(group)
    m = args.m
    blocks = []
    for orbit in range(structure.count):
        i, j = structure.pairs_of(orbit)[0]
        sub = h.values[i * m:(i + 1) * m, j * m:(j + 1) * m]
        blocks.append(0.5 * (sub + sub.T))

    rows = [(spec.label, float(v)) for spec, ev in _block_eigenvalues(group, blocks)
            for _ in range(spec.copies) for v in ev]
    dense = eigensolve(h).eigenvalues
    deviation = multiset_deviation(np.sort([v for _, v in rows]), dense)
    rows.extend(("dense", float(v)) for v in dense)

    _write_rows(args.out, args.format, ("irrep_label", "eigenvalue"), rows)
    config = {
        "group": args.group, "m": args.m, "in": args.infile, "out": args.out,
        "format": args.format,
    }
    if args.group == "cyclic":
        config["n"] = n
    config["file_asymmetry"] = asym
    config["max_multiset_deviation"] = deviation
    _write_manifest(args.out, "spectrum", config, [args.out])
    print(f"max multiset deviation (blocks vs dense): {_fmt(deviation)}")
    return 0


def _cmd_census(args) -> int:
    _check_threads(args.threads)
    config = _group_config(args)
    config.update({"trials": args.trials, "out": args.out, "format": args.format})
    cfg = EnsembleConfig(args.seed, args.trials, args.sigma0, args.group, args.n, args.m)
    result = ground_state_irrep_census(cfg, threads=args.threads)
    _write_rows(
        args.out, args.format,
        ("irrep_label", "copies", "block_dim", "predicted_variance_factor",
         "gs_fraction", "dimensional_fraction"),
        [(r.label, r.copies, r.block_dim, r.variance_factor,
          r.gs_fraction, r.dimensional_fraction) for r in result.rows],
    )
    _write_manifest(args.out, "census", config, [args.out])
    print(f"census over {result.trials} trials written to {args.out} "
          f"(ties: {result.tie_count})")
    return 0


def _cmd_su2_widths(args) -> int:
    table = width_table(args.jmax, args.quad_points)
    _write_rows(args.out, args.format, ("twoJ", "sigmaJ_sq"), table.entries)
    config = {"jmax": args.jmax, "quad_points": args.quad_points,
              "out": args.out, "format": args.format}
    _write_manifest(args.out, "su2-widths", config, [args.out])
    print(f"width factors for J=0..{args.jmax} written to {args.out}")
    return 0


def _cmd_gsdist(args) -> int:
    _check_threads(args.threads)
    dims = DimensionTable.from_csv(args.dims)
    if args.jmax is not None:
        kept = tuple(e for e in dims.entries if e[0] <= 2 * args.jmax)
        if not kept:
            raise InvalidInputError(f"--jmax {args.jmax} removes every table row")
        dims = DimensionTable(kept)
    cfg = EnsembleConfig(args.seed, args.trials, args.sigma0)
    dist = gs_distribution(dims, cfg, quad_points=args.quad_points, threads=args.threads)
    space = dict(f_space(dims))
    _write_rows(args.out, args.format, ("twoJ", "f_space", "f_RM"),
                [(two_j, space[two_j], frac) for two_j, frac in dist.entries])
    config = {
        "dims": args.dims, "trials": args.trials, "seed": args.seed,
        "sigma0": args.sigma0, "jmax": args.jmax, "quad_points": args.quad_points,
        "out": args.out, "format": args.format,
    }
    _write_manifest(args.out, "gsdist", config, [args.out])
    print(f"ground-state distribution over {dist.trials} trials written to "
          f"{args.out} (ties: {dist.tie_count})")
    return 0


def _add_common_output(p, fmt=True):
    p.add_argument("--out", required=True, help="output file path")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irreplab",
        description="Random symmetric matrices with point-group symmetry: "
                    "build, decompose, and tally ground states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_flags(p):
        p.add_argument("--group", required=True, choices=("cyclic", "tetra", "octa", "cube"))
        p.add_argument("--n", type=int, default=None, help="sites for --group cyclic")
        p.add_argument("--m", type=int, default=1, help="block size per site")

    p = sub.add_parser("build", help="sample one invariant matrix to a text file")
    add_group_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma0", type=float, default=1.0)
    _add_common_output(p, fmt=False)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("spectrum", help="irrep block spectra of a matrix file vs dense")
    p.add_argument("--in", dest="infile", required=True, help="matrix text file")
    add_group_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("census", help="ground-state irrep census over an ensemble")
    add_group_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    _add_common_output(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("su2-widths", help="universal per-J width factors")
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--quad-points", type=int, default=512)
    _add_common_output(p)
    p.set_defaults(func=_cmd_su2_widths)

    p = sub.add_parser("gsdist", help="ground-state J distribution from a dimension table")
    p.add_argument("--dims", required=True, help="CSV with twoJ,dim rows")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--jmax", type=int, default=None, help="drop table rows above this J")
    p.add_argument("--quad-points", type=int, default=512)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    _add_common_output(p)
    p.set_defaults(func=_cmd_gsdist)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
