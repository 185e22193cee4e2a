"""Command-line front end: seeded batch runs emitting CSV/JSON + manifest.

Every command writes its primary output and returns what it resolved
beyond its flags, with a summary line; `main` then writes
``<out>.manifest.json`` and prints the summary.  The manifest records
the command, every parsed flag but ``--threads`` under its flag name
(``--n`` only for rings), the resolved values (``spectrum``'s ring
``n``, ``file_asymmetry`` and ``max_multiset_deviation``), the package
version and the output paths.  Re-running with the same configuration
reproduces every output byte for byte, regardless of ``--threads``.

Exit codes: 0 success, 2 usage or input error (a size past the
library's ceilings, or one this host cannot allocate, included), 3
numeric failure.

numpy runs on one BLAS thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, or numpy loaded before this module did:
``--threads`` is the only parallelism, and a dense eigensolve's last
bits depend on the BLAS thread count.  Each command imports only the
modules it runs, so ``--version`` and a usage error load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import InvalidInputError, NumericFailureError, _check_index

# once numpy has loaded, the variable could only leak into the children
# of the importing process
if ("numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
        and "OMP_NUM_THREADS" not in os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_manifest(out_path: str, command: str, config: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "spec_version": __version__,
        "outputs": outputs,
    }
    with open(out_path + ".manifest.json", "w", encoding="ascii", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _warn_ties(result) -> None:
    if result.tie_count:  # a tie has probability zero, so this flags a bug
        print(f"warning: {result.tie_count} of {result.trials} trials tied for the "
              "ground state", file=sys.stderr)


def _cmd_build(args):
    from .groups import build_group, build_invariant, check_invariance
    from .linalg import write_matrix_text
    from .rng import EnsembleConfig, draw_label_blocks

    group = build_group(args.group, args.n)
    # checks --seed, --sigma0 and --m as a census run does, with its messages
    cfg = EnsembleConfig(args.seed, 1, args.sigma0, m=args.m)
    h = build_invariant(group, draw_label_blocks(group.orbit_count, cfg.m, cfg.master_seed,
                                                 0, cfg.sigma0))
    write_matrix_text(h, args.out)
    violation = check_invariance(h, group, args.m)
    return {}, (f"wrote {h.dim}x{h.dim} invariant matrix to {args.out} "
                f"(generator violation {_fmt(violation)})")


def _cmd_spectrum(args):
    from .groups import _orbit_blocks, build_group
    from .irreps import _spectrum_eigenvalues
    from .linalg import eigensolve, multiset_deviation, read_matrix_text

    _check_index("--m", args.m, 1)
    h, asym = read_matrix_text(args.infile)
    if h.dim % args.m != 0:
        raise InvalidInputError(f"matrix dim {h.dim} is not a multiple of m={args.m}")
    sites = h.dim // args.m
    # a ring's n is read from the file
    resolved = {"n": sites} if args.group == "cyclic" else {}
    if args.n not in (None, sites):
        raise InvalidInputError(f"--n {args.n} disagrees with file ({sites} sites)")
    group = build_group(args.group, resolved.get("n"))
    if group.sites != sites:
        raise InvalidInputError(
            f"{args.group} acts on {group.sites} sites but file has {sites}"
        )
    blocks = _orbit_blocks(h, group, args.m)
    specs, values = _spectrum_eigenvalues(group, blocks)
    rows = [(spec.label, float(v)) for spec, ev in zip(specs, values)
            for _ in range(spec.copies) for v in ev]
    dense = eigensolve(h)
    deviation = multiset_deviation(sorted(v for _, v in rows), dense)
    if not math.isfinite(deviation):
        raise NumericFailureError("block and dense eigenvalues differ beyond the float range")
    rows.extend(("dense", float(v)) for v in dense)
    _write_rows(args.out, args.format, ("irrep_label", "eigenvalue"), rows)
    resolved.update(file_asymmetry=asym, max_multiset_deviation=deviation)
    return resolved, f"max multiset deviation (blocks vs dense): {_fmt(deviation)}"


def _cmd_census(args):
    from .irreps import ground_state_irrep_census
    from .rng import EnsembleConfig

    cfg = EnsembleConfig(args.seed, args.trials, args.sigma0, args.group, args.n, args.m)
    result = ground_state_irrep_census(cfg, threads=args.threads)
    _write_rows(
        args.out, args.format,
        ("irrep_label", "copies", "block_dim", "predicted_variance_factor",
         "gs_fraction", "dimensional_fraction"),
        [(r.label, r.copies, r.block_dim, r.variance_factor,
          r.gs_fraction, r.dimensional_fraction) for r in result.rows],
    )
    _warn_ties(result)
    return {}, (f"census over {result.trials} trials written to {args.out} "
                f"(ties: {result.tie_count})")


def _cmd_su2_widths(args):
    from .su2 import width_table

    _write_rows(args.out, args.format, ("twoJ", "sigmaJ_sq"), width_table(args.jmax))
    return {}, f"width factors for J=0..{args.jmax} written to {args.out}"


def _cmd_gsdist(args):
    from .rng import EnsembleConfig
    from .su2 import DimensionTable, f_space, gs_distribution

    dims = DimensionTable.from_csv(args.dims)
    if args.jmax is not None:
        kept = tuple(e for e in dims.entries if e[0] <= 2 * args.jmax)
        if not kept:
            raise InvalidInputError(f"--jmax {args.jmax} removes every table row")
        dims = DimensionTable(kept)
    cfg = EnsembleConfig(args.seed, args.trials, args.sigma0)
    dist = gs_distribution(dims, cfg, threads=args.threads)
    space = dict(f_space(dims))
    _write_rows(args.out, args.format, ("twoJ", "f_space", "f_RM"),
                [(two_j, space[two_j], frac) for two_j, frac in dist.entries])
    _warn_ties(dist)
    return {}, (f"ground-state distribution over {dist.trials} trials written to "
                f"{args.out} (ties: {dist.tie_count})")


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
    p.add_argument("--threads", type=int, default=1)
    _add_common_output(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("su2-widths", help="universal per-J width factors")
    p.add_argument("--jmax", type=int, default=10)
    _add_common_output(p)
    p.set_defaults(func=_cmd_su2_widths)

    p = sub.add_parser("gsdist", help="ground-state J distribution from a dimension table")
    p.add_argument("--dims", required=True,
                   help="CSV with twoJ,dim rows, even twoJ only (a half-integer J "
                        "needs a width factor, which no flag passes)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--jmax", type=int, default=None, help="drop table rows above this J")
    p.add_argument("--threads", type=int, default=1)
    _add_common_output(p)
    p.set_defaults(func=_cmd_gsdist)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the manifest records every flag under its name, but --threads,
    # which never changes a result
    config = {"in" if key == "infile" else key: value for key, value in vars(args).items()
              if key not in ("command", "func", "threads")}
    try:
        # --n is allowed, and recorded, only for rings
        if config.get("group", "cyclic") != "cyclic" and config.pop("n") is not None:
            raise InvalidInputError(f"--n only applies to --group cyclic, not {args.group}")
        resolved, summary = args.func(args)
        _write_manifest(args.out, args.command, {**config, **resolved}, [args.out])
    except (InvalidInputError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
