"""The benchmark's workloads: the CLI commands of one round, their
correctness checks, and the in-process references they are checked against.

Each workload turns the benchmark seed into a config and hands the program
only that config.  The irreplab seed of every command is the benchmark seed
itself, so ``--seed 11`` reruns the README's gsdist example.  Paths are
relative to the checkout root, which is the working directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

DIMS = os.path.join("src", "irreplab", "data", "example_dims.csv")
BASELINE = os.path.join("tests", "data", "gsdist_baseline.json")
MAX_DEVIATION = 1e-8


class CheckFailed(Exception):
    """A command ran but its output is missing or wrong."""


@dataclass
class Command:
    """One CLI invocation and the check its stdout and files must pass."""

    argv: list[str]
    out: str
    check: Callable[[str], None]  # given stdout; raises CheckFailed

    def outputs(self) -> tuple[str, str]:
        return _outputs(self.out)


@dataclass
class Workload:
    name: str
    why: str
    unit: str  # one completed item: "trials" or "roundtrips"
    size: int  # items per round: trials of its one command, or round trips
    commands: Callable[..., list[Command]]  # (seed, workdir, size, reference)
    reference: Callable[[int, int], list[int]] | None = None  # (seed, size) -> counts
    threaded: bool = True  # the commands accept --threads


def _outputs(out: str) -> tuple[str, str]:
    """Every command writes its output plus a manifest beside it."""
    return out, out + ".manifest.json"


def _outputs_exist(out: str):
    for path in _outputs(out):
        if not os.path.isfile(path):
            raise CheckFailed(f"missing output {path}")


def _tally_check(out: str, column: str, trials: int, expected: list[int]):
    """Counts sum to trials, no ties, finite fractions, equal to the reference."""

    def check(stdout: str):
        _outputs_exist(out)
        if "(ties: 0)" not in stdout:
            raise CheckFailed(f"expected 'ties: 0' on stdout, got {stdout.strip()!r}")
        with open(out, newline="", encoding="ascii") as fh:
            fractions = [float(row[column]) for row in csv.DictReader(fh)]
        if not all(math.isfinite(f) for f in fractions):
            raise CheckFailed(f"non-finite fraction in {out}")
        counts = [round(f * trials) for f in fractions]
        if sum(counts) != trials:
            raise CheckFailed(f"counts in {out} sum to {sum(counts)}, not {trials}")
        if counts != expected:
            raise CheckFailed(f"counts {counts} differ from reference {expected}")

    return check


# -- gsdist --------------------------------------------------------------

def _gsdist_argv(seed: int, trials: int, out: str) -> list[str]:
    return ["gsdist", "--dims", DIMS, "--trials", str(trials), "--seed", str(seed), "--out", out]


def _gsdist_reference(seed: int, trials: int) -> list[int]:
    from irreplab.rng import EnsembleConfig
    from irreplab.su2 import DimensionTable, gs_distribution

    dist = gs_distribution(DimensionTable.from_csv(DIMS), EnsembleConfig(seed, trials), threads=1)
    return [c for _, c in dist.counts]


def _gsdist_commands(seed, workdir, trials, reference):
    out = os.path.join(workdir, "dist.csv")
    return [Command(_gsdist_argv(seed, trials, out), out,
                    _tally_check(out, "f_RM", trials, reference))]


def baseline_command(workdir: str) -> Command:
    """The frozen regression run (seed 11, 10k trials, bundled table)."""
    with open(BASELINE, encoding="ascii") as fh:
        base = json.load(fh)
    expected = [base["counts"][k] for k in sorted(base["counts"], key=int)]
    out = os.path.join(workdir, "baseline.csv")
    return Command(_gsdist_argv(base["master_seed"], base["trials"], out), out,
                   _tally_check(out, "f_RM", base["trials"], expected))


# -- census --------------------------------------------------------------

def _shape(group: str, n, m: int) -> list[str]:
    return ["--group", group] + (["--n", str(n)] if n is not None else []) + ["--m", str(m)]


def _census(group: str, n, m: int):
    shape = _shape(group, n, m)

    def commands(seed, workdir, trials, reference):
        out = os.path.join(workdir, "census.csv")
        argv = ["census", *shape, "--trials", str(trials), "--seed", str(seed), "--out", out]
        return [Command(argv, out, _tally_check(out, "gs_fraction", trials, reference))]

    def reference(seed, trials):
        from irreplab.irreps import ground_state_irrep_census
        from irreplab.rng import EnsembleConfig

        cfg = EnsembleConfig(seed, trials, 1.0, group, n, m)
        return [row.gs_count for row in ground_state_irrep_census(cfg, threads=1).rows]

    return commands, reference


# -- matrix round trip ---------------------------------------------------

ROUNDTRIPS = (("cube", None, 60), ("cyclic", 50, 8))  # (group, n, m): 480x480, 400x400

_VIOLATION = re.compile(r"generator violation (\S+)\)")
_DEVIATION = re.compile(r"max multiset deviation \(blocks vs dense\): (\S+)")


def _stdout_check(out: str, pattern, accept, what: str):
    def check(stdout: str):
        _outputs_exist(out)
        found = pattern.search(stdout)
        if not found or not accept(float(found.group(1))):
            raise CheckFailed(f"expected {what}, got {stdout.strip()!r}")

    return check


def _roundtrip_commands(seed, workdir, size, reference):
    commands = []
    for group, n, m in ROUNDTRIPS[:size]:
        shape = _shape(group, n, m)
        stem = os.path.join(workdir, f"{group}{n or ''}_m{m}")
        matrix, spectrum = stem + ".txt", stem + ".csv"
        commands += [
            Command(["build", *shape, "--seed", str(seed), "--out", matrix], matrix,
                    _stdout_check(matrix, _VIOLATION, lambda v: v == 0.0,
                                  "generator violation 0")),
            Command(["spectrum", "--in", matrix, *shape, "--out", spectrum], spectrum,
                    _stdout_check(spectrum, _DEVIATION, lambda v: v <= MAX_DEVIATION,
                                  f"max multiset deviation <= {MAX_DEVIATION}")),
        ]
    return commands


# -- the table -----------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "gsdist",
        "RNG-bound: per trial 11 substream and 11 normals(N_J) calls on the bundled table, no eigensolve",
        "trials", 300, _gsdist_commands, _gsdist_reference,
    ),
    Workload(
        "census-small",
        "dispatch-bound: cyclic n=12 m=1, per trial 7 one-normal labels and 7 1x1 combinations, no eigensolve",
        "trials", 300, *_census("cyclic", 12, 1),
    ),
    Workload(
        "census-wide",
        "linalg-bound: cube m=64, per trial 4 labels of 2080 normals and 4 eigvalsh of 64x64",
        "trials", 80, *_census("cube", None, 64),
    ),
    Workload(
        "matrix-roundtrip",
        "build then spectrum of cube m=60 and cyclic n=50 m=8: the only groups, text I/O and dense-solve user",
        "roundtrips", len(ROUNDTRIPS), _roundtrip_commands, threaded=False,
    ),
)}
