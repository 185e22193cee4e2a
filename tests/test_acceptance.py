"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success; they also appear in captured output on failure).
"""

import json
import math
from pathlib import Path

import numpy as np

from irreplab import (
    EnsembleConfig,
    block_spectra,
    build_group,
    build_invariant,
    check_invariance,
    decompose,
    draw_label_blocks,
    eigensolve,
    example_dimension_table,
    f_space,
    gs_distribution,
    ground_state_irrep_census,
    multiset_deviation,
    sigma_j_sq,
)
from irreplab.cli import main

DATA = Path(__file__).parent / "data"
SRC_DATA = Path(__file__).parents[1] / "src" / "irreplab" / "data"

ALL_GROUPS = [("cyclic", n) for n in range(2, 13)] + [
    ("tetra", None),
    ("octa", None),
    ("cube", None),
]


def report(num, description, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}{tail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_su2_width_table():
    vals = [sigma_j_sq(j) for j in range(5)]
    quoted = [1.571, 0.393, 0.245, 0.178, 0.139]
    ok = all(abs(v - q) <= 5e-4 for v, q in zip(vals, quoted))
    ok = ok and abs(vals[0] - math.pi / 2) <= 1e-10
    ok = ok and abs(vals[1] - math.pi / 8) <= 1e-10
    report(1, "width factors J=0..4 match 1.571/0.393/0.245/0.178/0.139",
           ok, f"values {[round(v, 4) for v in vals]}")


def test_criterion_2_polyhedral_variance_factors():
    expected = {"tetra": [10.0, 2.0], "octa": [18.0, 6.0, 2.0],
                "cube": [20.0, 20.0, 4.0, 4.0]}
    ok = True
    details = []
    for kind, want in expected.items():
        group = build_group(kind)
        specs = decompose(group)
        ok = ok and [s.variance_factor for s in specs] == want
        orbits = group.orbit_count
        trials = 10000
        samples = np.empty((len(specs), trials))
        for t in range(trials):
            blocks = draw_label_blocks(orbits, 1, 2, t)
            for i, spec in enumerate(specs):
                samples[i, t] = spec.combination(blocks)[0, 0]
        rel = np.abs(samples.var(axis=1, ddof=1) /
                     np.array([s.variance_factor for s in specs]) - 1.0)
        details.append(f"{kind} max rel err {rel.max():.3f}")
        ok = ok and rel.max() < 0.05
    report(2, "variance factors {10,2}/{18,6,2}/{20,20,4,4} + empirical 5%",
           ok, "; ".join(details))


def test_criterion_3_spectrum_union_oracle():
    worst = 0.0
    for kind, n in ALL_GROUPS:
        group = build_group(kind, n)
        orbits = group.orbit_count
        for m in (1, 2, 5):
            for seed in range(20):
                blocks = draw_label_blocks(orbits, m, 1000 + seed, seed)
                dense = eigensolve(build_invariant(group, blocks))
                union = block_spectra(group, blocks)
                worst = max(worst, multiset_deviation(dense, union))
    report(3, "dense spectrum = union of irrep block spectra (all groups, "
              "m in {1,2,5}, 20 seeds)", worst < 1e-8, f"worst dev {worst:.2e}")


def test_criterion_4_invariance():
    worst = 0.0
    for kind, n in ALL_GROUPS:
        group = build_group(kind, n)
        orbits = group.orbit_count
        for m in (1, 3):
            h = build_invariant(group, draw_label_blocks(orbits, m, 7, 0))
            worst = max(worst, check_invariance(h, group, m))
    report(4, "built Hamiltonians commute with all generators",
           worst < 1e-12, f"max violation {worst:.1e}")


def test_criterion_5_tetra_analytic_census():
    cfg = EnsembleConfig(3, 10000, group="tetra", m=1)
    res = ground_state_irrep_census(cfg)
    frac = res.fraction("1dim")
    tol = 3 * math.sqrt(0.25 / cfg.trials)
    report(5, "tetra m=1 census: 1-dim fraction = 1/2 (analytic), vs "
              "dimensional 1/4",
           abs(frac - 0.5) <= tol,
           f"fraction {frac:.4f}, window +-{tol:.4f}, ties {res.tie_count}")


def test_criterion_6_low_dim_irrep_dominance():
    ok = True
    details = []
    for kind in ("tetra", "octa", "cube"):
        cfg = EnsembleConfig(5, 1000, group=kind, m=20)
        res = ground_state_irrep_census(cfg)
        got = sum(r.gs_fraction for r in res.rows if r.label.startswith("1dim"))
        base = sum(r.dimensional_fraction for r in res.rows
                   if r.label.startswith("1dim"))
        se = math.sqrt(base * (1.0 - base) / cfg.trials)
        ok = ok and got >= base + 5 * se
        details.append(f"{kind} {got:.3f} vs {base:.3f}+5se={base + 5 * se:.3f}")
    report(6, "1-dim irreps dominate ground states (m=20, 1000 trials)",
           ok, "; ".join(details))


def test_criterion_7_cn_width_ordering():
    ok = True
    for n in range(3, 13):
        f = [s.variance_factor for s in decompose(build_group("cyclic", n))]
        ok = ok and f[0] == max(f)
        for k in range(1, n // 2 + 1):
            if n % 2 == 0 and k == n // 2:
                # exact analytic tie: the k=n/2 combination flips signs
                # of the same independent blocks, so its width equals
                # the k=0 width; the ground state lives in one of the
                # two extreme blocks
                ok = ok and f[k] == f[0]
            else:
                ok = ok and f[k] < f[0]
    cfg = EnsembleConfig(9, 1000, group="cyclic", n=7, m=10)
    res = ground_state_irrep_census(cfg)
    fractions = {r.label: r.gs_fraction for r in res.rows}
    top = max(fractions, key=fractions.get)
    ok = ok and top == "k=0"
    report(7, "k=0 attains the maximal width factor (n=3..12; exact tie at "
              "k=n/2 for even n) and wins the census (n=7, m=10)",
           ok, f"census k=0 fraction {fractions['k=0']:.3f}")


def test_criterion_8_frm_enhancement():
    dims = example_dimension_table()
    baseline = json.loads((DATA / "gsdist_baseline.json").read_text())
    cfg = EnsembleConfig(baseline["master_seed"], baseline["trials"],
                         baseline["sigma0"])
    dist = gs_distribution(dims, cfg)
    space = dict(f_space(dims))
    ok = dist.fraction(0) > space[0]
    ok = ok and dist.modal_two_j() == 0
    got = {str(tj): c for tj, c in dist.counts}
    ok = ok and got == baseline["counts"]
    report(8, "f_RM(J=0) > f_space(J=0), J=0 modal, distribution matches "
              "frozen baseline",
           ok, f"f_RM(0)={dist.fraction(0):.3f} vs f_space(0)={space[0]:.3f}")


def test_criterion_9_byte_determinism(tmp_path):
    ok = True
    # census: identical flags, different thread counts
    census = []
    for name, threads in [("c1.csv", 1), ("c2.csv", 4)]:
        out = tmp_path / name
        assert main(["census", "--group", "octa", "--m", "2", "--trials", "300",
                     "--seed", "12", "--threads", str(threads),
                     "--out", str(out)]) == 0
        census.append(out.read_bytes())
    ok = ok and census[0] == census[1]
    # ground-state distribution, same treatment
    dims = SRC_DATA / "example_dims.csv"
    dist = []
    for name, threads in [("d1.csv", 1), ("d2.csv", 3)]:
        out = tmp_path / name
        assert main(["gsdist", "--dims", str(dims), "--trials", "600",
                     "--seed", "4", "--threads", str(threads),
                     "--out", str(out)]) == 0
        dist.append(out.read_bytes())
    ok = ok and dist[0] == dist[1]
    # matrix build and width table: identical reruns
    for args in (["build", "--group", "cube", "--m", "2", "--seed", "8"],
                 ["su2-widths", "--jmax", "6"]):
        blobs = []
        for name in ("r1.out", "r2.out"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report(9, "identical flags reproduce outputs byte for byte, independent "
              "of --threads", ok)
