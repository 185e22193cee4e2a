"""Ground-state angular momentum: space fraction vs random-matrix prediction.

Model: each J subspace contributes N_J independent Gaussian energies
of width sqrt(N_J) * sqrt(w_J); the ground state is the global minimum.
Even though J = 0 holds only a few percent of the bundled example
space, its width advantage makes it the modal ground state by far.
"""

from irreplab import (
    EnsembleConfig,
    example_dimension_table,
    f_space,
    gs_distribution,
)

dims = example_dimension_table()
print(f"bundled dimension table: {len(dims.entries)} J values, "
      f"{dims.n_tot} states total")

cfg = EnsembleConfig(master_seed=11, trials=10000)
dist = gs_distribution(dims, cfg)
space = dict(f_space(dims))
sizes = dict(dims.entries)

print(f"\n{cfg.trials} seeded trials; ties observed: {dist.tie_count}")
print(f"   {'J':>3s} {'N_J':>5s} {'f_space':>9s} {'f_RM':>9s}")
for two_j, frac in dist.entries:
    j = two_j // 2
    bar_space = "." * round(50 * space[two_j])
    bar_rm = "#" * round(50 * frac)
    print(f"   {j:3d} {sizes[two_j]:5d} {space[two_j]:9.4f} {frac:9.4f}"
          f"   |{bar_rm}\n   {'':3s} {'':5s} {'':9s} {'':9s}   |{bar_space}")

enh = dist.fraction(0) / space[0]
print(f"\nJ=0 enhancement: f_RM(0) / f_space(0) = {enh:.1f}x "
      f"(modal ground-state J = {dist.modal_two_j() // 2})")
print("# = random-matrix ground-state fraction, . = share of the space")
