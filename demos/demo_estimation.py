"""End-to-end estimation: min H over an interval, local H(t0), and alpha.

Runs small Monte Carlo batches through the experiment harness and prints the
convergence tables: raw log2-ratio estimates (which carry a visible
finite-scale constant), the constant-corrected column, and the
stability-index estimates for which the kernel constant cancels by itself.

Run:  python demos/demo_estimation.py   (about two minutes; writes demo_est_*/ here)
"""

from lmsmlab.harness import ExperimentConfig, run_experiment


def show(table, label, target):
    print(f"\n{label} (target {target}):")
    print("   j   n_j     raw h_hat   corrected   alpha_hat(median)")
    for row in table.rows:
        a = row["alpha_median"]
        print(f"  {row['j']:2d} {row['n_j']:5d}   {row['h_mean']:9.4f}   "
              f"{row['h_corr_mean']:9.4f}   {a if a is None else round(a, 4)}")


cfg_const = ExperimentConfig(
    alpha=1.5, hurst_name="constant", hurst_params=(0.8,),
    j_range=(6, 8, 10), delta=2.0**-14, path_refine=8,
    replicates=10, seed=1, out_dir="demo_est_const",
)
show(run_experiment(cfg_const), "constant H = 0.8 on [0, 1]", "min H = 0.8")

cfg_lin = ExperimentConfig(
    alpha=1.5, hurst_name="linear", hurst_params=(0.7, 0.15),
    j_range=(6, 8, 10), delta=2.0**-14, path_refine=8, v_nodes=16,
    replicates=10, seed=2, out_dir="demo_est_lin",
)
show(run_experiment(cfg_lin), "H(t) = 0.7 + 0.15 t on [0, 1]", "min H = 0.7, mean 0.775")

cfg_loc = ExperimentConfig(
    alpha=1.5, hurst_name="sine", hurst_params=(0.75, 0.08),
    j_range=(6, 8, 10), interval_mode="local", t0=0.25,
    delta=2.0**-14, path_refine=8, v_nodes=16,
    replicates=10, seed=3, out_dir="demo_est_loc",
)
show(run_experiment(cfg_loc), "local estimate at t0 = 0.25 for the sine profile",
     "H(t0) = 0.83")

print("\nnotes: the raw column converges like constant/j; the corrected column")
print("removes the computable moment-and-kernel constant. alpha_hat needs no")
print("correction (the constant cancels between its two ingredients) and is")
print("reported only in global mode.")
