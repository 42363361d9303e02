"""
A small strong-convergence study
================================

Runs the Monte-Carlo error study on the multiplicative-noise heat
equation with a known exact solution, at a fraction of the acceptance
scale, and fits temporal orders.  The exponential Euler scheme sits
near 1/2, the derivative-free Milstein variant near 1, and the 1.5
schemes at 3/2 or a little above (fits run high at this tiny scale).
On this problem the noise is linear and space-constant and the drift
is zero, so the two 1.5 schemes coincide step for step; example3, with
its trigonometric coefficients, separates them.  Expect a few seconds.

The same study is available from the command line:

    spderk study config.json

with the configuration echoed into <out_dir>/<problem>_meta.json.
"""

from spderk import ReferenceSpec, StudyConfig, fit_order, run_study

cfg = StudyConfig(
    "example1", N=32, K=1, T=1.0,
    M_list=(8, 16, 32, 64, 128),
    realizations=50,
    schemes=("exe", "dfmm", "ewp", "erkm15"),
    reference=ReferenceSpec("exact"),
    seed=12,
)

table = run_study(cfg)

print("scheme     M      h          rms error")
for row in table.rows:
    print("%-8s %4d   %.6f   %.6e" % (row.scheme, row.M, row.h, row.rms_error))

print()
for scheme in cfg.schemes:
    slope, resid = fit_order(table, scheme)
    print("%-8s fitted order %.3f   (lsq residual %.2e)" % (scheme, slope, resid))
