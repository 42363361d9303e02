"""The benchmark's workloads: coupled studies shaped like the acceptance
studies A9, A1 and A2, at a reduced realization count.

All three use N=64, T=1 and the five schemes of the acceptance studies.
They are chosen to stress different layers:

* ex3-ewpref (A9 shape) is dominated by the fine `ewp` reference solve,
  so changes to the reference, the sampler or `ewp_step` show here;
* ex1-exact (A1 shape) has an exact reference and a single noise mode,
  so sampling and coarsening are negligible and the coarse steppers,
  above all the tableau engine `erkm_step`, carry the time; reference
  and sampler changes should not move it;
* ex2-pool2 (A2 shape) runs through `spderk study --workers 2`, the only
  workload that covers the worker pool and the CLI's file output.  Its
  eight realizations give each worker four tasks, so how the pool splits
  the work shows, and pool start-up is spread over more than one task.
"""

from dataclasses import dataclass

SCHEMES = ("lie", "exe", "dfmm", "ewp", "erkm15")

# grid-wide f/b evaluations per step (acceptance criterion A7)
EVALS_PER_STEP = {"lie": 2, "exe": 2, "dfmm": 3, "ewp": 6, "erkm15": 11}


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    K: int
    M_list: tuple
    reference: dict
    default_seed: int
    workers: int    # more than one: run through the CLI and its worker pool
    R: int          # realizations per study

    @property
    def ref_M(self):
        return self.reference.get("M")

    def config(self, seed, R, out_dir):
        """The study as a JSON-ready `spderk study` config."""
        return {
            "problem": self.problem,
            "N": 64,
            "K": self.K,
            "T": 1.0,
            "M_list": list(self.M_list),
            "realizations": R,
            "schemes": list(SCHEMES),
            "reference": dict(self.reference),
            "seed": seed,
            "out_dir": out_dir,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex3-ewpref", "example3", 64, (8, 16, 32, 64, 128, 256),
                 {"mode": "ewp", "M": 4096}, 909, 1, 2),
        Workload("ex1-exact", "example1", 1, (8, 16, 32, 64, 128, 256, 512),
                 {"mode": "exact"}, 101, 1, 2),
        Workload("ex2-pool2", "example2", 64, (8, 16, 32, 64, 128, 256),
                 {"mode": "ewp", "M": 4096}, 202, 2, 8),
    )
}
