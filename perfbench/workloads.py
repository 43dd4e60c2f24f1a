"""Benchmark workloads: one `fermiball run` config each, plus how to run it.

The benchmark seed goes into the config's ``seed`` field; everything else in a
config is fixed, so the same seed always gives the same inputs.  Only
``kernel_identities`` and ``hf_stability`` draw from the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: every experiment of the registry, in registry order
ALL_EXPERIMENTS = [
    "gauss_count",
    "kinetic_sum_scaling",
    "equator_sum_scaling",
    "slice_count_bound",
    "ellipse_count",
    "patch_audit",
    "normalization_asymptotics",
    "kernel_identities",
    "kernel_bound_fit",
    "rpa_compare",
    "small_v_fit",
    "hf_stability",
]

#: the three radii over which lattice_reach traces the lattice layer
REACH_GRID = [1600.5, 6400.5, 25600.5]

#: environment variables that set the BLAS / OpenMP thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: list[str]
    #: `n_particles` of the config: it makes `load_config` run the radius
    #: solve, so setup_s covers it; no experiment reads the top-level radius
    n_particles: int
    workers: int
    #: BLAS threads; 0 means one per core
    blas_threads: int
    options: dict = field(default_factory=dict)

    def threads(self) -> int:
        return self.blas_threads or nproc()

    def config(self, seed: int) -> dict:
        return {
            "n_particles": self.n_particles,
            "experiments": list(self.experiments),
            "seed": int(seed),
            "workers": self.workers,
            "options": self.options,
        }

    def env(self, src_dir: str) -> dict:
        """Child environment: the checkout's package first, threads pinned."""
        env = {k: v for k, v in os.environ.items() if k != "FERMIBALL_OUT"}
        env["PYTHONPATH"] = src_dir
        for var in THREAD_VARS:
            env[var] = str(self.threads())
        return env


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="registry_default",
            why=(
                "the everyday run and the end-to-end number: all 12 experiments at "
                "default grids; patch_audit's pair search sets time and peak RSS; "
                "two threads share the ball and shell caches"
            ),
            experiments=ALL_EXPERIMENTS,
            n_particles=33401,  # k_F^2 = 400.5
            workers=2,
            blas_threads=1,
        ),
        Workload(
            name="lattice_reach",
            why=(
                "the lattice layer up to N = 1.7e7, where the materialised ball sets "
                "peak RSS and the N-sized HF oracle the time; no kernel, RPA or "
                "patch audit"
            ),
            experiments=[
                "gauss_count",
                "kinetic_sum_scaling",
                "equator_sum_scaling",
                "slice_count_bound",
                "hf_stability",
            ],
            n_particles=2143641,  # k_F^2 = 6400.5
            workers=1,
            blas_threads=1,
            options={
                "gauss_count": {"k_fermi_sq_grid": REACH_GRID},
                "kinetic_sum_scaling": {"k_fermi_sq_grid": REACH_GRID},
                "equator_sum_scaling": {"k_fermi_sq_grid": REACH_GRID},
                "slice_count_bound": {"k_fermi_sq_grid": REACH_GRID},
                "hf_stability": {"k_fermi_sq": 6400.5, "n_check": 1},
            },
        ),
        Workload(
            name="rpa_many_patches",
            why=(
                "the trace route at M = 512..2048 patches, where the dense kernel "
                "solve and the per-patch shell assignment dominate; no big-N lattice "
                "and no patch audit"
            ),
            experiments=["rpa_compare"],
            n_particles=2143641,  # k_F^2 = 6400.5
            workers=1,
            blas_threads=0,
            options={
                "rpa_compare": {"schedule": [[6400.5, m] for m in (512, 1024, 2048)]}
            },
        ),
    ]
}
