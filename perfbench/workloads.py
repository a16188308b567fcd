"""Workload definitions and the seeded input generator.

Each workload is one run of the paper's pipeline: fit the skew model, fit the
Gaussian graphical baseline (`--fix-delta-zero`), then compare the two traces
by a harmonic-mean Bayes factor. The program only ever sees the generated
`data.csv` and `graph.json`, in its documented file formats; `truth.json`
stays with the benchmark and feeds the output checks.

This module imports nothing from `sgdg` at import time, so that the worker can
load the definitions before it starts timing the program's own import.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    prior: str
    iters: int
    burnin: int
    thin: int
    # checks on the outputs, besides the ones every workload gets
    min_log_bf: float = None  # skew over Gaussian, from compare.json
    delta_signs: bool = False  # skew fit: posterior mean delta has the truth's signs
    l_signs: bool = False  # both fits: posterior mean L has the truth's signs
    data_seed: int = None  # draws the data from this seed, not the benchmark's, when set
    fit_seed: int = None  # derives the fit seeds from this, not the benchmark's, when set

    @property
    def retained(self):
        return (self.iters - self.burnin) // self.thin

    @staticmethod
    def fit_seeds(seed):
        """Seeds of the skew and baseline fits, the same for every pipeline of a run.

        The evidence fixed point in `compare` takes a number of iterations
        that depends on the draws (24 to 59 on marks across ten fit seeds), so
        pipelines with their own fit seeds would make the fastest compare of a
        run the one with the luckiest draws, and a faster fit, which leaves
        time for more pipelines, would lower compare_s. With one pair of fit
        seeds per run, every repeat of `compare` does the same work.
        """
        return 100 * seed, 100 * seed + 1

    def fit_args(self, seed, baseline):
        args = ["--data", "../inputs/data.csv", "--graph", "../inputs/graph.json",
                "--prior", self.prior, "--iters", str(self.iters), "--burnin", str(self.burnin),
                "--thin", str(self.thin), "--seed", str(seed)]
        if baseline:
            args.append("--fix-delta-zero")
        return args


WORKLOADS = {
    # The paper's case study: bundled marks data (k=5, n=88) under the proper
    # diffuse prior (the CLI's default hyperparameters, as in acceptance
    # criteria 9 and 10). The matrices are tiny, so per-call Python and
    # validation overhead dominates the sweep; a per-call-overhead change
    # must show here and a BLAS-level change should show nothing. Plot data
    # is a fixed cost of about half a second per fit.
    # The data do not depend on the seed, so neither do the fit seeds: every
    # run of this workload times the same work.
    "marks": Workload("marks", prior="proper", iters=1500, burnin=500, thin=10, min_log_bf=5.0,
                      fit_seed=1),
    # A banded chordal graph (k=40, bandwidth 3; the identity labels are a
    # perfect elimination ordering) with n=2000 draws from a seeded truth,
    # under the noninformative prior. Per-call overhead is negligible: the
    # L block (which rebuilds y0'y0 for every row) and the 80k truncated
    # normal draws of the u block carry the sweep, and plot data (40 KDE
    # columns) and summaries (237 columns) carry the output layer.
    # The skew loadings are mild (|delta| in 0.5..1.5): with |delta| in 2..4
    # the chain, started at delta = 0, was still leaving zero after 1000
    # sweeps, so the retained draws trended and the evidence fixed point took
    # 335-504 iterations depending on the seed (13-20 for the baseline). Their
    # signs are not identified at this length either, so the L factor, which
    # both fits estimate consistently, is checked instead. A run has time for
    # one or two pipelines only, so the inputs are the same for every seed:
    # with seeded data and fit seeds, compare_s followed the seed (its 12
    # draws took 22 to 42 fixed-point iterations) rather than the program.
    "banded": Workload("banded", prior="noninfo", iters=160, burnin=40, thin=10, l_signs=True,
                       data_seed=1, fit_seed=1),
    # The paper's simulation case C (3-vertex chain, delta = (3, -2, -4),
    # n=200) under the pattern-Wishart prior (default psi, Psi = I) at thin 1.
    # The hyperparameters depend on the state and are re-resolved twice per
    # sweep, so caching them for fixed regimes must leave this workload
    # unchanged. Every sweep also pays the observed-data log likelihood and
    # appends a trace record, so `compare` reads back ten times as many
    # records per sweep as the other workloads do.
    # The data come from one fixed seed because n=200 does not identify the
    # sign of delta_2 for every draw: for data seed 28, two 20000-sweep chains
    # put 0.75 of the posterior on delta_2 > 0, so the sign check would fail
    # a correct sampler. For data seed 1 they put at least 0.98 on each of
    # the truth's signs. The fits take their seeds from the benchmark's seed.
    # The chain runs 3200 sweeps because delta_2 mixes slowly from its start
    # at zero: after 1200 sweeps the posterior mean of delta_2 had the wrong
    # sign for 3 of 40 data seeds (effective sample size about 4) and for 1 of
    # 60 fit seeds on data seed 1. At 3200 sweeps none of these failed.
    "simC_wishart": Workload("simC_wishart", prior="wishart", iters=3200, burnin=200, thin=1,
                             delta_signs=True, data_seed=1),
}

BANDED_K = 40
BANDED_BANDWIDTH = 3
BANDED_N = 2000
SIMC_N = 200


def _banded_truth(rng):
    import numpy as np

    from sgdg.graph import Graph

    k, w = BANDED_K, BANDED_BANDWIDTH
    g = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, min(k, i + w + 1))])
    mu = rng.uniform(-5.0, 5.0, k)
    delta = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.5, k)
    omega2 = rng.uniform(0.5, 2.0, k)
    L = np.eye(k)
    for i, j in g.sorted_edges():
        L[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4)
    return g, mu, delta, omega2, L


def _simc_truth():
    import numpy as np

    from sgdg.graph import Graph

    L = np.eye(3)
    L[0, 1] = -0.5
    L[1, 2] = 0.5
    return Graph(3, [(0, 1), (1, 2)]), 5.0 * np.ones(3), np.array([3.0, -2.0, -4.0]), np.ones(3), L


def generate(name, seed, out):
    """Write data.csv, graph.json and truth.json for workload `name` into `out`.

    The same (name, seed) always writes the same bytes.
    """
    import numpy as np

    from sgdg.cli import write_dataset
    from sgdg.model import ReparamParams, reparam_inverse, sample_sgdg

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    truth = {"workload": name, "seed": int(seed)}
    if name == "marks":
        bundled = resources.files("sgdg.datasets")
        (out / "data.csv").write_bytes((bundled / "mathmarks.csv").read_bytes())
        (out / "graph.json").write_bytes((bundled / "mathmarks_graph.json").read_bytes())
    else:
        rng = np.random.default_rng([int(seed), 20130919])
        if name == "banded":
            g, mu, delta, omega2, L = _banded_truth(rng)
            n = BANDED_N
        elif name == "simC_wishart":
            g, mu, delta, omega2, L = _simc_truth()
            n = SIMC_N
        else:
            raise KeyError(name)
        params = ReparamParams(mu, delta, omega2, L, g)
        data = sample_sgdg(reparam_inverse(params), rng, n)
        truth.update(mu=mu.tolist(), delta=delta.tolist(), omega2=omega2.tolist(),
                     L=[[a + 1, b + 1, float(L[a, b])] for a, b in g.sorted_edges()])
        write_dataset(out / "data.csv", data, [f"x{i + 1}" for i in range(g.k)])
        g.save(out / "graph.json")
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n")
