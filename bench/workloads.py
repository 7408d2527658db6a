"""The benchmark's three request workloads and the checks on their answers.

A workload turns the run seed into rounds of requests. Round r of a run
always holds the same operations; only the inputs drawn from (seed, r)
change, so every round is comparable and ``failed`` is the same share of
``attempted`` in every run. A request is a zero-argument callable that calls
the program through its public module attributes, looked up at call time so
that the traced run sees them through its wrappers.

Checks run after the timed rounds and compare against ``oracle`` (scipy
quadrature, no slopesize code) or against properties the method must have;
none compares against stored program output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from pathlib import Path

import numpy as np

from slopesize import cli, corroute, critvals, powersim
from slopesize.stochastics import SimPlan

# checks flag a deviation beyond this many standard errors
K_SE = 5.0

LAMBDAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
TARGETS = [0.80, 0.90, 0.95, 0.99]
ALPHAS = [0.10, 0.05, 0.01]

# the paper's published correlation-route sample sizes (Tables 5-7,
# CorrTest columns): {alpha: {lambda: [n at 80/90/95/99% power]}}
PUBLISHED_CORR_N = {
    0.10: {0.1: [622, 861, 1088, 1584], 0.2: [159, 219, 276, 401],
           0.3: [73, 100, 126, 182], 0.4: [43, 58, 73, 106],
           0.5: [29, 39, 49, 70], 0.6: [21, 29, 36, 51]},
    0.05: {0.1: [790, 1057, 1306, 1846], 0.2: [201, 269, 332, 468],
           0.3: [92, 123, 151, 213], 0.4: [54, 72, 88, 123],
           0.5: [37, 48, 59, 82], 0.6: [27, 35, 43, 59]},
    0.01: {0.1: [1175, 1496, 1790, 2414], 0.2: [299, 380, 454, 612],
           0.3: [137, 173, 207, 278], 0.4: [80, 101, 120, 161],
           0.5: [53, 67, 80, 107], 0.6: [39, 49, 58, 77]},
}


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r, a fixed function of the run seed."""
    return int(np.random.default_rng([seed, r]).integers(2**63))


@functools.cache
def _oracle():
    # scipy is imported only for the checks, after memory has been read
    import oracle

    return oracle


@functools.cache
def ratio_law_band(n: int, alpha: float, draws: int, outer: int) -> tuple[float, float]:
    """(reference value, allowed deviation) of an exact-MC critical value.

    The estimator averages sqrt of the interpolated (1 - alpha) order
    statistic of `draws` ratio-law draws over `outer` replicates. Its
    standard error is sqrt(p(1-p)/draws) / f(c) / sqrt(outer), with f the
    density of |T| at c. The interpolated order statistic at h = (m-1)p
    estimates the quantile at level p + (1-2p)/(m+1), which gives the known
    low bias; the band allows twice that shift on top of K_SE errors.
    """
    orc = _oracle()
    p = 1.0 - alpha
    c = orc.ratio_law_critical_value(n, alpha)
    dens = orc.ratio_law_density_abs(n, c)
    se = math.sqrt(p * (1.0 - p) / draws) / dens / math.sqrt(outer)
    bias = 2.0 * abs(1.0 - 2.0 * p) / (draws + 1) / dens
    return c, K_SE * se + bias


class Workload:
    """Hooks every workload provides; the round-level ones default to nothing."""

    name: str

    def requests(self, r: int) -> list:
        """[(cell, request)] for round r."""
        raise NotImplementedError

    def end_round(self, r: int) -> dict:
        """State of round r to keep for the checks, read after it ends."""
        return {}

    def check_round(self, round_info: dict) -> list[str]:
        return []

    def check(self, cell, result, round_info: dict) -> list[str]:
        raise NotImplementedError


class SlopeSearch(Workload):
    """Slope-route sample sizes for small-n cells of the paper's grid.

    A round asks for every cell at one level. The cells share one
    critical-value plan, drawn from (seed, r), and one cache file that
    starts empty, so a later cell reads back the critical values an earlier
    one stored.

    The power-plan seed of each cell is fixed, the same in every round and
    run. It decides the probe and validation draws, hence the search path,
    and the path length sets a search's cost: drawn from the run seed, it
    spread wall_s by 0.44-0.50 (quartile distance over median) across ten
    seeds, more than any allowed bound. Fixed, every round does the same
    search work, while the run seed still moves the critical values, the
    cache contents and every checked answer. Each fixed seed is the lowest
    in 0-9 whose search takes the cell's median path over seeds 0-9 (251
    validation runs, at one critical-value plan).
    """

    name = "slope_search"
    # (lambda, alpha, target power)
    CELLS = [(0.6, 0.10, 0.80), (0.6, 0.10, 0.90), (0.5, 0.10, 0.80)]
    POWER_SEEDS = [1, 2, 1]
    POWER = (1_000, 51)  # trials per estimate, validation runs (scouts use 50)
    CRITVAL = (10_000, 10)  # draws per replicate, replicates

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = seed
        self.cache_path = outdir / f"cv-{self.name}-{seed}.txt"
        self.cache_path.write_text("")
        self.cache = critvals.CriticalValueCache(self.cache_path)

    def requests(self, r: int) -> list:
        self.cache_path.write_text("")
        cv_plan = SimPlan(*self.CRITVAL, master_seed=round_seed(self.seed, r))

        def ask(lam, alpha, target, seed):
            plan = SimPlan(*self.POWER, master_seed=seed)
            return lambda: powersim.find_sample_size_slope(
                lam, alpha, target, plan, cache=self.cache, critval_plan=cv_plan
            )

        return [(cell, ask(*cell, seed)) for cell, seed in zip(self.CELLS, self.POWER_SEEDS)]

    def end_round(self, r: int) -> dict:
        """Critical values the round left in its cache file, parsed here."""
        stored = {}
        for line in self.cache_path.read_text().splitlines():
            n, alpha, inner, outer, seed, value, sd = line.split()
            stored[(int(n), float(alpha))] = float(value)
        return {"cache": stored}

    def check_round(self, round_info) -> list[str]:
        errors = []
        for (n, alpha), value in round_info["cache"].items():
            ref, band = ratio_law_band(n, alpha, *self.CRITVAL)
            if abs(value - ref) > band:
                errors.append(f"cached C({n},{alpha})={value:.6f}, quadrature {ref:.6f} +- {band:.6f}")
        return errors

    def check(self, cell, result, round_info) -> list[str]:
        lam, alpha, target = cell
        trials, runs = self.POWER
        stored = round_info["cache"]
        n = result.n
        if (n, alpha) not in stored or (n - 1, alpha) not in stored:
            return [f"{cell}: critical values for n={n} and n-1 missing from the cache"]
        errors = []
        # the search's pass mark: target minus half a one-estimate binomial SE, at most 0.005
        threshold = target - min(0.005, 0.5 * math.sqrt(target * (1.0 - target) / trials))
        orc = _oracle()
        q_n = orc.slope_power(n, lam, stored[(n, alpha)])
        q_prev = orc.slope_power(n - 1, lam, stored[(n - 1, alpha)])
        se_full = math.sqrt(q_n * (1.0 - q_n) / (trials * runs))
        se_scout = math.sqrt(q_prev * (1.0 - q_prev) / (trials * min(50, runs)))
        if q_n < threshold - K_SE * se_full:
            errors.append(f"{cell}: power {q_n:.4f} at n={n} below threshold {threshold:.4f}")
        if q_prev >= threshold + K_SE * se_scout:
            errors.append(f"{cell}: power {q_prev:.4f} at n-1={n - 1} clears threshold {threshold:.4f}")
        if abs(result.validated_mean - q_n) > K_SE * se_full:
            errors.append(f"{cell}: validated mean {result.validated_mean:.4f} vs quadrature {q_n:.4f}")
        return errors


class CritvalExact(Workload):
    """Exact critical values through the command line, n across Table 1."""

    name = "critval_exact"
    STRATA = [(20, 36), (36, 52), (52, 68), (68, 84), (84, 101)]
    CRITVAL = (10_000, 100)

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = seed

    def requests(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r, 1])
        ms = round_seed(self.seed, r)
        reqs = []
        for lo, hi in self.STRATA:
            n = int(rng.integers(lo, hi))
            for alpha in ALPHAS:
                argv = ["critval", "--n", str(n), "--alpha", str(alpha), "--method", "exact",
                        "--reps-inner", str(self.CRITVAL[0]), "--reps-outer", str(self.CRITVAL[1]),
                        "--seed", str(ms)]
                reqs.append(((n, alpha), functools.partial(self._call, argv)))
        return reqs

    @staticmethod
    def _call(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"slopesize {' '.join(argv)} exited {code}")
        return out.getvalue()

    def check(self, cell, result, round_info) -> list[str]:
        n, alpha = cell
        fields = dict(kv.split("=", 1) for kv in result.split())
        if int(fields["n"]) != n or float(fields["alpha"]) != alpha:
            return [f"{cell}: answer names another cell: {result.strip()}"]
        ref, band = ratio_law_band(n, alpha, *self.CRITVAL)
        value = float(fields["value"])
        # the command prints six decimals
        if abs(value - ref) > band + 5e-7:
            return [f"C({n},{alpha})={value}, quadrature {ref:.6f} +- {band:.6f}"]
        return []


class CorrRoute(Workload):
    """Correlation-route sizes for all 72 cells, then MC power at that n.

    The cells run in the paper's table order in every round: the sizes are
    deterministic, so the order fixes the sequence of allocations and with
    it the peak memory, and the seed only changes the Monte Carlo draws.
    """

    name = "corr_route"
    TRIALS = 2_000

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = seed
        self.cells = [(lam, alpha, target) for alpha in ALPHAS for lam in LAMBDAS for target in TARGETS]

    def requests(self, r: int) -> list:
        plan = SimPlan(reps_inner=self.TRIALS, reps_outer=1, master_seed=round_seed(self.seed, r))

        def ask(lam, alpha, target):
            rho = lam / math.sqrt(1.0 + lam * lam)

            def request():
                res = corroute.find_sample_size_corr(rho, alpha, target, plan)
                return res, corroute.corr_power_mc(res.n, rho, alpha, plan)

            return request

        return [(cell, ask(*cell)) for cell in self.cells]

    def check(self, cell, result, round_info) -> list[str]:
        lam, alpha, target = cell
        res, est = result
        n = res.n
        rho = lam / math.sqrt(1.0 + lam * lam)
        orc = _oracle()
        errors = []
        # 1e-9 is the probability accuracy the program's t quantile promises
        if not (orc.fisher_z_power(n, rho, alpha) >= target - 1e-9
                and orc.fisher_z_power(n - 1, rho, alpha) < target + 1e-9):
            errors.append(f"{cell}: n={n} is not the smallest n with Fisher-z power >= {target}")
        published = PUBLISHED_CORR_N[alpha][lam][TARGETS.index(target)]
        if abs(n - published) > 2:
            errors.append(f"{cell}: n={n}, published {published}")
        exact = _exact_corr_power(n, rho, alpha)
        band = K_SE * math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        if est.n != n or abs(est.power - exact) > band:
            errors.append(f"{cell}: MC power {est.power:.4f} at n={est.n}, exact {exact:.4f} +- {band:.4f}")
        return errors


@functools.cache
def _exact_corr_power(n: int, rho: float, alpha: float) -> float:
    return _oracle().corr_power_exact(n, rho, alpha)


WORKLOADS = {w.name: w for w in (SlopeSearch, CritvalExact, CorrRoute)}
