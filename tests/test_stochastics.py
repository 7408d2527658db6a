"""Keyed streams, chi-square generation, and the empirical quantile rule."""

import ast
import hashlib
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import slopesize
from slopesize.critvals import critical_value_mc
from slopesize.exactnull import t2_null_draws
from slopesize.stochastics import (
    SimPlan,
    StreamKey,
    _quantile_sorted,
    _rekeyed,
    _split_items,
    chisq_array,
    generator,
    normal_array,
    normal_matrix,
)

SEED = 20260808


class TestStreamKey:
    def test_determinism(self):
        key = StreamKey(SEED, 42, 3)
        assert np.array_equal(normal_array(key, 16), normal_array(key, 16))

    def test_distinct_keys_differ(self):
        base = normal_array(StreamKey(SEED, 1, 0), 8)
        for other in (StreamKey(SEED, 2, 0), StreamKey(SEED, 1, 1), StreamKey(SEED + 1, 1, 0)):
            assert not np.array_equal(base, normal_array(other, 8))

    def test_prefix_property(self):
        # sequential draws: the first k of n draws equal a k-draw run
        key = StreamKey(SEED, 7, 100)
        assert np.array_equal(normal_array(key, 64)[:16], normal_array(key, 16))

    def test_batch_matches_per_key_draws(self):
        rows = normal_matrix(SEED, [5, 11, 23], 101, 12)
        for row, task in zip(rows, (5, 11, 23)):
            assert np.array_equal(row, normal_array(StreamKey(SEED, task, 101), 12))

    def test_field_ranges(self):
        with pytest.raises(ValueError):
            StreamKey(-1, 0, 0)
        with pytest.raises(ValueError):
            StreamKey(0, 2**64, 0)
        with pytest.raises(ValueError):
            StreamKey(0, 0, 2**32)

    def test_schedule_invariance(self):
        # assembling replicates in any order gives identical results
        tasks = list(range(20))
        forward = [float(normal_array(StreamKey(SEED, t, 0), 1)[0]) for t in tasks]
        backward = [float(normal_array(StreamKey(SEED, t, 0), 1)[0]) for t in reversed(tasks)]
        assert forward == backward[::-1]


class TestSimPlan:
    def test_defaults(self):
        plan = SimPlan(master_seed=1)
        assert plan.reps_inner == 10_000
        assert plan.reps_outer == 1_000

    @pytest.mark.parametrize("kwargs", [{"reps_inner": 99}, {"reps_outer": 0}, {"master_seed": -1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimPlan(**{"master_seed": 0, **kwargs})


class TestSampleNormal:
    def test_mean_and_variance_clt_bounds(self):
        draws = normal_array(StreamKey(SEED, 3, 0), 10**6)
        assert abs(draws.mean()) < 4 / math.sqrt(10**6)
        assert abs(draws.var() - 1.0) < 0.01


class TestSampleChisq:
    def test_positive_and_deterministic(self):
        key = StreamKey(SEED, 9, 2)
        draws = chisq_array(key, 1, 1_000)
        assert np.all(draws > 0.0)
        assert draws.tobytes() == chisq_array(key, 1, 1_000).tobytes()

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            chisq_array(StreamKey(SEED, 0, 0), 0, 1)

    def test_mean_df5(self):
        # mean=df, var=2*df: 4-sigma band for 1e6 draws
        draws = chisq_array(StreamKey(SEED, 11, 0), 5, 10**6)
        assert abs(draws.mean() - 5.0) < 4 * math.sqrt(10.0 / 10**6)

    def test_df1_is_squared_normal(self):
        # P(chi2_1 <= 1) = P(|Z| <= 1) = 0.682689
        draws = chisq_array(StreamKey(SEED, 19, 0), 1, 10**6)
        frac = float(np.mean(draws <= 1.0))
        se = math.sqrt(0.6827 * 0.3173 / 10**6)
        assert abs(frac - 0.6826895) < 3 * se

    def test_df2_is_exponential(self):
        # chi2_2 is exponential with mean 2 (numpy draws shape 1 as an exponential)
        draws = chisq_array(StreamKey(SEED, 13, 0), 2, 10**5)
        res = stats.kstest(draws, stats.chi2(2).cdf)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("task, df", [(40, 1), (41, 2), (42, 3), (43, 29), (44, 2400)])
    def test_ks_against_scipy_chi2(self, task, df):
        # each of numpy's gamma paths (shape < 1, shape 1, Marsaglia-Tsang)
        # against the chi-square CDF
        draws = chisq_array(StreamKey(SEED, task, 0), df, 10**5)
        assert stats.kstest(draws, stats.chi2(df).cdf).pvalue > 1e-3

    def test_additivity_in_distribution(self):
        a = chisq_array(StreamKey(SEED, 14, 0), 3, 10**5)
        b = chisq_array(StreamKey(SEED, 15, 1), 4, 10**5)
        c = chisq_array(StreamKey(SEED, 16, 2), 7, 10**5)
        res = stats.ks_2samp(a + b, c)
        assert res.pvalue > 0.01

    def test_fractional_shape_boost_path(self):
        # df=1 is shape 1/2, below the shape-1 floor of Marsaglia-Tsang, so
        # numpy takes its own rejection method; check the full CDF
        draws = chisq_array(StreamKey(SEED, 17, 0), 1, 10**5)
        res = stats.kstest(draws, stats.chi2(1).cdf)
        assert res.pvalue > 0.01


class TestEmpiricalQuantile:
    # the interpolation rule critical values take from the sorted draws

    def test_median_odd(self):
        assert _quantile_sorted(np.array([1.0, 2, 3, 4, 5]), 0.5) == 3.0

    def test_median_even_interpolates(self):
        assert _quantile_sorted(np.array([1.0, 2, 3, 4]), 0.5) == 2.5

    def test_hand_interpolation(self):
        # m=2, h = 0.75: 10 + 0.75 * (20 - 10)
        assert _quantile_sorted(np.array([10.0, 20.0]), 0.75) == 17.5

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.001, 0.999),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=100)
    def test_monotone_in_p_and_bounded(self, samples, p1, p2):
        lo, hi = sorted((p1, p2))
        ordered = np.sort(samples)
        q_lo = _quantile_sorted(ordered, lo)
        q_hi = _quantile_sorted(ordered, hi)
        assert q_lo <= q_hi
        assert min(samples) <= q_lo and q_hi <= max(samples)


class TestGeneratorContract:
    def test_generator_returns_fresh_state(self):
        key = StreamKey(SEED, 21, 5)
        g1 = generator(key)
        g1.standard_normal(10)
        g2 = generator(key)
        assert np.array_equal(g2.standard_normal(3), normal_array(key, 3))


# keys at the corners of the key space and two the package uses
REKEY_KEYS = [
    StreamKey(0, 0, 0),
    StreamKey(SEED, 21, 5),
    StreamKey(SEED, (1 << 40) + 999, 104),
    StreamKey(2**64 - 1, 2**64 - 1, 2**32 - 1),
    StreamKey(2**63, 1, 2**31),
]


def _fresh(key: StreamKey) -> np.random.Generator:
    """A new generator at the key, built without the package's helpers."""
    return np.random.Generator(np.random.Philox(
        key=np.array([key.master_seed, key.task_id], dtype=np.uint64),
        counter=np.array([0, 0, key.stream_id, 0], dtype=np.uint64),
    ))


class TestRekeyedStreams:
    """One-shot draws re-key the thread's own Philox; the bytes are a fresh generator's."""

    @pytest.mark.parametrize("key", REKEY_KEYS)
    def test_same_bytes_as_a_fresh_generator(self, key):
        assert normal_array(key, 1_001).tobytes() == _fresh(key).standard_normal(1_001).tobytes()
        for df in (1, 2, 29):
            assert chisq_array(key, df, 1_001).tobytes() == (
                _fresh(key).chisquare(df, 1_001).tobytes()
            )

    @pytest.mark.parametrize("key", REKEY_KEYS)
    def test_same_bytes_after_a_part_used_buffer(self, key):
        # an odd-length draw leaves part of Philox's four-word buffer unread
        gen = _rekeyed(StreamKey(SEED, 3, 0))
        gen.standard_normal(3)
        assert 0 < gen.bit_generator.state["buffer_pos"] < 4
        assert normal_array(key, 64).tobytes() == _fresh(key).standard_normal(64).tobytes()
        # a 32-bit draw keeps the other half of its word for the next one
        gen = _rekeyed(StreamKey(SEED, 4, 0))
        gen.random(dtype=np.float32)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert chisq_array(key, 3, 64).tobytes() == _fresh(key).chisquare(3, 64).tobytes()

    def test_draws_on_two_threads_equal_serial_draws(self):
        def draw(i: int) -> bytes:
            key = StreamKey(SEED, 1_000 + i, 102)
            return normal_array(key, 50 + i).tobytes() + chisq_array(key, 1 + i % 5, 50).tobytes()

        serial = [draw(i) for i in range(64)]
        split: list = [None] * 64
        threads: set[int] = set()

        def work(i: int) -> None:
            threads.add(threading.get_ident())
            split[i] = draw(i)

        _split_items(64, work)
        assert len(threads) == 2
        assert split == serial


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestSamplerBits:
    """Seeded sampler output, byte for byte.

    Captured on numpy 2.4.6, with chi-squares from Generator.chisquare and
    the ratio law's W1 drawn as Z^2; every cached critical value depends on
    these bytes, and they move if numpy changes its gamma or normal
    algorithm. df 1 is shape 1/2 (numpy's shape < 1 rejection), df 2 shape
    1 (an exponential), and df 3, 29 and 2400 take Marsaglia-Tsang.
    """

    @pytest.mark.parametrize(
        "task, df, digest",
        [
            (0, 1, "88e56cc67c43e382775aafd529dc751a2712887b39fb7099488287a37e69b1c0"),
            (1, 2, "c1e4905e3d839a4504ca7fe05b67a3fee19c4f4065fec6d223a605f445e32c3d"),
            (2, 3, "40ef99e4ffb1e6259df837362e8c33707786263e34ed706d8f2f4f56b321a34b"),
            (3, 29, "82616c31e463d838f11a4504e5acf0590dc428ed64f83c487a417054aaf329e2"),
            (4, 2400, "df7071e926d0f10a5e7a1a7adbd0456cd25d34f2ee56fd36b9f129ac528dc5f1"),
        ],
    )
    def test_chisq_array(self, task, df, digest):
        assert _sha256(chisq_array(StreamKey(SEED, task, 0), df, 100_000)) == digest

    def test_t2_null_draws(self):
        assert _sha256(t2_null_draws(StreamKey(SEED, 7), 30, 10_000)) == (
            "a21c8d9b35f0f222ad643aaa6ad68a3efd56ca3f2712419ab840c22603d7b0eb"
        )

    def test_critical_value_mc(self):
        est = critical_value_mc(30, 0.05, SimPlan(10_000, 20, SEED))
        assert est.value.hex() == "0x1.98fe878096143p-2"
        assert est.sd.hex() == "0x1.d82aae45d7990p-9"

    def test_v_nonpositive_is_rejected(self):
        # this key's normals reach below -sqrt(6), where a Marsaglia-Tsang
        # candidate at shape 1 (df 2, c = 1/sqrt(6)) would have v <= 0; its
        # chi-square draws must still be positive and finite
        first_pass = generator(StreamKey(SEED, 1, 0)).standard_normal(100_000)
        assert first_pass.min() < -math.sqrt(6.0)
        draws = chisq_array(StreamKey(SEED, 1, 0), 2, 100_000)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)


def _package_sites(matches) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every AST node in the package that matches."""
    found = set()
    for path in sorted(Path(slopesize.__file__).parent.glob("*.py")):

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if matches(node):
                found.add((path.stem, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
    return found


def _calls(name: str):
    """Matches a call of name, bare or as an attribute."""

    def matches(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name

    return matches


def _sets_state(node) -> bool:
    """Matches an assignment to some object's .state (a bit generator's re-keying)."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Attribute) and t.attr == "state" for t in targets)


def test_only_split_items_starts_a_thread():
    # _split_items joins the one thread it starts, so no package thread
    # outlives a split
    starts = (_calls("Thread"), _calls("ThreadPoolExecutor"))
    assert _package_sites(lambda node: any(m(node) for m in starts)) == {
        ("stochastics", "_split_items")
    }


def test_only_stochastics_builds_or_rekeys_bit_generators():
    # the streams' keying and the thread's re-keyed Philox live in one module
    for matches in (_calls("Philox"), _calls("Generator"), _sets_state):
        assert {module for module, _ in _package_sites(matches)} == {"stochastics"}
