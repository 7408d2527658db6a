"""Critical values: Monte Carlo route, in-process memo, normal approximation,
table, cache.

Published-table anchors (3-decimal values) used below:

    n=20:  normal10 0.423  cv10 0.417  normal5 0.504  cv5 0.518  normal1 0.663  cv1 0.75
    n=30:  normal10 0.329  cv10 0.326  normal5 0.391  cv5 0.399  normal1 0.514  cv1 0.56
    n=50:  normal10 0.245  cv10 0.244  normal5 0.292  cv5 0.296  normal1 0.384  cv1 0.404
    n=100: normal10 0.169  cv10 0.168  normal5 0.201  cv5 0.202  normal1 0.264  cv1 0.271
"""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from conftest import assert_no_helper_alive
from slopesize import critvals
from slopesize.critvals import (
    EXACT_MC,
    NORMAL_APPROX,
    TABLE1_COLUMNS,
    TABLE1_LEVELS,
    CriticalValueCache,
    CriticalValueEstimate,
    cached_critical_value,
    critical_value_mc,
    critical_value_normal,
    critical_values_mc_multi,
    table1,
)
from slopesize.exactnull import t2_null_draws
from slopesize.stochastics import SimPlan, StreamKey, _quantile_sorted

SEED = 20260808

# reduced outer count; the mean's SE is ~3e-4, well under table tolerances
PLAN = SimPlan(reps_inner=10_000, reps_outer=100, master_seed=SEED)
# a cheap plan for tests that count draws rather than check values
SMALL = SimPlan(reps_inner=1_000, reps_outer=20, master_seed=SEED)


def serial_hex(n, alphas, plan):
    """Hex (value, sd) per level from one loop over the replicates on this thread."""
    roots = [[] for _ in alphas]
    for j in range(plan.reps_outer):
        draws = t2_null_draws(StreamKey(plan.master_seed, j), n, plan.reps_inner)
        draws.sort()
        for level_roots, alpha in zip(roots, alphas):
            level_roots.append(math.sqrt(_quantile_sorted(draws, 1.0 - alpha)))
    sds = [float(np.std(r, ddof=1)) if plan.reps_outer > 1 else 0.0 for r in roots]
    return [(float(np.mean(r)).hex(), sd.hex()) for r, sd in zip(roots, sds)]


def hex_pairs(ests):
    """Hex (value, sd) of each estimate."""
    return [(e.value.hex(), e.sd.hex()) for e in ests]


def fresh_mc(n, alpha, plan):
    """critical_value_mc computed from new draws, with the memo emptied first."""
    critvals._MC_MEMO.clear()
    return critical_value_mc(n, alpha, plan)


class TestNormalApprox:
    @pytest.mark.parametrize(
        "n,alpha,want",
        [
            (30, 0.05, 0.391),
            (20, 0.10, 0.423),
            (50, 0.01, 0.384),
            (100, 0.10, 0.169),
            (75, 0.05, 0.234),
        ],
    )
    def test_published_cells_to_3_decimals(self, n, alpha, want):
        est = critical_value_normal(n, alpha)
        assert f"{est.value:.3f}" == f"{want:.3f}"
        assert est.method == NORMAL_APPROX
        assert est.sd == 0.0

    def test_multiplier_matches_displayed_z(self):
        import math

        for alpha, z_disp in ((0.10, 1.645), (0.05, 1.96), (0.01, 2.576)):
            est = critical_value_normal(30, alpha)
            mult = est.value / math.sqrt(28.0 / 702.0)
            assert abs(mult - z_disp) < 5e-4

    @pytest.mark.parametrize("n", [3, 4])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError, match="exceed 4"):
            critical_value_normal(n, 0.05)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            critical_value_normal(30, 1.5)


class TestExactMc:
    def test_deterministic_given_plan(self):
        a = critical_value_mc(30, 0.05, PLAN)
        assert fresh_mc(30, 0.05, PLAN) == a

    def test_published_anchor_n30(self):
        est = critical_value_mc(30, 0.05, PLAN)
        assert est.value == pytest.approx(0.399, abs=0.01)
        assert est.method == EXACT_MC
        assert 0.0 < est.sd < 0.02

    def test_published_anchor_n20_alpha01(self):
        est = critical_value_mc(20, 0.01, PLAN)
        assert est.value == pytest.approx(0.75, abs=0.02)

    def test_published_anchor_n100_alpha10(self):
        est = critical_value_mc(100, 0.10, PLAN)
        assert est.value == pytest.approx(0.168, abs=0.005)

    def test_multi_matches_single_calls(self):
        multi = critical_values_mc_multi(40, [0.10, 0.01], PLAN)
        assert multi[0] == fresh_mc(40, 0.10, PLAN)
        assert multi[1] == fresh_mc(40, 0.01, PLAN)

    def test_level_monotonicity(self):
        ests = critical_values_mc_multi(30, [0.10, 0.05, 0.01], PLAN)
        assert ests[2].value > ests[1].value > ests[0].value
        approx = [critical_value_normal(30, a).value for a in (0.10, 0.05, 0.01)]
        assert approx[2] > approx[1] > approx[0]

    def test_decay_in_n(self):
        values = [critical_value_mc(n, 0.05, PLAN) for n in (20, 35, 60, 100)]
        for a, b in zip(values, values[1:]):
            noise = 2.0 * (a.sd + b.sd)
            assert b.value < a.value + noise

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            critical_value_mc(2, 0.05, PLAN)
        with pytest.raises(ValueError):
            critical_value_mc(30, 0.0, PLAN)


class TestMemo:
    """One set of draws per (n, plan) serves every level in the process."""

    @pytest.mark.parametrize("alpha", [*TABLE1_LEVELS, 0.2])
    def test_hit_equals_fresh_draw(self, draw_calls, alpha):
        critical_value_mc(25, 0.2, SMALL)
        del draw_calls[:]
        hit = critical_value_mc(25, alpha, SMALL)
        assert draw_calls == []
        assert hit == fresh_mc(25, alpha, SMALL)
        assert len(draw_calls) == SMALL.reps_outer

    def test_second_and_third_levels_make_no_draws(self, draw_calls):
        first = critical_value_mc(25, 0.10, SMALL)
        assert len(draw_calls) == SMALL.reps_outer
        others = [critical_value_mc(25, alpha, SMALL) for alpha in (0.05, 0.01)]
        assert len(draw_calls) == SMALL.reps_outer
        assert first.value < others[0].value < others[1].value

    @pytest.mark.parametrize("n, plan", [
        (26, SMALL),
        (25, dataclasses.replace(SMALL, master_seed=SEED + 1)),
        (25, dataclasses.replace(SMALL, reps_inner=1_001)),
        (25, dataclasses.replace(SMALL, reps_outer=21)),
    ])
    def test_other_key_is_a_miss(self, draw_calls, n, plan):
        critical_value_mc(25, 0.05, SMALL)
        del draw_calls[:]
        est = critical_value_mc(n, 0.05, plan)
        assert len(draw_calls) == plan.reps_outer
        assert est == fresh_mc(n, 0.05, plan)

    def test_only_the_plan_drawn_last_is_kept(self, draw_calls):
        other = dataclasses.replace(SMALL, master_seed=SEED + 1)
        critical_value_mc(25, 0.05, SMALL)
        critical_value_mc(26, 0.05, SMALL)
        assert {key[2] for key in critvals._MC_MEMO} == {SMALL}
        critical_value_mc(25, 0.05, other)
        critical_value_mc(26, 0.2, other)
        assert {key[2] for key in critvals._MC_MEMO} == {other}
        assert len(critvals._MC_MEMO) == 7  # 25: the table levels; 26: and 0.2
        del draw_calls[:]
        again = [critical_value_mc(25, alpha, other) for alpha in TABLE1_LEVELS]
        assert draw_calls == []
        assert again[1] == fresh_mc(25, 0.05, other)

    def test_table1_row_then_cached_value_draws_nothing_and_stores(
        self, draw_calls, tmp_path
    ):
        row = table1([25], SMALL)[0]
        del draw_calls[:]
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        est = cached_critical_value(25, 0.01, SMALL, cache)
        assert draw_calls == []
        assert est.value == row["criticalvalue1"]
        assert path.read_text() == (
            f"25 0.01 {SMALL.reps_inner} {SMALL.reps_outer} {SEED} {est.value!r} {est.sd!r}\n"
        )


class Boom(RuntimeError):
    pass


class TestSplitReplicates:
    """The caller draws the even replicates and the helper thread the odd ones."""

    LEVELS = [*TABLE1_LEVELS, 0.2]

    @pytest.mark.parametrize("reps_outer", [1, 2, 7])
    def test_bit_identical_to_one_serial_loop(self, reps_outer):
        plan = dataclasses.replace(SMALL, reps_outer=reps_outer)
        got = critical_values_mc_multi(27, self.LEVELS, plan)
        assert hex_pairs(got) == serial_hex(27, self.LEVELS, plan)

    def test_callers_on_many_threads_get_serial_bits(self):
        # more callers than cores, all sharing the one helper, with frequent
        # thread switches: a lost or misplaced replicate would move a bit
        plan = dataclasses.replace(SMALL, reps_outer=7)
        sizes = (21, 22, 23, 24)
        got = {}

        def call(n):
            got[n] = critical_values_mc_multi(n, [0.05], plan)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(n,)) for n in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for n in sizes:
            assert hex_pairs(got[n]) == serial_hex(n, [0.05], plan)

    @pytest.mark.parametrize("bad", [3, 2], ids=["helper_half", "caller_half"])
    def test_a_failing_half_raises_keeps_nothing_and_frees_the_helper(
        self, monkeypatch, bad
    ):
        real = critvals.t2_null_draws

        def failing(key, n, size):
            if key.task_id == bad:
                raise Boom(f"replicate {key.task_id}")
            return real(key, n, size)

        monkeypatch.setattr(critvals, "t2_null_draws", failing)
        with pytest.raises(Boom):
            critical_value_mc(25, 0.05, SMALL)
        assert not [key for key in critvals._MC_MEMO if key[0] == 25 and key[2] == SMALL]
        monkeypatch.setattr(critvals, "t2_null_draws", real)
        assert_no_helper_alive()
        est = critical_value_mc(25, 0.05, SMALL)
        assert hex_pairs([est]) == serial_hex(25, [0.05], SMALL)


class TestNormalApproxConvergence:
    def test_max_gap_on_large_n_band(self):
        for n in (100, 150, 200):
            exact = critical_value_mc(n, 0.10, PLAN)
            approx = critical_value_normal(n, 0.10)
            assert abs(exact.value - approx.value) <= 0.003


class TestTable1:
    def test_column_names_and_values(self):
        rows = table1([30], PLAN)
        assert list(rows[0].keys()) == TABLE1_COLUMNS
        row = rows[0]
        assert row["samplesize"] == 30
        assert f"{row['normal5']:.3f}" == "0.391"
        assert row["criticalvalue5"] == pytest.approx(0.399, abs=0.01)
        assert row["criticalvalue1"] == pytest.approx(0.56, abs=0.02)

    def test_exact_columns_share_draws_with_single_calls(self):
        row = table1([25], PLAN)[0]
        assert row["criticalvalue10"] == critical_value_mc(25, 0.10, PLAN).value

    def test_range_validation(self):
        with pytest.raises(ValueError):
            table1([4], PLAN)


# a stored record; the cache keeps whatever value and sd it is given
ESTIMATE = CriticalValueEstimate(n=20, alpha=0.05, value=0.5, sd=0.01, method=EXACT_MC)


class TestCache:
    def test_hit_is_bit_identical(self, tmp_path):
        cache = CriticalValueCache(tmp_path / "cv.txt")
        first = cached_critical_value(20, 0.05, PLAN, cache)
        again = cached_critical_value(20, 0.05, PLAN, cache)
        assert first == again
        assert cache.lookup(20, 0.05, PLAN) == first

    def test_seed_is_part_of_the_key(self, tmp_path):
        cache = CriticalValueCache(tmp_path / "cv.txt")
        a = cached_critical_value(20, 0.05, PLAN, cache)
        other = dataclasses.replace(PLAN, master_seed=SEED + 1)
        b = cached_critical_value(20, 0.05, other, cache)
        assert a.value != b.value
        assert cache.lookup(20, 0.05, PLAN).value == a.value
        assert cache.lookup(20, 0.05, other).value == b.value

    def test_reps_are_part_of_the_key(self, tmp_path):
        cache = CriticalValueCache(tmp_path / "cv.txt")
        cached_critical_value(20, 0.05, PLAN, cache)
        smaller = dataclasses.replace(PLAN, reps_outer=50)
        assert cache.lookup(20, 0.05, smaller) is None

    def test_corrupted_entry_recomputes_and_overwrites(self, tmp_path):
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        est = cached_critical_value(20, 0.05, PLAN, cache)
        # corrupt the stored record, keep the line count
        lines = path.read_text().splitlines()
        path.write_text("\n".join("garbage line here" for _ in lines) + "\n")
        assert cache.lookup(20, 0.05, PLAN) is None
        recomputed = cached_critical_value(20, 0.05, PLAN, cache)
        assert recomputed == est
        assert cache.lookup(20, 0.05, PLAN) == est

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        est = critical_value_mc(20, 0.05, PLAN)
        stale = dataclasses.replace(est, value=9.0)
        cache.store(stale, PLAN)
        cache.store(est, PLAN)
        assert cache.lookup(20, 0.05, PLAN) == est

    def test_unwritable_path_degrades_to_recompute(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = CriticalValueCache(blocker / "cv.txt")
        with pytest.warns(UserWarning, match="cache"):
            est = cached_critical_value(20, 0.05, PLAN, cache)
        assert est == critical_value_mc(20, 0.05, PLAN)

    def test_missing_file_computes_and_creates(self, tmp_path):
        cache = CriticalValueCache(tmp_path / "sub" / "cv.txt")
        est = cached_critical_value(20, 0.05, PLAN, cache)
        assert est == critical_value_mc(20, 0.05, PLAN)
        assert cache.lookup(20, 0.05, PLAN) == est

    def test_line_appended_by_another_instance_is_seen(self, tmp_path):
        path = tmp_path / "cv.txt"
        reader, writer = CriticalValueCache(path), CriticalValueCache(path)
        first = cached_critical_value(20, 0.05, PLAN, writer)
        assert reader.lookup(20, 0.05, PLAN) == first
        assert reader.lookup(20, 0.10, PLAN) is None
        second = cached_critical_value(20, 0.10, PLAN, writer)
        assert reader.lookup(20, 0.10, PLAN) == second

    @pytest.mark.parametrize("between", ["append", "clear"])
    def test_store_after_another_writer_serves_the_file(self, tmp_path, between):
        path = tmp_path / "cv.txt"
        cache, other = CriticalValueCache(path), CriticalValueCache(path)
        old, theirs, mine = (
            dataclasses.replace(ESTIMATE, alpha=alpha) for alpha in (0.05, 0.10, 0.01)
        )
        cache.store(old, PLAN)
        assert cache.lookup(20, 0.05, PLAN) == old
        if between == "append":
            other.store(theirs, PLAN)
        else:
            path.unlink()
        cache.store(mine, PLAN)
        assert cache.lookup(20, 0.01, PLAN) == mine
        if between == "append":
            assert cache.lookup(20, 0.10, PLAN) == theirs
            assert cache.lookup(20, 0.05, PLAN) == old
        else:
            assert cache.lookup(20, 0.10, PLAN) is None
            assert cache.lookup(20, 0.05, PLAN) is None

    def test_corrupt_line_is_skipped_after_a_parse(self, tmp_path):
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        est = critical_value_mc(20, 0.05, PLAN)
        cache.store(est, PLAN)
        assert cache.lookup(20, 0.05, PLAN) == est
        with path.open("a") as fh:
            fh.write("20 0.10 10000 100 20260808 not-a-number 0.01\n")
            fh.write("20 0.10 10000 100\n")
        assert cache.lookup(20, 0.10, PLAN) is None
        assert cache.lookup(20, 0.05, PLAN) == est

    def test_cache_clear_causes_a_miss(self, tmp_path):
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        est = cached_critical_value(20, 0.05, PLAN, cache)
        assert cache.lookup(20, 0.05, PLAN) == est
        path.unlink()
        assert cache.lookup(20, 0.05, PLAN) is None

    def test_filed_level_is_served_and_only_missing_levels_appended(self, tmp_path, draw_calls):
        path = tmp_path / "cv.txt"
        cache = CriticalValueCache(path)
        filed = dataclasses.replace(ESTIMATE, n=25)
        cache.store(filed, SMALL)
        before = path.read_text()
        got = critical_values_mc_multi(25, [0.05, 0.2], SMALL, cache)
        assert got[0] == filed
        assert len(draw_calls) == SMALL.reps_outer
        assert got[1] == fresh_mc(25, 0.2, SMALL)
        assert path.read_text() == before + (
            f"25 0.2 {SMALL.reps_inner} {SMALL.reps_outer} {SEED} {got[1].value!r} {got[1].sd!r}\n"
        )

    def test_no_cache_object_computes(self):
        est = cached_critical_value(20, 0.10, PLAN, None)
        assert est == critical_value_mc(20, 0.10, PLAN)
