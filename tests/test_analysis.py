import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import telegraphsim as ts
from telegraphsim.config import RunConfig
from telegraphsim.errors import EmptyLog, NoWeakBranch
from telegraphsim.eventlog import EventKind, EventRecord, validate_log
from telegraphsim.runner import run_trajectory


def hit_at(t, epoch=0):
    return EventRecord(t, EventKind.HIT, epoch, 0, epoch + 1, epoch + 1, 0)


def crossing_at(t, epoch=0, weak=1):
    return EventRecord(t, EventKind.WEAK_EDGE_CROSSING, epoch, 0, 0, 0, weak)


class TestSegmentation:
    def test_uniform_hits_single_bright(self):
        recs = [hit_at(2.0 * i, i) for i in range(50)]
        seg = ts.segment_telegraph(recs, 40.0)
        assert len(seg.dark_intervals) == 0
        assert seg.bright_intervals.tolist() == [[0.0, 98.0]]

    def test_constructed_gap(self):
        recs = [hit_at(t, i) for i, t in enumerate([0, 2, 4, 4000, 4002])]
        seg = ts.segment_telegraph(recs, 40.0)
        assert seg.bright_intervals.tolist() == [[0.0, 4.0], [4000.0, 4002.0]]
        assert seg.dark_intervals.tolist() == [[4.0, 4000.0]]

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            ts.segment_telegraph([], 40.0)
        with pytest.raises(EmptyLog):
            ts.segment_telegraph([crossing_at(1.0)], 40.0)

    def test_dark_interval_count_tracks_branch_share(self):
        cfg = RunConfig(kind="v", duration=3e5, master_seed=17)
        res = run_trajectory(cfg, 0)
        seg = ts.segment_telegraph(res.records, cfg.resolved_threshold())
        n_epochs = res.epochs
        share = cfg.k_weak_absorb / (cfg.k_strong_absorb + cfg.k_weak_absorb)
        expected = n_epochs * share
        sigma = np.sqrt(n_epochs * share * (1 - share))
        assert abs(len(seg.dark_intervals) - expected) < 3 * sigma

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=0.01, max_value=500.0), min_size=1, max_size=60),
        threshold=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_tiling_and_alternation(self, gaps, threshold):
        times = np.cumsum(gaps)
        recs = [hit_at(float(t), i) for i, t in enumerate(times)]
        seg = ts.segment_telegraph(recs, threshold)
        bright, dark = seg.bright_intervals, seg.dark_intervals
        # bright and dark alternate, starting and ending bright
        assert len(bright) == len(dark) + 1
        ivs = np.empty((len(bright) + len(dark), 2))
        ivs[0::2], ivs[1::2] = bright, dark
        assert ivs[0, 0] == times[0]
        assert ivs[-1, 1] == times[-1]
        assert np.array_equal(ivs[1:, 0], ivs[:-1, 1])
        assert np.all(dark[:, 1] - dark[:, 0] > threshold)


class TestTimingClassification:
    def _run(self, kind, seed, duration=2e5):
        cfg = RunConfig(kind=kind, duration=duration, master_seed=seed)
        res = run_trajectory(cfg, 0)
        seg = ts.segment_telegraph(res.records, cfg.resolved_threshold())
        rep = ts.classify_weak_timing(res.records, seg, cfg.config_kind(), cfg.rate_set())
        return seg, rep

    def test_v_dark_periods_end_with_weak_photon(self):
        seg, rep = self._run("v", 101)
        assert len(seg.dark_intervals) > 10
        assert rep.count(ts.WeakTiming.AT_END) == (rep.count(ts.WeakTiming.AT_END) + rep.count(ts.WeakTiming.AT_START))
        assert rep.count(ts.WeakTiming.AT_START) == 0

    def test_lambda_dark_periods_begin_with_weak_photon(self):
        seg, rep = self._run("lambda", 102)
        assert len(seg.dark_intervals) > 10
        assert rep.count(ts.WeakTiming.AT_START) == (rep.count(ts.WeakTiming.AT_END) + rep.count(ts.WeakTiming.AT_START))
        assert rep.count(ts.WeakTiming.AT_END) == 0

    def test_cascade_up_at_end(self):
        _, rep = self._run("cascade_weak_up", 103)
        assert rep.count(ts.WeakTiming.AT_END) == (rep.count(ts.WeakTiming.AT_END) + rep.count(ts.WeakTiming.AT_START)) > 0

    def test_cascade_down_at_start(self):
        _, rep = self._run("cascade_weak_down", 104)
        assert rep.count(ts.WeakTiming.AT_START) == (rep.count(ts.WeakTiming.AT_END) + rep.count(ts.WeakTiming.AT_START)) > 0

    def test_crossing_inside_interval_window(self):
        seg, rep = self._run("v", 105)
        found = ~np.isnan(rep.median_time)
        starts, ends = seg.dark_intervals[found].T
        assert np.all(starts <= rep.median_time[found])
        assert np.all(rep.median_time[found] <= ends)

    def test_previous_epochs_crossing_is_not_the_dark_periods(self):
        # epoch 2's crossing sits within one strong cycle before the dark start
        recs = [
            hit_at(0.0, 0), hit_at(2.0, 1),
            crossing_at(3.0, 2), hit_at(4.5, 2),
            hit_at(5.0, 3),
            crossing_at(1498.3, 4), hit_at(1500.0, 4),
            hit_at(1502.0, 5),
        ]
        validate_log(recs)
        seg = ts.segment_telegraph(recs, 40.0)
        rep = ts.classify_weak_timing(recs, seg, ts.ConfigKind(ts.Configuration.V), ts.RateSet())
        assert seg.dark_intervals.tolist() == [[5.0, 1500.0]]
        assert list(rep.classification) == [ts.WeakTiming.AT_END]

    def test_each_dark_periods_time_is_the_median_of_its_epochs_crossings(self):
        # three dark periods: three crossings, two, and none
        recs = [
            hit_at(0.0, 0),
            crossing_at(100.0, 1, 1), crossing_at(101.0, 1, 2),
            crossing_at(180.0, 1, 3), hit_at(200.0, 1),
            crossing_at(250.0, 2, 1), crossing_at(390.0, 2, 2), hit_at(400.0, 2),
            hit_at(600.0, 3),
        ]
        validate_log(recs)
        seg = ts.segment_telegraph(recs, 40.0)
        rep = ts.classify_weak_timing(recs, seg, ts.ConfigKind(ts.Configuration.V), ts.RateSet())
        assert seg.dark_epochs.tolist() == [1, 2, 3]
        assert rep.median_time[:2].tolist() == [101.0, 320.0]
        assert np.isnan(rep.median_time[2])

    def test_strong_only_rejected(self):
        recs = [hit_at(0.0), hit_at(2.0, 1)]
        seg = ts.segment_telegraph(recs, 40.0)
        kind = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)
        with pytest.raises(NoWeakBranch):
            ts.classify_weak_timing(recs, seg, kind, ts.RateSet())

    def test_rescaling_invariance(self):
        # scaling all times, rates and the threshold together changes nothing
        recs = [hit_at(t, i) for i, t in enumerate([0, 2, 4, 4000, 4002])]
        recs.insert(3, crossing_at(3998.3, 3))
        validate_log(recs)
        kind = ts.ConfigKind(ts.Configuration.V)
        rates = ts.RateSet(1.0, 1.0, 1e-3, 1e-3)
        seg = ts.segment_telegraph(recs, 40.0)
        rep = ts.classify_weak_timing(recs, seg, kind, rates)

        c = 7.0
        scaled = [
            EventRecord(r.time * c, r.kind, r.epoch, r.atom, r.clicks, r.strong, r.weak)
            for r in recs
        ]
        rates_c = ts.RateSet(1.0 / c, 1.0 / c, 1e-3 / c, 1e-3 / c)
        seg_c = ts.segment_telegraph(scaled, 40.0 * c)
        rep_c = ts.classify_weak_timing(scaled, seg_c, kind, rates_c)
        assert list(rep.classification) == list(rep_c.classification) == [ts.WeakTiming.AT_END]


class TestIntervalStats:
    def test_single_interval(self):
        recs = [hit_at(0.0), hit_at(5.0, 1)]
        stats = ts.interval_stats(ts.segment_telegraph(recs, 40.0))
        assert stats.bright_count == 1
        assert stats.bright_mean == 5.0
        assert stats.dark_count == 0
        assert stats.dark_rate_estimate is None

    def test_exponential_fit_recovers_rate(self):
        rng = np.random.default_rng(12345)
        rate = 1.0 / 2000.0
        n = 500
        recs = []
        t = 0.0
        epoch = 0
        for d in rng.exponential(1.0 / rate, size=n):
            recs.append(hit_at(t, epoch))
            t += 1.0  # short bright
            recs.append(hit_at(t, epoch + 1))
            t += max(d, 50.0)  # dark gap
            epoch += 2
        recs.append(hit_at(t, epoch))
        seg = ts.segment_telegraph(recs, 40.0)
        stats = ts.interval_stats(seg)
        assert stats.dark_count >= n - 5
        assert stats.dark_rate_estimate == pytest.approx(rate, rel=0.10)

    def test_strong_only_run_has_zero_darks(self):
        cfg = RunConfig(kind="v", lasers="strong_only", duration=5000.0, master_seed=4)
        res = run_trajectory(cfg, 0)
        seg = ts.segment_telegraph(res.records, cfg.resolved_threshold())
        stats = ts.interval_stats(seg)
        assert stats.dark_count == 0
        assert stats.bright_count == 1
