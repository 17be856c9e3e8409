import os
import re

import numpy as np
import pytest

from convctc import features
from convctc.features import (NormalizationStats, assemble_input, compute_deltas,
                              fit_normalization, load_stats, save_stats, stack_channels)


class TestComputeDeltas:
    def test_constant_sequence_gives_zero(self):
        static = np.full((5, 20), 3.7)
        np.testing.assert_array_equal(compute_deltas(static), np.zeros((5, 20)))

    def test_linear_ramp_interior_slope_is_one(self):
        # regression formula with N=2: (1*2 + 2*4) / 10 = 1
        static = np.tile(np.arange(30.0), (4, 1))
        d = compute_deltas(static)
        np.testing.assert_allclose(d[:, 2:-2], 1.0, atol=1e-12)

    def test_single_frame_gives_zero(self):
        np.testing.assert_array_equal(compute_deltas(np.ones((3, 1))), np.zeros((3, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_deltas(np.zeros((3, 0)))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 15))
        y = rng.standard_normal((6, 15))
        a, b = 2.5, -1.25
        left = compute_deltas(a * x + b * y)
        right = a * compute_deltas(x) + b * compute_deltas(y)
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestFitNormalization:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        utts = [rng.standard_normal((4, 9)), rng.standard_normal((4, 14))]
        stats = fit_normalization(utts)
        stacked = np.concatenate([stack_channels(u) for u in utts], axis=2)
        np.testing.assert_allclose(stats.means, stacked.mean(axis=2), atol=1e-12)
        np.testing.assert_allclose(stats.stds, stacked.std(axis=2), atol=1e-12)

    def test_training_set_becomes_zero_mean_unit_variance(self):
        rng = np.random.default_rng(2)
        utts = [rng.normal(5.0, 2.0, (6, 30)) for _ in range(4)]
        stats = fit_normalization(utts)
        normalized = np.concatenate([assemble_input(u, stats) for u in utts], axis=2)
        assert np.max(np.abs(normalized.mean(axis=2))) <= 1e-6
        assert np.max(np.abs(normalized.std(axis=2) - 1.0)) <= 1e-6

    def test_constant_dimension_floors_variance(self):
        utts = [np.full((2, 10), 4.0)]
        stats = fit_normalization(utts)
        assert np.all(stats.stds >= 1e-4 * 0)      # floored, strictly positive
        assert np.all(stats.stds > 0)
        normalized = assemble_input(utts[0], stats)
        np.testing.assert_allclose(normalized, 0.0, atol=1e-6)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            fit_normalization([np.ones((3, 1))])
        with pytest.raises(ValueError):
            fit_normalization([])

    def test_band_count_change_rejected(self):
        with pytest.raises(ValueError, match="band count"):
            fit_normalization([np.ones((3, 5)), np.ones((4, 5))])


class TestAssembleInput:
    def test_three_channels_41_bands(self):
        # 3 x 41 = 123 input dimensions
        out = assemble_input(np.random.default_rng(3).standard_normal((41, 17)))
        assert out.shape == (3, 41, 17)

    def test_channel_order_static_delta_deltadelta(self):
        static = np.tile(np.arange(12.0), (2, 1))
        out = assemble_input(static)
        np.testing.assert_array_equal(out[0], static)
        np.testing.assert_allclose(out[1, :, 4:-4], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[2, :, 4:-4], 0.0, atol=1e-12)

    def test_time_extent_preserved_for_any_length(self):
        for f in (1, 2, 5, 100):
            out = assemble_input(np.ones((7, f)))
            assert out.shape == (3, 7, f)

    def test_band_mismatch_rejected(self):
        stats = NormalizationStats(np.zeros((3, 5)), np.ones((3, 5)))
        with pytest.raises(ValueError, match="bands"):
            assemble_input(np.ones((6, 4)), stats)

    def test_normalize_then_denormalize_recovers(self):
        rng = np.random.default_rng(4)
        utts = [rng.normal(2.0, 3.0, (5, 25)) for _ in range(3)]
        stats = fit_normalization(utts)
        raw = stack_channels(utts[0])
        recovered = stats.apply(raw) * stats.stds[:, :, None] + stats.means[:, :, None]
        np.testing.assert_allclose(recovered, raw, atol=1e-10)

    def test_refit_on_normalized_data_is_standard(self):
        rng = np.random.default_rng(5)
        utts = [rng.normal(-3.0, 0.5, (4, 40)) for _ in range(3)]
        stats = fit_normalization(utts)
        normalized_static = [stats.apply(stack_channels(u))[0] for u in utts]
        refit = fit_normalization(normalized_static)
        assert np.max(np.abs(refit.means[0])) <= 1e-9
        assert np.max(np.abs(refit.stds[0] - 1.0)) <= 1e-9

    def test_dtype_request(self):
        out = assemble_input(np.ones((3, 4)), dtype=np.float32)
        assert out.dtype == np.float32


class TestStatsFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        stats = fit_normalization([rng.standard_normal((5, 20))])
        path = tmp_path / "stats.tnsr"
        save_stats(path, stats)
        back = load_stats(path)
        np.testing.assert_array_equal(back.means, stats.means)
        np.testing.assert_array_equal(back.stds, stats.stds)

    @pytest.mark.parametrize("means, stds, problem", [
        (np.zeros(5), np.ones(5), "two [3 x bands] arrays"),
        (np.zeros((2, 5)), np.ones((2, 5)), "two [3 x bands] arrays"),
        (np.zeros((3, 5)), np.ones((3, 4)), "two [3 x bands] arrays"),
        (np.zeros((3, 5)), np.zeros((3, 5)), "positive stds"),
        (np.full((3, 5), np.nan), np.ones((3, 5)), "finite"),
        (np.zeros((3, 5)), np.full((3, 5), np.inf), "finite"),
    ], ids=["rank-1", "two-channels", "shapes-differ", "zero-std", "nan-mean", "inf-std"])
    def test_malformed_stats_raise_value_error_naming_the_file(self, tmp_path, means, stds,
                                                                problem):
        path = tmp_path / "stats.tnsr"
        with open(path, "wb") as fh:
            features.write_tensor(fh, means)
            features.write_tensor(fh, stds)
        with pytest.raises(ValueError, match=re.escape(problem)) as err:
            load_stats(path)
        assert str(path) in str(err.value)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        path = tmp_path / "stats.tnsr"
        save_stats(path, fit_normalization([rng.standard_normal((5, 20))]))
        before = path.read_bytes()
        real_write = features.write_tensor
        calls = []

        def failing_write(fh, arr):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_write(fh, arr)

        monkeypatch.setattr(features, "write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_stats(path, fit_normalization([rng.standard_normal((5, 30))]))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["stats.tnsr"]
