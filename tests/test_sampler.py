import io

import numpy as np
import pytest

from sccopt.errors import ZeroSupport
from sccopt.sampler import blend_uniform, sample_designs, write_candidates_csv


class TestSampling:
    def test_deterministic_under_seed(self):
        y = np.array([0.2, 0.5, 0.3, 0.0])
        z = np.array([0.1, 0.0, 0.6, 0.3])
        a = sample_designs(y, z, 1, 1, 20, seed=42)
        b = sample_designs(y, z, 1, 1, 20, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        y = np.full(10, 0.1)
        z = np.full(10, 0.1)
        a = sample_designs(y, z, 2, 2, 30, seed=1)
        b = sample_designs(y, z, 2, 2, 30, seed=2)
        assert a != b

    def test_all_distinct(self):
        y = np.full(8, 0.125)
        z = np.full(8, 0.125)
        out = sample_designs(y, z, 2, 2, 50, seed=0)
        assert len(out) == len(set(out))

    def test_respects_cardinality(self):
        y = np.array([0.5, 0.5, 0.0])
        z = np.array([0.3, 0.3, 0.4])
        for dbv, afv in sample_designs(y, z, 2, 1, 10, seed=0):
            assert len(dbv) == 2
            assert len(afv) == 1
            assert dbv == tuple(sorted(dbv))

    def test_zero_fraction_never_drawn(self):
        y = np.array([1.0, 0.0, 0.0, 1.0])
        z = np.array([0.0, 1.0, 1.0, 0.0])
        for dbv, afv in sample_designs(y, z, 1, 1, 20, seed=3):
            assert dbv[0] in (1, 2)
            assert afv[0] in (0, 3)

    def test_insufficient_support_raises(self):
        y = np.array([1.0, 0.0])
        z = np.array([0.5, 0.5])
        with pytest.raises(ZeroSupport):
            sample_designs(y, z, 1, 2, 5, seed=0)

    def test_small_support_returns_every_combination(self):
        y = np.array([0.5, 0.5])
        z = np.array([0.4, 0.6, 0.0])
        out = sample_designs(y, z, 1, 1, 1000, seed=0)
        assert len(out) == 2 * 2  # C(2,1) x C(2,1)

    def test_no_valves_requested(self):
        out = sample_designs(np.array([1.0]), np.array([1.0]), 0, 0, 5, seed=0)
        assert out == [((), ())]

    def test_empirical_frequency_uniform_weights(self):
        # single-site draws from 5 equally weighted indices, N=10000:
        # each index frequency within +-0.02 of 0.2.  Counted over raw draws,
        # so dedup does not distort the tally: draw 1-at-a-time batches.
        z = np.full(5, 0.2)
        counts = np.zeros(5)
        rng_seed = 0
        n = 10_000
        for k in range(n):
            (dbv, _), = sample_designs(np.array([1.0]), z, 1, 0, 1, seed=rng_seed + k)
            counts[dbv[0]] += 1
        freq = counts / n
        assert np.all(np.abs(freq - 0.2) <= 0.02)

    def test_weighted_frequency_tracks_fractions(self):
        z = np.array([0.6, 0.3, 0.1])
        counts = np.zeros(3)
        n = 6000
        for k in range(n):
            (dbv, _), = sample_designs(np.array([1.0]), z, 1, 0, 1, seed=k)
            counts[dbv[0]] += 1
        freq = counts / n
        assert freq == pytest.approx(z, abs=0.03)


class TestBlend:
    def test_half_fractional_half_uniform_over_eligible_sites(self):
        # fractional (2, 0, 2, 0) normalizes to (0.5, 0, 0.5, 0); uniform over
        # sites 1 and 2 is (0, 0.5, 0.5, 0); site 3 is never eligible
        p = blend_uniform(np.array([2.0, 0.0, 2.0, -1.0]), [1, 2])
        assert np.array_equal(p, [0.25, 0.25, 0.5, 0.0])

    def test_no_mass_and_no_eligible_site_stays_zero(self):
        assert np.array_equal(blend_uniform(np.zeros(3), []), np.zeros(3))


class TestCsv:
    def test_csv_format(self):
        cands = [((1, 3), (0,)), ((2,), ())]
        buf = io.StringIO()
        write_candidates_csv(cands, buf, scores=[0.5, None])
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index,dbv_links,afv_nodes,score"
        assert lines[1] == "0,1;3,0,0.5"
        assert lines[2] == "1,2,,"
