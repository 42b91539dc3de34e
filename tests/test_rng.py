"""The counter-addressed Philox core: bit-exact against numpy's Philox,
uniforms addressed entry by entry, independent of the sub-block size,
standard normal in distribution after ``noise_matrix``'s map, and strict
about the ids it is given."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import spindyn.rng as rng
from spindyn import ParameterError, RandomInit
from spindyn.rng import TAG_INIT, TAG_WIENER, _philox, keyed_draws, noise_matrix

_M64 = (1 << 64) - 1


def _words(counter: int):
    return [np.uint64((counter >> (64 * i)) & _M64) for i in range(4)]


def _numpy_block(key: int, counter: int) -> np.ndarray:
    # numpy's Philox increments its counter before it computes a block.
    return np.random.Philox(key=key, counter=(counter - 1) % (1 << 256)).random_raw(4)


class TestOracle:
    # The last four set the words c0 and c2, the two multiplied in the first
    # round, to the edges of _mulhilo's 32-bit carries.
    COUNTERS = [0, 1, 7, _M64, 1 << 64, (1 << 192) + 5, (1 << 255) + (3 << 128) + 11,
                (1 << 256) - 1] + [
                    v | v << 128 for v in ((1 << 32) - 1, 1 << 32, (1 << 64) - (1 << 32),
                                           _M64)]

    def test_matches_numpy_philox(self):
        g = np.random.default_rng(2026)
        keys = [0, 1, _M64, (1 << 128) - 1] + [
            int(g.integers(0, 1 << 62)) << 66 | int(g.integers(0, 1 << 62))
            for _ in range(6)]
        for key in keys:
            for counter in self.COUNTERS:
                got = np.array(_philox(key, *_words(counter)), dtype=np.uint64)
                np.testing.assert_array_equal(got, _numpy_block(key, counter),
                                              err_msg=f"key {key:#x}, counter {counter:#x}")

    def test_vectorised_over_counters(self):
        key = rng.stream_key(9, TAG_WIENER)
        c = np.array([_words(x) for x in self.COUNTERS], dtype=np.uint64)
        got = np.stack(_philox(key, *c.T), axis=-1)
        want = np.stack([_numpy_block(key, x) for x in self.COUNTERS])
        np.testing.assert_array_equal(got, want)

    def test_noise_is_ndtri_of_the_addressed_word(self):
        # (replica 5, site 3, step 6) is word 6 % 4 of block (6 // 4, 3, 5, 0).
        w = _numpy_block(rng.stream_key(4, TAG_WIENER), 1 | 3 << 64 | 5 << 128)[2]
        u = ((int(w) >> 11) + 0.5) * 2.0 ** -53
        assert noise_matrix(4, 5, [3], 7)[0, 6] == ndtri(u)


class TestKeyedDraws:
    @pytest.mark.parametrize("first", [0, 1, 2, 3, 5, 64, 71])
    def test_uniforms_are_the_addressed_words(self, first):
        key = rng.stream_key(11, TAG_INIT)
        reps, sites, k = np.array([0, 3]), [2, 9, 4], 10
        u = keyed_draws(11, TAG_INIT, reps, sites, k, first_step=first)
        assert u.shape == (2, 3, k)
        assert np.all((u > 0.0) & (u < 1.0))
        for i, r in enumerate(reps):
            for j, x in enumerate(sites):
                for c in range(k):
                    s = first + c
                    w = _philox(key, [s // 4], x, r, 0)[s % 4]
                    assert u[i, j, c] == rng._uniforms(w)[0], (r, x, s)

    @pytest.mark.parametrize("first", [0, 3, 6])
    def test_noise_is_ndtri_of_the_wiener_uniforms(self, first):
        u = keyed_draws(6, TAG_WIENER, np.arange(4), range(5), 17, first_step=first)
        np.testing.assert_array_equal(
            noise_matrix(6, np.arange(4), range(5), 17, first_step=first), ndtri(u))


class TestAddressability:
    def test_any_subset_equals_the_full_matrix(self):
        full = noise_matrix(7, np.arange(6), range(10), 13)
        reps, sites = [4, 0, 5], [9, 2, 3]
        for steps in (1, 4, 5, 13):
            sub = noise_matrix(7, np.array(reps), sites, steps)
            np.testing.assert_array_equal(sub, full[np.ix_(reps, sites)][..., :steps])

    def test_single_row_equals_its_row_of_the_batch(self):
        full = noise_matrix(7, np.arange(6), range(10), 13)
        for r, x in [(0, 0), (2, 7), (5, 9)]:
            np.testing.assert_array_equal(noise_matrix(7, r, [x], 13)[0], full[r, x])

    def test_init_draws_batched_equal_per_replica(self):
        for init in (RandomInit("normal", 0.3, 2.0), RandomInit("uniform", -1.0, 3.0)):
            batch = init.draw(5, np.arange(4), 11)
            assert batch.shape == (4, 11)
            for r in range(4):
                np.testing.assert_array_equal(init.draw(5, r, 11), batch[r])

    @pytest.mark.parametrize("n_steps", [1, 4, 13])
    def test_sub_block_size_does_not_change_a_bit(self, monkeypatch, n_steps):
        want = noise_matrix(3, np.arange(5), range(7), n_steps)
        for size in (1, 3):
            monkeypatch.setattr(rng, "_SUB_BLOCK", size)
            np.testing.assert_array_equal(noise_matrix(3, np.arange(5), range(7), n_steps),
                                          want)

    def test_empty_requests(self):
        assert noise_matrix(1, 0, [], 5).shape == (0, 5)
        assert noise_matrix(1, np.arange(3), range(4), 0).shape == (3, 4, 0)
        assert noise_matrix(1, np.arange(3), range(4), 0, first_step=7).shape == (3, 4, 0)

    @pytest.mark.parametrize("size", [1, 3, 8192])
    def test_any_step_window_equals_its_columns(self, monkeypatch, size):
        # Steps first_step..first_step + k - 1, aligned to a Philox block or
        # not, are those columns of the run from step 0.
        want = noise_matrix(9, np.arange(3), range(5), 37)
        monkeypatch.setattr(rng, "_SUB_BLOCK", size)
        for first in range(37):
            for k in sorted({0, 1, 2, 5, 37 - first}):
                if first + k <= 37:
                    got = noise_matrix(9, np.arange(3), range(5), k, first_step=first)
                    np.testing.assert_array_equal(got, want[..., first:first + k],
                                                  err_msg=f"{first}, {k}")
        np.testing.assert_array_equal(noise_matrix(9, 2, [4], 3, first_step=34),
                                      want[2, [4], 34:])

    def test_negative_first_step_rejected(self):
        with pytest.raises(ParameterError, match="first_step -4 is negative"):
            noise_matrix(0, 0, range(3), 4, first_step=-4)


class TestDistribution:
    def test_moments_and_ks_on_a_million_draws(self):
        z = noise_matrix(20261018, np.arange(100), range(100), 100).ravel()
        n = z.size
        assert abs(z.mean()) < 5 / np.sqrt(n)
        # var of the sample variance of N(0, 1) draws is 2 / (n - 1)
        assert abs(z.var(ddof=1) - 1.0) < 5 * np.sqrt(2 / (n - 1))
        assert stats.kstest(z, "norm").pvalue > 1e-3

    def test_uniform_init_lies_in_its_interval(self):
        u = RandomInit("uniform", -1.0, 3.0).draw(8, np.arange(200), 50).ravel()
        assert np.all((u > -1.0) & (u < 3.0))
        assert stats.kstest(u, "uniform", args=(-1.0, 4.0)).pvalue > 1e-3

    def test_uniform_init_rejects_upper_bound_below_lower(self):
        # a is the lower bound: b < a would draw from (b, a) instead.
        with pytest.raises(ParameterError, match=r"b=0\.0 must be >= a=1\.0"):
            RandomInit("uniform", a=1.0, b=0.0)
        assert np.all(RandomInit("uniform", a=1.0, b=1.0).draw(0, 0, 5) == 1.0)

    def test_normal_init_rejects_negative_std(self):
        with pytest.raises(ParameterError, match=r"b=-2\.0 must be >= 0"):
            RandomInit("normal", b=-2.0)
        with pytest.raises(ParameterError, match="b=nan"):
            RandomInit("normal", b=float("nan"))
        assert np.all(RandomInit("normal", a=0.5, b=0.0).draw(0, 0, 5) == 0.5)

    def test_extreme_words_map_inside_the_unit_interval(self):
        # The top word's ((2^53 - 1) + 1/2) 2^-53 rounds to 1.0, where ndtri
        # is +inf; it is clamped to the largest double below 1.
        u = rng._uniforms(np.array([0, _M64], dtype=np.uint64))
        assert np.all((u > 0.0) & (u < 1.0))
        assert u[0] == 2.0 ** -54 and u[1] == 1.0 - 2.0 ** -53
        assert np.all(np.isfinite(ndtri(u)))
        # every other word keeps its value
        words = np.array([1 << 11, _M64 - (1 << 11)], dtype=np.uint64)
        assert list(rng._uniforms(words)) == [1.5 * 2.0 ** -53,
                                               (2.0 ** 53 - 1.5) * 2.0 ** -53]

    def test_tags_give_different_draws(self):
        wiener = noise_matrix(2, np.arange(3), range(50), 1)
        init = ndtri(keyed_draws(2, TAG_INIT, np.arange(3), range(50), 1))
        assert not np.any(wiener == init)
        np.testing.assert_array_equal(RandomInit("normal").draw(2, np.arange(3), 50),
                                      init[..., 0])


class TestBadIds:
    def test_negative_replica_named(self):
        with pytest.raises(ParameterError, match="replica id -1 is negative"):
            noise_matrix(0, -1, range(3), 4)
        with pytest.raises(ParameterError, match="replica id -2 is negative"):
            noise_matrix(0, np.array([0, -2, 1]), range(3), 4)
        with pytest.raises(ParameterError, match="replica id -3 is negative"):
            RandomInit("normal").draw(0, -3, 5)

    def test_negative_site_named(self):
        with pytest.raises(ParameterError, match="site id -4 is negative"):
            noise_matrix(0, 0, [1, -4], 4)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ParameterError, match="site ids must be integers"):
            noise_matrix(0, 0, [1.5], 4)
        with pytest.raises(ParameterError, match="replica ids must be integers"):
            noise_matrix(0, np.array([0.0]), range(3), 4)
