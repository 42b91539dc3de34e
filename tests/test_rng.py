"""The counter-addressed Philox core: bit-exact against Random123's
known-answer vectors and an exact integer Philox4x32-10, uniforms addressed
entry by entry, independent of the sub-block size, standard normal in
distribution after ``noise_matrix``'s map, and strict about the ids it is
given."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import spindyn.rng as rng
from helpers import philox4x32
from spindyn import ParameterError, RandomInit
from spindyn.rng import (BLOCK_STEPS, TAG_INIT, TAG_WIENER, _philox, keyed_draws,
                         noise_matrix)

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def _word(key: int, replica: int, site: int, step: int) -> int:
    """The 64-bit word of (replica, site, step): output words 2(s % 2) and
    2(s % 2) + 1 of the block (s // 2, site, replica, 0), by the integer
    reference."""
    w = philox4x32([step // 2, site, replica, 0], [key & _M32, key >> 32 & _M32])
    return w[2 * (step % 2)] << 32 | w[2 * (step % 2) + 1]


class TestOracle:
    # Random123 (Salmon, Moraes, Dror & Shaw, SC'11; D. E. Shaw Research),
    # examples/kat_vectors, the three "philox4x32 10" rows: counter words,
    # key words, output words.
    KAT = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((_M32,) * 4, (_M32,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ]
    # Word values at the edges of 32 bits, where a product's high half
    # carries most, and elsewhere.
    WORDS = [0, 1, 2, 7, 0x7FFFFFFF, 0x80000000, _M32 - 1, _M32]

    @pytest.mark.parametrize("counter, key, want", KAT)
    def test_known_answer_vectors(self, counter, key, want):
        assert philox4x32(counter, key) == list(want)
        got = _philox(key[0] | key[1] << 32, *counter)
        assert [int(w) for w in got] == list(want)

    def test_matches_the_integer_reference(self):
        g = np.random.default_rng(2026)
        keys = [0, _M32, _M32 << 32, _M64, (1 << 128) - 1] + [
            int(g.integers(0, 1 << 63)) << 1 | 1 for _ in range(5)]
        counters = [(a, b, a, b) for a in self.WORDS for b in self.WORDS[::3]] + [
            tuple(int(x) for x in g.integers(0, 1 << 32, 4)) for _ in range(20)]
        for key in keys:
            c = np.array(counters, dtype=np.uint64)
            got = np.stack(_philox(key, *c.T), axis=-1)
            for counter, row in zip(counters, got):
                want = philox4x32(counter, [key & _M32, key >> 32 & _M32])
                assert [int(w) for w in row] == want, (hex(key), counter)

    def test_noise_is_ndtri_of_the_addressed_word(self):
        # (replica 5, site 3, step 5) is words 2 and 3 of block (2, 3, 5, 0).
        w = _word(rng.stream_key(4, TAG_WIENER), 5, 3, 5)
        u = ((w >> 11) + 0.5) * 2.0 ** -53
        assert noise_matrix(4, 5, [3], 7)[0, 5] == ndtri(u)


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
                    w = np.array([_word(key, r, x, s)], dtype=np.uint64)
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

    def test_ids_past_32_bits_named(self):
        # Each id is one 32-bit counter word, and so is step // BLOCK_STEPS.
        with pytest.raises(ParameterError, match="site id 4294967296 is at or above 2"):
            noise_matrix(0, 0, [1, 2 ** 32], 4)
        with pytest.raises(ParameterError, match="replica id 4294967297 is at or above 2"):
            noise_matrix(0, np.array([0, 2 ** 32 + 1]), range(3), 4)
        with pytest.raises(ParameterError, match="replica id 4294967296 is at or above 2"):
            RandomInit("normal").draw(0, 2 ** 32, 5)
        top = BLOCK_STEPS * 2 ** 32
        with pytest.raises(ParameterError, match=f"step {top} is at or above 2"):
            noise_matrix(0, 0, [1], 3, first_step=top - 2)
        # the largest ids still draw, and a step past them drawn not at all is fine
        assert noise_matrix(0, _M32, [_M32], 2, first_step=top - 2).shape == (1, 2)
        assert noise_matrix(0, 0, [1], 0, first_step=top).shape == (1, 0)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ParameterError, match="site ids must be integers"):
            noise_matrix(0, 0, [1.5], 4)
        with pytest.raises(ParameterError, match="replica ids must be integers"):
            noise_matrix(0, np.array([0.0]), range(3), 4)
