import random

import numpy as np
import pytest

from fedquad.draws import _CHUNK, keys, seeded, uniform_ints, uniform_unit

# Upper 0.1% points of the chi-square distribution by degrees of freedom.
CHI2_999 = {1: 10.828, 2: 13.816, 4: 18.467, 8: 26.124, 16: 39.252}


# synthesize's and iter_batches' tests cover the seeds seeded refuses.
def test_int_like_seed_is_its_int():
    assert seeded(np.int64(9)).random() == random.Random(9).random()


class TestUniformInts:
    @pytest.mark.parametrize("low, high", [(-4, 4), (0, 1), (1, 3), (5, 5), (-7, -2),
                                           (-2**20, 2**20 - 1)])
    def test_values_lie_in_range(self, low, high):
        values = uniform_ints(seeded(1), low, high, 10_000)
        assert values.dtype == np.float64
        assert np.array_equal(values, np.floor(values))
        assert values.min() >= low and values.max() <= high

    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    def test_every_value_appears(self, r):
        values = uniform_ints(seeded(2), -r, r, 100_000)
        assert set(values.tolist()) == set(range(-r, r + 1))

    @pytest.mark.parametrize("low, high", [(0, 1), (-1, 1), (-2, 2), (-4, 4), (0, 16)])
    def test_chi_square_at_one_in_a_thousand(self, low, high):
        span = high - low + 1
        counts = np.bincount((uniform_ints(seeded(3), low, high, 100_000) - low)
                             .astype(int), minlength=span)
        expected = 100_000 / span
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_999[span - 1]

    def test_values_are_the_multiply_shift_of_one_randbytes_call(self):
        # Spans several chunks, ending in a partial one.
        count = 2 * _CHUNK + 5
        ks = np.frombuffer(random.Random(4).randbytes(4 * count), dtype="<u4")
        expected = [(int(k) * 9 >> 32) - 4 for k in ks]
        assert uniform_ints(seeded(4), -4, 4, count).tolist() == expected

    def test_same_seed_same_arrays_other_seed_different(self):
        a = uniform_ints(seeded(5), -4, 4, (30, 7))
        b = uniform_ints(seeded(5), -4, 4, (30, 7))
        c = uniform_ints(seeded(6), -4, 4, (30, 7))
        assert a.shape == (30, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draws_continue_the_stream(self):
        rng = seeded(7)
        first, second = uniform_ints(rng, 0, 9, 3), uniform_ints(rng, 0, 9, 4)
        assert np.array_equal(np.concatenate([first, second]),
                              uniform_ints(seeded(7), 0, 9, 7))

    def test_scalar_size(self):
        value = uniform_ints(seeded(8), 1, 3)
        assert value.shape == () and 1 <= int(value) <= 3

    @pytest.mark.parametrize("low, high", [(3, 2), (0, 2**21)])
    def test_span_out_of_range_rejected(self, low, high):
        with pytest.raises(ValueError, match="high - low"):
            uniform_ints(seeded(0), low, high, 4)


class TestUniformUnit:
    def test_values_lie_in_half_open_unit_interval(self):
        values = uniform_unit(seeded(9), 100_000)
        assert values.min() >= -1.0 and values.max() < 1.0
        assert np.sum(values < 0) == pytest.approx(50_000, abs=1_000)

    def test_values_are_53_bits_of_a_64_bit_key(self):
        ks = keys(random.Random(10), 50, "<u8")
        expected = [(int(k) >> 11) / 2**52 - 1.0 for k in ks]
        assert uniform_unit(seeded(10), 50).tolist() == expected

    def test_same_seed_same_arrays_other_seed_different(self):
        a = uniform_unit(seeded(11), (4, 3))
        assert a.shape == (4, 3)
        assert np.array_equal(a, uniform_unit(seeded(11), (4, 3)))
        assert not np.array_equal(a, uniform_unit(seeded(12), (4, 3)))
