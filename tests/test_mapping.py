"""Index-mapping tests: frozen permutation tables plus structural properties."""

import pytest
from hypothesis import given, settings, strategies as st

from ifdma.mapping import (
    AlignedRange,
    MAX_BAND,
    RadixScheme,
    bin_digits,
    bin_for_subcarrier,
    bit_reverse,
    digit_reverse,
    range_to_subcarriers,
    subcarrier_shift,
    validate_range,
)

# The classic 8-point permutation and the 12-bin table for radices (2,2,3):
# (bin, digits, reversed digits, subcarrier), digits most-significant first.
PERM_M8 = (0, 4, 2, 6, 1, 5, 3, 7)
TABLE_223 = (
    (0, (0, 0, 0), (0, 0, 0), 0),
    (1, (0, 0, 1), (1, 0, 0), 4),
    (2, (0, 0, 2), (2, 0, 0), 8),
    (3, (0, 1, 0), (0, 1, 0), 2),
    (4, (0, 1, 1), (1, 1, 0), 6),
    (5, (0, 1, 2), (2, 1, 0), 10),
    (6, (1, 0, 0), (0, 0, 1), 1),
    (7, (1, 0, 1), (1, 0, 1), 5),
    (8, (1, 0, 2), (2, 0, 1), 9),
    (9, (1, 1, 0), (0, 1, 1), 3),
    (10, (1, 1, 1), (1, 1, 1), 7),
    (11, (1, 1, 2), (2, 1, 1), 11),
)


def small_schemes() -> st.SearchStrategy[RadixScheme]:
    return st.lists(st.integers(2, 5), min_size=0, max_size=6).filter(
        lambda rs: _prod(rs) <= 4096
    ).map(lambda rs: RadixScheme(tuple(rs)))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class TestBitReverse:
    def test_three_bit_permutation(self):
        assert tuple(bit_reverse(k, 3) for k in range(8)) == PERM_M8

    def test_zero_width(self):
        assert bit_reverse(0, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_reverse(8, 3)
        with pytest.raises(ValueError):
            bit_reverse(-1, 3)
        with pytest.raises(ValueError):
            bit_reverse(0, -1)

    @given(st.integers(0, 10), st.data())
    def test_involution(self, m, data):
        k = data.draw(st.integers(0, (1 << m) - 1))
        assert bit_reverse(bit_reverse(k, m), m) == k


class TestRadixScheme:
    def test_power_of_two_sizes(self):
        s = RadixScheme.power_of_two(3)
        assert s.size == 8
        assert s.block_sizes == (1, 2, 4, 8)
        assert s.is_power_of_two

    def test_composite_sizes(self):
        s = RadixScheme((2, 2, 3))
        assert s.size == 12
        assert s.block_sizes == (1, 3, 6, 12)
        assert s.inner_radices == (3, 2, 2)
        assert not s.is_power_of_two

    def test_trivial_band(self):
        s = RadixScheme(())
        assert s.size == 1
        assert s.block_sizes == (1,)
        assert digit_reverse(0, s) == 0

    def test_bad_radices(self):
        with pytest.raises(ValueError):
            RadixScheme((2, 1, 3))
        with pytest.raises(ValueError):
            RadixScheme((0,))
        with pytest.raises(ValueError):
            RadixScheme.power_of_two(-1)

    def test_band_size_cap(self):
        RadixScheme((2,) * 20)  # exactly MAX_BAND is fine
        with pytest.raises(ValueError):
            RadixScheme((2,) * 21)
        with pytest.raises(ValueError):
            RadixScheme.power_of_two(21)
        assert MAX_BAND == 1 << 20

    def test_level_of(self):
        s = RadixScheme((2, 2, 3))
        assert s.level_of(1) == 0
        assert s.level_of(6) == 2
        with pytest.raises(ValueError):
            s.level_of(2)
        with pytest.raises(ValueError):
            s.level_of(5)
        assert s.level_of(3.0) == 1  # an equal float finds its level, as 3 does
        msg = r"^size \[3\] is not fillable under radices \(2, 2, 3\); allowed sizes are"
        with pytest.raises(ValueError, match=msg):
            s.level_of([3])  # unhashable


class TestDigitReverse:
    def test_table_m8(self):
        s = RadixScheme.power_of_two(3)
        assert tuple(digit_reverse(k, s) for k in range(8)) == PERM_M8

    def test_table_223(self):
        s = RadixScheme((2, 2, 3))
        for k, digits, rev, sub in TABLE_223:
            assert bin_digits(k, s) == digits
            assert bin_digits(k, s)[::-1] == rev
            assert digit_reverse(k, s) == sub

    def test_matches_bit_reverse_on_powers_of_two(self):
        for m in range(7):
            s = RadixScheme.power_of_two(m)
            for k in range(1 << m):
                assert digit_reverse(k, s) == bit_reverse(k, m)

    def test_out_of_range(self):
        s = RadixScheme((2, 2, 3))
        for fn in (digit_reverse, bin_for_subcarrier, bin_digits):
            with pytest.raises(ValueError):
                fn(12, s)
            with pytest.raises(ValueError):
                fn(-1, s)

    @given(small_schemes())
    @settings(max_examples=60)
    def test_is_a_permutation(self, scheme):
        image = {digit_reverse(k, scheme) for k in range(scheme.size)}
        assert image == set(range(scheme.size))

    @given(small_schemes(), st.data())
    @settings(max_examples=60)
    def test_round_trip(self, scheme, data):
        k = data.draw(st.integers(0, scheme.size - 1))
        assert bin_for_subcarrier(digit_reverse(k, scheme), scheme) == k
        s = data.draw(st.integers(0, scheme.size - 1))
        assert digit_reverse(bin_for_subcarrier(s, scheme), scheme) == s


class TestAlignedRange:
    def test_fields(self):
        r = AlignedRange(4, 2)
        assert r.stop == 6
        assert list(r.bins()) == [4, 5]

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            AlignedRange(3, 2)
        with pytest.raises(ValueError):
            AlignedRange(-2, 2)
        with pytest.raises(ValueError):
            AlignedRange(0, 0)

    def test_validate_range(self):
        s = RadixScheme.power_of_two(3)
        validate_range(AlignedRange(4, 4), s)
        with pytest.raises(ValueError):
            validate_range(AlignedRange(8, 2), s)  # past the band
        with pytest.raises(ValueError):
            validate_range(AlignedRange(0, 3), s)  # size not allowed


class TestEvenSpacing:
    def test_known_images(self):
        s = RadixScheme.power_of_two(3)
        assert range_to_subcarriers(AlignedRange(0, 4), s) == {0, 2, 4, 6}
        assert range_to_subcarriers(AlignedRange(4, 2), s) == {1, 5}
        assert range_to_subcarriers(AlignedRange(6, 1), s) == {3}
        c = RadixScheme((2, 2, 3))
        assert range_to_subcarriers(AlignedRange(0, 6), c) == {0, 4, 8, 2, 6, 10}
        assert range_to_subcarriers(AlignedRange(6, 3), c) == {1, 5, 9}

    @given(small_schemes(), st.data())
    @settings(max_examples=100)
    def test_image_is_evenly_spaced(self, scheme, data):
        """Any aligned run maps onto {d + i*M/N}: the interleaving guarantee."""
        size = data.draw(st.sampled_from(scheme.block_sizes))
        slots = scheme.size // size
        start = data.draw(st.integers(0, slots - 1)) * size
        r = AlignedRange(start, size)
        spacing = scheme.size // size
        d = subcarrier_shift(r, scheme)
        assert 0 <= d < spacing
        assert range_to_subcarriers(r, scheme) == {
            d + i * spacing for i in range(size)
        }

    @given(small_schemes(), st.data())
    @settings(max_examples=60)
    def test_whole_band_and_single_bin(self, scheme, data):
        assert range_to_subcarriers(AlignedRange(0, scheme.size), scheme) == set(
            range(scheme.size)
        )
        k = data.draw(st.integers(0, scheme.size - 1))
        assert range_to_subcarriers(AlignedRange(k, 1), scheme) == {
            digit_reverse(k, scheme)
        }
