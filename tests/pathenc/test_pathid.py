"""Unit tests for path-id bit-vector operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pathenc.pathid import (
    bit_for_encoding,
    bits_of,
    contains,
    covers,
    encodings_of,
    format_pathid,
    parse_pathid,
    pathid_byte_size,
    popcount,
)


class TestBitMapping:
    def test_msb_is_encoding_one(self):
        assert bit_for_encoding(1, 4) == 0b1000
        assert bit_for_encoding(4, 4) == 0b0001

    @pytest.mark.parametrize("encoding", [0, 5, -1])
    def test_out_of_range_rejected(self, encoding):
        with pytest.raises(ValueError):
            bit_for_encoding(encoding, 4)

    def test_encodings_roundtrip(self):
        width = 9
        for encoding in range(1, width + 1):
            pid = bit_for_encoding(encoding, width)
            assert encodings_of(pid, width) == [encoding]

    def test_encodings_of_composite(self):
        assert encodings_of(0b1100, 4) == [1, 2]
        assert encodings_of(0b1111, 4) == [1, 2, 3, 4]
        assert encodings_of(0, 4) == []

    @settings(max_examples=400, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=600),
        pid=st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=2**620),
            st.integers(min_value=-(2**620), max_value=-1),
        ),
        all_ones=st.booleans(),
    )
    def test_encodings_of_matches_encoding_scan(self, width, pid, all_ones):
        """Set-bit decoding equals the scan over every encoding, including
        the all-ones id and bits above ``width`` (which both ignore)."""
        if all_ones:
            pid = (1 << width) - 1
        expected = [e for e in range(1, width + 1) if pid & (1 << (width - e))]
        assert encodings_of(pid, width) == expected
        assert encodings_of(pid | (1 << (width + 3)), width) == expected

    def test_bits_of(self):
        assert sorted(bits_of(0b1010)) == [0b0010, 0b1000]
        assert list(bits_of(0)) == []

    def test_popcount(self):
        assert popcount(0b1011) == 3


class TestContainment:
    def test_strict_containment(self):
        # Example 2.3: p3 (0011) contains p2 (0010).
        assert contains(0b0011, 0b0010)
        assert not contains(0b0010, 0b0011)

    def test_equal_not_strict(self):
        assert not contains(0b0011, 0b0011)
        assert covers(0b0011, 0b0011)

    def test_disjoint(self):
        assert not contains(0b1100, 0b0011)
        assert not covers(0b1100, 0b0011)

    def test_covers_is_superset(self):
        assert covers(0b1110, 0b0110)


class TestFormatting:
    def test_format_fixed_width(self):
        assert format_pathid(0b0011, 4) == "0011"
        assert format_pathid(0b1, 8) == "00000001"

    def test_parse_roundtrip(self):
        assert parse_pathid(format_pathid(0b1010, 4)) == 0b1010

    @pytest.mark.parametrize("bad", ["", "012", "ab"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_pathid(bad)

    def test_byte_size(self):
        assert pathid_byte_size(1) == 1
        assert pathid_byte_size(8) == 1
        assert pathid_byte_size(9) == 2
        assert pathid_byte_size(40) == 5    # SSPlays row of Table 3
        assert pathid_byte_size(87) == 11   # DBLP row
        assert pathid_byte_size(344) == 43  # XMark row
