import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsosc.engnotation import EngNotationError, SUFFIX_SCALE, format_eng, parse_eng


@pytest.mark.parametrize("text,expected", [
    ("332", 332.0),
    ("16f", 16e-15),
    ("250p", 250e-12),
    ("17.59u", 17.59e-6),
    ("1meg", 1e6),
    ("1MEG", 1e6),
    ("1m", 1e-3),
    ("30g", 30e9),
    ("4t", 4e12),
    ("2k", 2e3),
    ("5n", 5e-9),
    ("1.6e-18", 1.6e-18),
    ("-3.3", -3.3),
    (".5p", 0.5e-12),
    ("+2.5k", 2500.0),
    ("  45meg ", 45e6),
])
def test_parse_values(text, expected):
    assert parse_eng(text) == pytest.approx(expected, rel=1e-15)


def test_meg_beats_milli():
    # the three-letter suffix must win over a bare trailing m
    assert parse_eng("2meg") == 2e6
    assert parse_eng("2m") == 2e-3


@pytest.mark.parametrize("text", [
    "", "f", "1.2.3", "1x", "16 f", "meg", "1e", "0x10", "1,5", "--3",
    "1e999", "-1e999", "1e308k",
])
def test_parse_rejects(text):
    with pytest.raises(EngNotationError):
        parse_eng(text)


def test_suffix_table_complete():
    assert set(SUFFIX_SCALE) == {"t", "g", "meg", "k", "m", "u", "n", "p", "f"}


@pytest.mark.parametrize("value,text", [
    (16e-15, "16f"),
    (250e-12, "250p"),
    (30e9, "30g"),
    (1e6, "1meg"),
    (0.0, "0"),
    (332.0, "332"),
])
def test_format_known(value, text):
    assert format_eng(value) == text


def test_format_out_of_range_falls_back():
    # below femto there is no suffix; plain float form instead
    assert parse_eng(format_eng(1.6e-18, digits=12)) == pytest.approx(1.6e-18)


@given(st.floats(min_value=1e-15, max_value=1e15,
                 allow_nan=False, allow_infinity=False))
def test_roundtrip_magnitude(value):
    back = parse_eng(format_eng(value, digits=17))
    assert math.isclose(back, value, rel_tol=1e-12)


@given(st.floats(min_value=-1e12, max_value=-1e-12,
                 allow_nan=False, allow_infinity=False))
def test_roundtrip_negative(value):
    back = parse_eng(format_eng(value, digits=17))
    assert math.isclose(back, value, rel_tol=1e-12)
