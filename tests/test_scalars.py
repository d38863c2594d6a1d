"""Canonical parts of GaussianRational: int when integral, Fraction
otherwise, never float or bool, and values equal to a Fraction-pair oracle;
and the one rational reader, frac_from_str, against Fraction(text)."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubes import scalars as scalars_module
from tubes.scalars import GaussianRational, frac_from_str, rat

from reference import pair, pair_conjugate, pair_div, pair_mul, pair_sub

# ints, and Fractions whose small denominators make integral values such
# as 2/2 and integral sums such as 1/2 + 1/2 common
parts = st.one_of(st.integers(-30, 30),
                  st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4)))
gaussians = st.builds(GaussianRational, parts, parts)
scalars = st.one_of(gaussians, parts)


def assert_canonical(z):
    assert type(z) is GaussianRational
    for part in (z.re, z.im):
        assert type(part) in (int, Fraction), repr(part)
        if type(part) is Fraction:
            assert part.denominator != 1, repr(part)


def as_pair(value):
    if isinstance(value, GaussianRational):
        return pair(value.re, value.im)
    return pair(value)


def assert_matches(z, expected):
    assert_canonical(z)
    assert pair(z.re, z.im) == expected


@settings(max_examples=300, deadline=None)
@given(parts, parts)
def test_construction_is_canonical(re, im):
    z = GaussianRational(re, im)
    assert_matches(z, pair(re, im))
    assert_canonical(GaussianRational.coerce(Fraction(re)))


@settings(max_examples=200, deadline=None)
@given(x=scalars, y=scalars)
def test_multiplication(x, y):
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        x = GaussianRational(x)
    assert_matches(x * y, pair_mul(as_pair(x), as_pair(y)))


@settings(max_examples=300, deadline=None)
@given(x=scalars, y=scalars)
def test_division(x, y):
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        x = GaussianRational(x)
    if as_pair(y) == pair(0):
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    assert_matches(x / y, pair_div(as_pair(x), as_pair(y)))


@settings(max_examples=200, deadline=None)
@given(gaussians)
def test_conjugate_and_negate(z):
    assert_matches(z.conjugate(), pair_conjugate(as_pair(z)))
    assert_matches(-z, pair_sub(pair(0), as_pair(z)))


def test_integer_division_gives_a_fraction_part():
    half = GaussianRational(1) / 2
    assert type(half.re) is Fraction and half.re == Fraction(1, 2)
    assert type(half.im) is int and half.im == 0
    assert type((GaussianRational(4, 6) / 2).im) is int


def test_floats_and_bools_never_become_parts():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1) * 0.5
    z = GaussianRational(True, False)
    assert type(z.re) is int and type(z.im) is int


def test_strings_are_read_only_by_frac_from_str():
    with pytest.raises(TypeError):
        rat("1/2")
    with pytest.raises(TypeError):
        GaussianRational.coerce("1/2")


# the grammar frac_to_str writes, -?[0-9]+ or -?[0-9]+/[0-9]+, with the
# signs, leading zeros, zeros and unreduced quotients it never writes
READABLE = ["0", "-0", "7", "-7", "007", "-007", "0/5", "-0/5", "2/4", "-2/4", "4/2", "12/1",
            "10/15", "1" + "0" * 3999, "-" + "9" * 4000 + "/3", "3/" + "7" * 4000]


@pytest.mark.parametrize("text", READABLE, ids=lambda text: text[:12])
def test_reader_matches_fraction_and_is_canonical(text):
    value = frac_from_str(text)
    assert value == Fraction(text)
    assert type(value) is (int if Fraction(text).denominator == 1 else Fraction)


# each of these but the last seven is a Fraction(text), which decoded before
@pytest.mark.parametrize("text", ["1e3", "1e5000000", "1.5", "1.", ".5", " 1", "1 ", "\t1",
                                  "+1", "1_0", "\u0663", "1/\u0663", "", "-", "/2", "1/",
                                  "1/-2", "1/+2", "--1"])
def test_reader_refuses_every_other_string(text):
    with pytest.raises(ValueError, match="a rational must be a 'p/q' string of ASCII digits"):
        frac_from_str(text)


@pytest.mark.parametrize("value", [-1.0, 1, None, ["1"]])
def test_reader_refuses_a_non_string(value):
    message = f"a rational must be a 'p/q' string, got {value!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        frac_from_str(value)


def test_reader_keeps_the_zero_denominator_error():
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        frac_from_str("1/0")


def test_fraction_is_built_from_a_pair_outside_scalars():
    """A one-argument Fraction(x) outside scalars either re-boxes a rational
    that is already canonical or parses a string past frac_from_str."""
    found = []
    for path in sorted(Path(scalars_module.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "Fraction" and (len(node.args) != 2 or node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
