"""The integer scalar reader against ``parse_scalar``, property-based.

``serialize.read_scalar`` reads ``[+-]?digits`` and ``[+-]?digits/digits``
of ASCII digits with ``int`` and hands every other value to
``parse_scalar``; it must accept exactly what ``parse_scalar`` accepts,
with the same value and the same error at the same location.
"""

import pytest

from bvhy.serialize import SchemaError, _scalar_reader, parse_scalar, \
    read_scalar

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# pieces of texts near the fast forms: signs, ASCII and non-ASCII digits
# ("²" passes str.isdigit, "١" is an Arabic-Indic decimal), separators,
# exponents, and whitespace of both kinds
_PIECES = ["0", "1", "7", "00", "42", "9" * 25, "-", "+", "/", ".", "_",
           " ", "\t", "\n", " ", " ", "e", "E", "²", "١", "٣",
           "0x", "nan", "inf"]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=7).map("".join)
_VALUES = st.one_of(
    _TEXTS, st.integers(), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2), st.just("9" * 4400),
    st.just("1/" + "9" * 4400))


def _outcome(read, value):
    """``(numerator, denominator)`` of what ``read`` makes of ``value``, or
    the message and location of its error."""
    try:
        x = read(value, "d[3]")
    except SchemaError as exc:
        return str(exc), exc.location
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


@hypothesis.settings(max_examples=800, deadline=None, database=None)
@hypothesis.given(_VALUES)
def test_reader_accepts_exactly_what_parse_scalar_accepts(value):
    expected = _outcome(parse_scalar, value)
    assert _outcome(read_scalar, value) == expected
    # the per-document memo gives the same outcome, stored or not
    read = _scalar_reader()
    assert _outcome(read, value) == expected == _outcome(read, value)


def test_the_fast_forms_reduce_to_lowest_terms():
    assert read_scalar(" -6/4\n", "t") == (-3, 2)
    assert read_scalar("+007", "t") == (7, 1)
    assert read_scalar("-0/5", "t") == (0, 1)
    assert read_scalar(12, "t") == (12, 1)
    # the fallback keeps the forms Fraction reads and bvhy never writes
    assert read_scalar("0.5", "t") == (1, 2)
    assert read_scalar("١٢", "t") == (12, 1)
    with pytest.raises(SchemaError, match="invalid rational scalar '²'"):
        read_scalar("²", "t")
