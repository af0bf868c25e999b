import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_I,
    KIND_II,
    KIND_IV,
    BilinearProduct,
    Dialgebra,
    ParseError,
    ProductTag,
    canonical_dialgebra,
    parse_algebra,
    parse_dialgebra,
    serialize_algebra,
    serialize_dialgebra,
)
from helpers import GF2, GF5, QQ, random_valid_dialgebras, upper_triangular_algebra


def test_parse_the_table_of_I():
    text = """dialg 1
field rational
dim 2
basis r s
left 2 2 2 1
right 2 1 1 1
right 2 2 2 1
"""
    d = parse_dialgebra(text)
    assert d == canonical_dialgebra(KIND_I, QQ)
    assert d.basis_names == ("r", "s")


def test_empty_product_lines_give_the_trivial_dialgebra():
    d = parse_dialgebra("dialg 1\nfield rational\ndim 2\n")
    assert d.left.is_zero() and d.right.is_zero()


def test_round_trip_structural_identity():
    for d in random_valid_dialgebras(40, seed=5):
        assert parse_dialgebra(serialize_dialgebra(d)) == d


def test_serialize_of_parse_is_stable():
    text = serialize_dialgebra(canonical_dialgebra(KIND_IV, GF5))
    assert serialize_dialgebra(parse_dialgebra(text)) == text


def test_comments_and_blank_lines_are_ignored():
    text = """# a dialgebra
dialg 1

field prime 2   # the two-element field
dim 2
left 2 2 1 1  # s*s = r
"""
    d = parse_dialgebra(text)
    assert d == canonical_dialgebra(KIND_II, GF2, 1).__class__(
        d.field, 2, d.left, d.right
    )
    assert d.left.entry(1, 1, 0) == GF2.one


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_dialgebra("dialg 1\nfield rational\ndim 2\nleft 1 3 1 1\n")


def test_duplicate_entry_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_dialgebra(
            "dialg 1\nfield rational\ndim 2\nleft 1 1 1 1\nleft 1 1 1 2\n"
        )


def test_fraction_under_prime_field_rejected():
    with pytest.raises(ParseError, match="not in"):
        parse_dialgebra("dialg 1\nfield prime 2\ndim 2\nleft 1 1 1 1/2\n")


def test_non_prime_modulus_rejected():
    with pytest.raises(ParseError, match="not a prime"):
        parse_dialgebra("dialg 1\nfield prime 6\ndim 2\n")


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        parse_dialgebra("dialg 2\nfield rational\ndim 2\n")
    with pytest.raises(ParseError):
        parse_dialgebra("field rational\ndim 2\n")


def test_dim_out_of_range():
    with pytest.raises(ParseError, match="dim"):
        parse_dialgebra("dialg 1\nfield rational\ndim 0\n")
    with pytest.raises(ParseError, match="dim"):
        parse_dialgebra("dialg 1\nfield rational\ndim 17\n")


def test_serialize_refuses_a_dim_the_format_cannot_hold():
    for dim in (0, 17):
        with pytest.raises(ValueError, match=f"cannot write dim {dim}"):
            serialize_dialgebra(Dialgebra.trivial(QQ, dim))
        with pytest.raises(ValueError, match=f"cannot write dim {dim}"):
            serialize_algebra(Dialgebra.trivial(GF5, dim).as_single(ProductTag.LEFT))


# Names the format cannot hold: empty, cut at "#", split at any whitespace.
_NAME_CHARS = st.sampled_from(
    ["r", "s", "_", "#", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"]
)


@settings(max_examples=200)
@given(st.lists(st.text(_NAME_CHARS | st.characters(), max_size=3), min_size=2, max_size=2))
@example(["r", "s#t"])
@example(["a b", "c"])
@example(["", ""])
def test_serialize_writes_only_basis_names_that_read_back(names):
    bad = [n for n in names if not n or "#" in n or any(c.isspace() for c in n)]
    d = Dialgebra.from_entries(GF5, 2, {(0, 1, 1): 1}, basis_names=names)
    for serialize, parse, x in (
        (serialize_dialgebra, parse_dialgebra, d),
        (serialize_algebra, parse_algebra, d.as_single(ProductTag.LEFT)),
    ):
        if bad:
            with pytest.raises(ValueError, match=re.escape(f"cannot write basis name {bad[0]!r}")):
                serialize(x)
        else:
            again = parse(serialize(x))
            assert again == x and again.basis_names == tuple(names)


def test_error_carries_line_number():
    text = "dialg 1\nfield rational\ndim 2\n# fine\nleft 1 1 1 nope\n"
    with pytest.raises(ParseError) as info:
        parse_dialgebra(text)
    assert info.value.lineno == 5


def test_negative_integers_reduce_mod_p():
    d = parse_dialgebra("dialg 1\nfield prime 5\ndim 1\nleft 1 1 1 -1\n")
    assert d.left.entry(0, 0, 0).value == 4


def test_rational_coefficients_parse():
    d = parse_dialgebra("dialg 1\nfield rational\ndim 1\nleft 1 1 1 -3/4\n")
    assert str(d.left.entry(0, 0, 0)) == "-3/4"


def test_explicit_zero_coefficient_allowed():
    d = parse_dialgebra("dialg 1\nfield rational\ndim 2\nleft 1 1 1 0\n")
    assert d.left.is_zero()


def test_basis_line_must_match_dim():
    with pytest.raises(ParseError, match="basis"):
        parse_dialgebra("dialg 1\nfield rational\ndim 2\nbasis a b c\n")


def test_algebra_variant_rejects_right_lines():
    with pytest.raises(ParseError, match="not allowed"):
        parse_algebra("dialg 1\nfield rational\ndim 2\nright 1 1 1 1\n")


def test_algebra_round_trip():
    a = upper_triangular_algebra(QQ)
    assert parse_algebra(serialize_algebra(a)) == a


def test_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_dialgebra("dialg 1\nfield rational\ndim 2\nmiddle 1 1 1 1\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("field rational\ndim 3\nleft 1 1 1 ٣\n", 4),
        ("field prime 5\ndim 3\nleft 1 1 1 ٣\n", 4),
        ("field rational\ndim 3\nleft ٣ 1 1 1\n", 4),
        ("field prime ٧\ndim 3\n", 2),
        ("field rational\ndim ²\n", 3),
        ("field rational\ndim 16\nleft 1_0 1 1 1\n", 4),
    ],
    ids=["rational-coeff", "prime-coeff", "index", "modulus", "dim", "underscore"],
)
def test_only_ascii_decimal_numerals_parse(text, lineno):
    with pytest.raises(ParseError) as info:
        parse_dialgebra("dialg 1\n" + text)
    assert info.value.lineno == lineno


# One rejection of each kind, with the (line, message) it has always had;
# `+1` is an index like 1. The file header is "dialg 1", a field line and
# "dim 2", so the entry lines start at line 4.
_REJECTIONS = [
    ("rational", "left \u0661 1 1 1", parse_dialgebra, 4, "indices must be integers"),
    ("rational", "left 1 \u00b2 1 1", parse_dialgebra, 4, "indices must be integers"),
    ("rational", "left 1 1 1 \u0661", parse_dialgebra, 4, "bad rational coefficient '\u0661'"),
    ("prime 7", "left 1 1 1 \u00b2", parse_dialgebra, 4, "coefficient '\u00b2' is not in prime 7"),
    ("rational", "left -1 1 1 1", parse_dialgebra, 4, "index -1 out of range [1, 2]"),
    ("rational", "left 1 3 1 1", parse_dialgebra, 4, "index 3 out of range [1, 2]"),
    ("rational", "left 1 1 0 1", parse_dialgebra, 4, "index 0 out of range [1, 2]"),
    ("rational", "left 1 1 1 1\nleft 1 1 1 2", parse_dialgebra, 5, "duplicate entry left 1 1 1"),
    ("rational", "right 1 1 1 1\nright +1 01 1 2", parse_dialgebra, 5,
     "duplicate entry right 1 1 1"),
    ("prime 7", "left 1 1 1 1/2", parse_dialgebra, 4, "coefficient '1/2' is not in prime 7"),
    ("rational", "left 1 1 1 3/-2", parse_dialgebra, 4, "bad rational coefficient '3/-2'"),
    ("rational", "left 1 1 1 1/0", parse_dialgebra, 4, "bad rational coefficient '1/0'"),
    ("rational", "left 1 1 1", parse_dialgebra, 4, "expected `left <i> <j> <k> <c>`"),
    ("rational", "basis r s\nbasis r s", parse_dialgebra, 5, "duplicate basis line"),
    ("rational", "left 1 1 1 1\nright 2 2 2 1", parse_algebra, 5,
     "`right` entries are not allowed in an algebra file"),
]


@pytest.mark.parametrize("field, body, parse, lineno, message", _REJECTIONS)
def test_each_rejection_keeps_its_line_and_message(field, body, parse, lineno, message):
    with pytest.raises(ParseError) as info:
        parse(f"dialg 1\nfield {field}\ndim 2\n{body}\n")
    assert (info.value.lineno, info.value.message) == (lineno, message)


def test_a_signed_index_reads_as_its_value():
    d = parse_dialgebra("dialg 1\nfield rational\ndim 2\nleft +1 +2 02 -3/6\n")
    assert d.left == BilinearProduct.from_entries(QQ, 2, {(0, 1, 1): "-1/2"})


# A basis name is one token: no whitespace, line break or control character,
# and no comment sign.
_NAMES = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Z"), blacklist_characters="#"),
    min_size=1,
    max_size=3,
)
_FIELDS = ["rational", "prime 2", "prime 3", "prime 9973", "prime 1000000007"]


@st.composite
def file_texts(draw, tags=("left", "right")):
    """Well-formed files: any field, dim 1-4, optional basis names, sparse entries."""
    field = draw(st.sampled_from(_FIELDS))
    dim = draw(st.integers(1, 4))
    lines = ["dialg 1", f"field {field}", f"dim {dim}"]
    if draw(st.booleans()):
        lines.append("basis " + " ".join(draw(st.lists(_NAMES, min_size=dim, max_size=dim))))
    idx = st.integers(1, dim)
    keys = draw(st.lists(st.tuples(st.sampled_from(tags), idx, idx, idx), unique=True, max_size=10))
    for tag, i, j, k in keys:
        c = str(draw(st.integers(-10**12, 10**12)))
        if field == "rational" and draw(st.booleans()):
            c += f"/{draw(st.integers(1, 99))}"
        lines.append(f"{tag} {i} {j} {k} {c}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(file_texts())
def test_parse_serialize_parse_round_trips(text):
    d = parse_dialgebra(text)
    out = serialize_dialgebra(d)
    again = parse_dialgebra(out)
    assert again == d
    assert again.basis_names == d.basis_names
    assert serialize_dialgebra(again) == out


@settings(max_examples=60)
@given(file_texts(tags=("left",)))
def test_algebra_parse_serialize_parse_round_trips(text):
    a = parse_algebra(text)
    again = parse_algebra(serialize_algebra(a))
    assert again == a
    assert again.basis_names == a.basis_names


# Tokens near the grammar, including non-ASCII numerals, underscores, signs,
# zero denominators, a composite and a prime beyond the primality bound.
_TOKENS = st.sampled_from(
    ["dialg", "1", "field", "rational", "prime", "dim", "basis", "left", "right", "#",
     "0", "2", "3", "-1", "+3", "17", "1/2", "1/0", "3/-2", "0x1", "1e3", "1_0", "\u0663",
     "\u00b2", "4", str(10**30 + 57), "9" * 40, "", "\x00", "\u2028"]
)
_LINES = st.one_of(st.lists(_TOKENS, max_size=6).map(" ".join), st.text(max_size=12))
_HEADERS = st.sampled_from(
    [[], ["dialg 1"], ["dialg 1", "field rational"], ["dialg 1", "field prime 3", "dim 2"],
     ["dialg 1", "field rational", "dim 3", "basis a b c"]]
)


@settings(max_examples=200)
@given(_HEADERS, st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
def test_parsers_raise_nothing_but_parse_error(header, body, newline):
    text = newline.join(header + body)
    for parse in (parse_dialgebra, parse_algebra):
        try:
            parse(text)
        except ParseError:
            pass
