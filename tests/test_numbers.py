"""One rule for numbers read from text, applied by every reader.

A number is ASCII digits with an optional sign; over Q it may be followed
by /<den>, a positive denominator without a leading zero. Every reader
below either reads a spelling as the same number or refuses it, each in its
own form: a ParseError naming the line, exit status 2 with nothing on
stdout, or ValueError. The table requires all of them to agree.
"""

import io
import os
import re
from contextlib import redirect_stderr
from fractions import Fraction
from unittest import mock

import pytest

from dialg import Algebra, Field, ParseError, from_associative, parse_dialgebra
from dialg import serialize_dialgebra
from dialg.cli import main

P = 11
QQ, GF = Field.rationals(), Field.prime(P)
REFUSED = "refused"

# Each spelling and the number it is over Q, or None where no reader takes it.
SPELLINGS = {
    "3": 3,
    "+3": 3,
    "-3": -3,
    "007": 7,
    "3/4": Fraction(3, 4),
    "-3/4": Fraction(-3, 4),
    "1/2": Fraction(1, 2),
    "٣": None,  # ARABIC-INDIC DIGIT THREE
    "３": None,  # FULLWIDTH DIGIT THREE
    "1_0": None,
    " 3": None,
    "3 ": None,
    "3.0": None,
    "1e3": None,
    "0x3": None,
    "": None,
    "3/0": None,
    "3/-4": None,
}


def _file(text, lineno, read):
    """read(the parsed file), the n of a `dim n` out of range, or REFUSED."""
    try:
        return read(parse_dialgebra(text))
    except ParseError as exc:
        assert exc.lineno == lineno
        out_of_range = re.fullmatch(r"dim must be between 1 and 16, got (-?\d+)", exc.message)
        return int(out_of_range[1]) if out_of_range else REFUSED


def file_coefficient(field):
    def read(token, tmp_path):
        text = f"dialg 1\nfield {field}\ndim 1\nleft 1 1 1 {token}\n"
        return _file(text, 4, lambda d: d.left.entry(0, 0, 0).value)

    return read


def file_dim(token, tmp_path):
    return _file(f"dialg 1\nfield rational\ndim {token}\n", 3, lambda d: d.dim)


def _cli(argv, bound=None):
    """(exit status, stdout, stderr) of the CLI, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if bound is None else {"DIALG_SEARCH_BOUND": bound}
    with mock.patch.dict(os.environ, env), redirect_stderr(err):
        try:
            code = main(argv, out)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_error(argv, refusal, reported, bound=None):
    """REFUSED, or the number that the CLI's error message reports reading."""
    code, out, err = _cli(argv, bound)
    assert code == 2 and out == "", err
    if refusal in err:
        return REFUSED
    match = re.search(reported, err)
    return int(next(g for g in match.groups() if g is not None))


def ideal(field):
    # e3 e3 = e1 is the only product, so the span of (1, v, 0) is an ideal
    # for every v, and the quotient on e2, e3 has e3 e3 = e1 = -v e2.
    d = from_associative(Algebra.from_entries(field, 3, {(2, 2, 0): 1}))

    def read(token, tmp_path):
        path = tmp_path / "d.dialg"
        path.write_text(serialize_dialgebra(d))
        code, out, err = _cli(["quotient", str(path), "--ideal", f"1,{token},0"])
        if code == 0:
            return (-parse_dialgebra(out).left.entry(1, 1, 0)).value
        assert code == 2 and out == "" and err.startswith("error: bad ideal generator "), err
        return REFUSED

    return read


def option_prime(token, tmp_path):
    # A search bound of 1 stops every census before it runs, naming GF(p).
    refusal = "argument --prime: invalid int value"
    reported = r"over GF\((\d+)\)|error: (-?\d+) is not a prime"
    return _cli_error(["census", f"--prime={token}"], refusal, reported, bound="1")


def option_dim(token, tmp_path):
    refusal = "argument --dim: invalid int value"
    return _cli_error(["census", "--prime=2", f"--dim={token}"], refusal, r"got (-?\d+)\)")


def search_bound(token, tmp_path):
    refusal = "DIALG_SEARCH_BOUND must be a non-negative integer"
    return _cli_error(["census", "--prime=3"], refusal, r"search bound (\d+)$", bound=token)


def scalar(field):
    def read(token, tmp_path):
        try:
            return field.scalar(token).value
        except ValueError:
            return REFUSED

    return read


# name: (reader, the numbers it takes, whether it reads whitespace-split tokens)
READERS = {
    "file-coefficient-rational": (file_coefficient(QQ), "rational", True),
    "file-coefficient-prime": (file_coefficient(GF), "residue", True),
    "file-dim": (file_dim, "integer", True),
    "ideal-rational": (ideal(QQ), "rational", False),
    "ideal-prime": (ideal(GF), "residue", False),
    "option-prime": (option_prime, "integer", False),
    "option-dim": (option_dim, "integer", False),
    "DIALG_SEARCH_BOUND": (search_bound, "non-negative", False),
    "scalar-rational": (scalar(QQ), "rational", False),
    "scalar-prime": (scalar(GF), "residue", False),
}


def expected(spelling, numbers):
    value = SPELLINGS[spelling]
    if value is None or numbers == "rational":
        return REFUSED if value is None else value
    if value.denominator != 1:
        return REFUSED
    if numbers == "residue":
        return value % P
    return REFUSED if numbers == "non-negative" and value < 0 else int(value)


# A file line is split on whitespace, so a spaced spelling is no one token there.
CASES = [
    (reader, spelling)
    for reader, (_, _, split) in READERS.items()
    for spelling in SPELLINGS
    if not (split and spelling != spelling.strip())
]


@pytest.mark.parametrize("reader, spelling", CASES)
def test_every_reader_reads_a_spelling_by_the_one_rule(reader, spelling, tmp_path):
    read, numbers, _ = READERS[reader]
    assert read(spelling, tmp_path) == expected(spelling, numbers)
