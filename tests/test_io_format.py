from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from curvlab.io_format import (HEADER, ParseError, TensorDocument,
                               build_tensor, document_from_tensor,
                               parse_document, read_document,
                               serialize_document)
from curvlab.harness import model_constant_sectional, random_tensor
from curvlab.scalars import integerize
from curvlab.spaces import (GeometryError, InvariantViolation,
                            canonical_complex_structure, make_space)
from curvlab.tensors import failing_symmetries


GOOD = """\
curvlab-tensor/1
m = 2
s = 1
J = canonical
name = demo
symmetrize = false
bianchi = false
R[1,2,2,1] = -1
R[2,1,2,1] = 1        # comment after a value
R[1,2,1,2] = 1
R[2,1,1,2] = -1
"""


class TestParse:
    def test_parse_fields(self):
        doc = parse_document(GOOD)
        assert (doc.m, doc.s, doc.name) == (2, 1, "demo")
        assert doc.J is None and not doc.symmetrize
        assert doc.entries[0] == (1, 2, 1, 2, Fraction(1))

    def test_round_trip_canonical(self):
        doc = parse_document(GOOD)
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_document("m = 2\ns = 1\n")

    def test_error_carries_line_number(self):
        bad = GOOD + "R[1,2,2,1] = 0.5\n"
        with pytest.raises(ParseError) as exc:
            parse_document(bad)
        assert exc.value.line == len(bad.splitlines())

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_break_only_at_newlines(self, newline):
        assert parse_document(GOOD.replace("\n", newline)) == parse_document(GOOD)
        # \f is not a line break: the bad value of m sits on line 2
        bad = f"{HEADER}\nm = 2\x0cs = 1\nbogus = 1\n".replace("\n", newline)
        with pytest.raises(ParseError) as exc:
            parse_document(bad)
        assert (exc.value.line, exc.value.col) == (2, 5)

    @pytest.mark.parametrize("line,col", [
        ("R[1,2,2,1] = 0.5", 14), ("R[1,2,2,1]=0.5", 12), ("  m =   x", 9), ("s =", 4),
    ])
    def test_error_column_is_the_first_of_the_value(self, line, col):
        with pytest.raises(ParseError) as exc:
            parse_document(f"{HEADER}\n{line}\n")
        assert (exc.value.line, exc.value.col) == (2, col)

    @pytest.mark.parametrize("row,col", [
        ("J[1] = 0 -1/0", 10), ("J[1] = 1/0 -1", 8), ("J[1] =  0   1  x", 16),
    ])
    def test_bad_J_token_reports_its_own_column(self, row, col):
        with pytest.raises(ParseError) as exc:
            parse_document(f"{HEADER}\nm = 1\ns = 0\nJ = custom\n{row}\nJ[2] = 1 0\n")
        assert (exc.value.line, exc.value.col) == (5, col)

    def test_unknown_key(self):
        with pytest.raises(ParseError) as exc:
            parse_document(f"{HEADER}\nm = 2\ns = 1\nbogus = 1\n")
        assert "bogus" in str(exc.value)

    def test_entry_indices_validated_on_build(self):
        doc = parse_document(f"{HEADER}\nm = 2\ns = 1\nR[9,1,1,2] = 1\n")
        with pytest.raises(Exception):
            build_tensor(doc)

    def test_custom_J_rows_required_complete(self):
        text = f"{HEADER}\nm = 1\ns = 0\nJ = custom\nJ[1] = 0 -1\n"
        with pytest.raises(ParseError):
            parse_document(text)

    def test_custom_J_row_count_checked_before_the_dimension(self):
        # a huge m must fail on the row count, not size a list of 2m row numbers
        text = f"{HEADER}\nm = {10 ** 12}\ns = 0\nJ[1] = 0 -1\n"
        with pytest.raises(ParseError, match="custom J needs rows"):
            parse_document(text)

    def test_bad_J_names_invariant(self):
        text = (f"{HEADER}\nm = 1\ns = 0\nJ = custom\n"
                "J[1] = 1 0\nJ[2] = 0 1\n")
        doc = parse_document(text)
        with pytest.raises(InvariantViolation) as exc:
            build_tensor(doc)
        assert exc.value.invariant == "J.square"

    def test_zero_entries_dropped_and_duplicates_merged(self):
        text = (f"{HEADER}\nm = 1\ns = 0\n"
                "R[1,2,2,1] = 1/2\nR[1,2,2,1] = 1/2\nR[1,2,2,1] = -1\n"
                "R[2,1,2,1] = 0\n")
        doc = parse_document(text)
        assert doc.entries == ()


# Malformed component lines and the exact error each gives on line 4 of a
# document: (line, column, message), as given when values were parsed by
# Fraction(str) rather than built from ints.
MALFORMED_ENTRIES = [
    ("R[1,2,2,1] = 1/0", 14, "expected a rational p or p/q with q > 0, got '1/0'"),
    ("R[1,2,2,1] = -7/00", 14, "expected a rational p or p/q with q > 0, got '-7/00'"),
    ("R[1,2,2,1] = 0/0", 14, "expected a rational p or p/q with q > 0, got '0/0'"),
    ("R[1,2,2,1] = 1/-2", 14, "expected a rational p or p/q with q > 0, got '1/-2'"),
    ("R[1,2,2,1] = --1", 14, "expected a rational p or p/q with q > 0, got '--1'"),
    ("R[1,2,2,1] = +1", 14, "expected a rational p or p/q with q > 0, got '+1'"),
    ("R[1,2,2,1] = 1.5", 14, "expected a rational p or p/q with q > 0, got '1.5'"),
    ("R[1,2,2,1] = 1/2/3", 14, "expected a rational p or p/q with q > 0, got '1/2/3'"),
    ("R[1,2,2,1] =", 13, "expected a rational p or p/q with q > 0, got ''"),
    ("R[1,2,2,1] = " + "9" * 4400, 14, "number 99999999999999999999... has too many digits"),
    ("R[1,2,2,1] = -" + "9" * 4400 + "/7", 14,
     "number -9999999999999999999... has too many digits"),
    ("R[1,2,2,1] = 1/" + "9" * 4400, 14, "number 1/999999999999999999... has too many digits"),
    ("R[" + "9" * 4400 + ",1,1,1] = 1", 1, "number 99999999999999999999... has too many digits"),
    ("R[1,2,2] = 1", 1, "unknown key 'R[1,2,2]'"),
    ("R[1,2,2,1,1] = 1", 1, "unknown key 'R[1,2,2,1,1]'"),
    ("R[a,2,2,1] = 1", 1, "unknown key 'R[a,2,2,1]'"),
    ("R[1, 2,2,1] = 1", 1, "unknown key 'R[1, 2,2,1]'"),
    ("R[-1,2,2,1] = 1", 1, "unknown key 'R[-1,2,2,1]'"),
    ("r[1,2,2,1] = 1", 1, "unknown key 'r[1,2,2,1]'"),
    ("R[1,2,2,1] = = 1", 14, "expected a rational p or p/q with q > 0, got '= 1'"),
    ("R[1,2,2,1] = 1 = 2", 14, "expected a rational p or p/q with q > 0, got '1 = 2'"),
    ("R[1,2,2,1] 1", 12, "expected 'key = value'"),
    ("R[1,2,2,1] = x   # trailing comment", 14,
     "expected a rational p or p/q with q > 0, got 'x'"),
    ("R[1,2,2,1] = 1 2  # two values", 14, "expected a rational p or p/q with q > 0, got '1 2'"),
    ("  R[1,2,2,1]    =    1/0    ", 22, "expected a rational p or p/q with q > 0, got '1/0'"),
    ("R[1,2,2,1]\t=\t1/0", 14, "expected a rational p or p/q with q > 0, got '1/0'"),
    ("R[1,2,2,1]=0x10", 12, "expected a rational p or p/q with q > 0, got '0x10'"),
    ("R[1,2,2,1] = 1\x0c2", 14, "expected a rational p or p/q with q > 0, got '1\\x0c2'"),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("line,col,message", MALFORMED_ENTRIES)
def test_malformed_entry_errors_are_pinned(line, col, message, newline):
    text = newline.join([HEADER, "m = 2", "s = 1", line, ""])
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == f"line 4, col {col}: {message}"
    assert (exc.value.line, exc.value.col) == (4, col)


class TestBuild:
    def test_sparse_constant_model_matches_generator(self, sp21):
        R = model_constant_sectional(sp21, Fraction(5, 2))
        doc = document_from_tensor(R, name="c")
        R2 = build_tensor(doc)
        assert (R.components == R2.components).all()

    def test_one_based_indices(self):
        doc = parse_document(
            f"{HEADER}\nm = 1\ns = 0\n"
            "R[1,2,2,1] = 3\nR[2,1,2,1] = -3\nR[1,2,1,2] = -3\nR[2,1,1,2] = 3\n")
        R = build_tensor(doc)
        assert R.components[0, 1, 1, 0] == 3

    def test_symmetrize_flag_round_trip(self, sp21):
        doc = TensorDocument(m=2, s=1, symmetrize=True,
                             entries=((1, 2, 3, 4, Fraction(1)),))
        R = build_tensor(doc)
        assert R.components[1, 0, 2, 3] == -R.components[0, 1, 2, 3]

    def test_random_tensor_round_trip(self, sp31):
        R = random_tensor(sp31, 77)
        doc = document_from_tensor(R, name="rt", seed=77)
        text = serialize_document(doc)
        R2 = build_tensor(parse_document(text))
        assert (R.components == R2.components).all()

    @pytest.mark.parametrize("q", [1, 5])
    def test_numerators_past_int64_are_checked_exactly(self, q):
        # scaled by D = 3q the numerators pass 2^62 (q = 1) and 2^63 (q = 5)
        a, b = Fraction(2 ** 62 + 1, 3), Fraction(1, q)

        def text(nudge):
            lines = [HEADER, "m = 2", "s = 1"]
            for (i, j), v in (((1, 2), a), ((3, 4), b)):
                lines += [f"R[{i},{j},{j},{i}] = {v}", f"R[{j},{i},{i},{j}] = {v}",
                          f"R[{i},{j},{i},{j}] = {-v}", f"R[{j},{i},{j},{i}] = {-v + nudge}"]
            return "\n".join(lines) + "\n"

        with pytest.raises(InvariantViolation) as exc:
            build_tensor(parse_document(text(Fraction(1, 3))))
        assert exc.value.invariant == "antisym-12"
        R = build_tensor(parse_document(text(0)))
        N, D = R.integer_form
        assert D == 3 * q
        assert max(abs(x) for x in N.flat) > 2 ** (62 if q == 1 else 63)
        assert all(Fraction(x, D) == c for x, c in zip(N.flat, R.components.flat))
        bad = build_tensor(parse_document(text(Fraction(1, 3))), validate=False)
        assert (failing_symmetries(bad.integer_form[0]) == failing_symmetries(bad.components)
                == ["antisym-12", "antisym-34"])

    def test_custom_J_space_round_trip(self):
        J = [[0, 1], [-1, 0]]
        sp = make_space(1, 0, J=J)
        R = model_constant_sectional(sp, 2)
        doc = document_from_tensor(R)
        text = serialize_document(doc)
        R2 = build_tensor(parse_document(text))
        assert (R2.space.J == sp.J).all()
        assert (R.components == R2.components).all()


# -- fuzzing -------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def documents(draw):
    m = draw(st.integers(1, 3))
    n = 2 * m
    index = st.integers(1, n)
    J = draw(st.sampled_from(["canonical", "custom", "random"]))
    if J == "canonical":
        J = None
    elif J == "custom":
        J = tuple(tuple(Fraction(x) for x in row) for row in -canonical_complex_structure(m))
    else:
        J = tuple(tuple(draw(RATIONALS) for _ in range(n)) for _ in range(n))
    return TensorDocument(
        m=m, s=draw(st.integers(0, m)), J=J,
        name=draw(st.none() | st.from_regex(r"[A-Za-z0-9_.+-]{1,8}", fullmatch=True)),
        seed=draw(st.none() | st.integers(-10 ** 6, 10 ** 6)),
        symmetrize=draw(st.booleans()), bianchi=draw(st.booleans()),
        entries=tuple(draw(st.lists(st.tuples(index, index, index, index, RATIONALS),
                                    min_size=1, max_size=6))))


def orbit(i, j, k, l, v) -> list:
    """The entries one value fixes under both antisymmetries and pair exchange."""
    return [(i, j, k, l, v), (j, i, k, l, -v), (i, j, l, k, -v), (j, i, l, k, v),
            (k, l, i, j, v), (l, k, i, j, -v), (k, l, j, i, -v), (l, k, j, i, v)]


def plain_failures(C, bianchi: bool) -> list:
    """The violated invariants, by Fraction sums written out index by index."""
    n = len(C)
    R = C.tolist()
    sums = {
        "antisym-12": lambda i, j, k, l: R[i][j][k][l] + R[j][i][k][l],
        "antisym-34": lambda i, j, k, l: R[i][j][k][l] + R[i][j][l][k],
        "pair-exchange": lambda i, j, k, l: R[i][j][k][l] - R[k][l][i][j],
        "bianchi": lambda i, j, k, l: R[i][j][k][l] + R[j][k][i][l] + R[k][i][j][l],
    }
    names = list(sums)[:4 if bianchi else 3]
    return [name for name in names
            if any(sums[name](*idx) for idx in product(range(n), repeat=4))]


@st.composite
def laid_out_documents(draw):
    """(text, m, entries): the stated entries, written with comments, blank
    lines, CRLF or CR, extra blanks, unreduced values and duplicate lines."""
    m = draw(st.integers(1, 3))
    index = st.integers(1, 2 * m)
    entries = draw(st.lists(st.tuples(index, index, index, index, RATIONALS), max_size=6))
    if draw(st.booleans()):
        entries = [e for entry in entries for e in orbit(*entry)]
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))
    blank = st.sampled_from(["", " ", "  ", "\t", " \t "])
    lines = [HEADER, f"m = {m}", "s = 0"]
    for i, j, k, l, v in entries:
        scale = draw(st.integers(1, 3))
        p, q = v.numerator * scale, v.denominator * scale
        value = draw(st.sampled_from([f"{p}/{q}", f"{'-' if p < 0 else ''}00{abs(p)}/0{q}"]
                                     + ([str(v.numerator)] if v.denominator == 1 else [])
                                     + (["-0"] if p == 0 else [])))
        comment = draw(st.sampled_from(["", "# note", " #", "#R[1,1,1,1] = x"]))
        lines.append(f"{draw(blank)}R[{i},{j},{k},{l}]{draw(blank)}={draw(blank)}{value}"
                     f"{draw(blank)}{comment}")
        lines += draw(st.sampled_from([[], [""], ["# a comment line"], ["   "]]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline, m, tuple(entries)


class TestIngestion:
    @settings(max_examples=60, deadline=None)
    @given(laid_out_documents(), st.booleans())
    def test_one_pass_ingestion_matches_the_oracles(self, case, bianchi):
        text, m, entries = case
        doc = parse_document(text)
        assert doc == TensorDocument(m=m, s=0, entries=entries).canonical()
        R = build_tensor(doc, validate=False)
        N, D = R.integer_form
        assert (list(N.flat), D) == integerize(R.components.flat)
        expected = plain_failures(R.components, bianchi)
        assert failing_symmetries(N, bianchi) == expected
        assert failing_symmetries(R.components, bianchi) == expected
        if expected and not bianchi:
            with pytest.raises(InvariantViolation) as exc:
                build_tensor(doc)
            assert exc.value.invariant == expected[0]


# replacement values that probe the grammar's edges
VALUES = st.sampled_from([
    b"1/0", b"-7/00", b"0/0", b"9" * 4400, b"1/" + b"9" * 4400, b"caf\xc3\xa9", b"\xff",
    b"", b"1.5", b"--1", b"1/-2", b"custom", b"true", b"-1", b"7", b"40",
])
BYTES = st.sampled_from([b"\xc3\xa9", b"\x00", b"/0", b"0", b"9", b"=", b"#", b"\n", b"\r",
                         b" ", b"[", b",", b"R[1,2,2,1] = ", b"J = custom\n", b"J[1] = "]) \
    | st.binary(min_size=1, max_size=3)
POSITIONS = st.floats(0, 1, exclude_max=True)

# (line, new value) edits, then (position, kind, bytes) edits of the raw file
MUTATIONS = st.tuples(
    st.lists(st.tuples(POSITIONS, VALUES), max_size=3),
    st.lists(st.tuples(POSITIONS, st.sampled_from(["insert", "delete", "replace"]), BYTES),
             max_size=3))


def mutate(data: bytes, mutations) -> bytes:
    line_edits, byte_edits = mutations
    lines = data.split(b"\n")
    for where, value in line_edits:
        at = int(where * len(lines))
        lines[at] = lines[at].partition(b"=")[0] + b"= " + value
    data = b"\n".join(lines)
    for where, kind, payload in byte_edits:
        at = int(where * len(data))
        if kind == "insert":
            data = data[:at] + payload + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(payload):]
        else:
            data = data[:at] + payload + data[at + len(payload):]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_canonical_documents_round_trip(self, doc):
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(documents(), MUTATIONS)
    def test_mutated_files_raise_only_input_errors(self, fuzz_dir, doc, mutations):
        path = fuzz_dir / "mutated.tensor"
        path.write_bytes(mutate(serialize_document(doc).encode("ascii"), mutations))
        try:
            build_tensor(read_document(path))
        except (ParseError, GeometryError):
            pass
