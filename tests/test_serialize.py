"""File formats: canonical "p/q" scalars, matrices, polygons, certificates."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf.canonical import CanonicalParams
from exactnmf.driver import Factorization, nn_factor
from exactnmf.errors import ExactNMFError, ParseError
from exactnmf.estimator import ExactNMF
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix, _digits
from exactnmf.polygon import ExtendedFormulation, Polygon, build_extension, polygon_from_points
from exactnmf.rng import SplitMix64
from exactnmf.serialize import (
    MAX_DIGITS,
    _check_token_size,
    certificate_from_jsonable,
    certificate_to_jsonable,
    dumps,
    format_scalar,
    formulation_from_jsonable,
    formulation_to_jsonable,
    load_json,
    load_matrix_file,
    matrix_from_csv,
    matrix_from_jsonable,
    matrix_to_csv,
    matrix_to_jsonable,
    parse_scalar,
    polygon_from_jsonable,
    polygon_to_jsonable,
    save_text,
)


class TestScalars:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(3, 2), "3/2"),
            (Fraction(5), "5"),
            (Fraction(-7, 3), "-7/3"),
            (Fraction(0), "0"),
        ],
    )
    def test_format(self, value, expected):
        assert format_scalar(value) == expected

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("3/2", Fraction(3, 2)),
            ("5", Fraction(5)),
            ("-7/3", Fraction(-7, 3)),
            ("0.25", Fraction(1, 4)),
            ("1e-3", Fraction(1, 1000)),
            (7, Fraction(7)),
        ],
    )
    def test_parse(self, token, expected):
        assert parse_scalar(token) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("one half")

    def test_parse_rejects_float_objects(self):
        with pytest.raises(ParseError):
            parse_scalar(0.1)

    def test_token_size_limit(self):
        # digits plus exponent: 1 + 4299 is at the limit, 1 + 4300 past it
        assert MAX_DIGITS == 4300
        assert parse_scalar("1e4299") == 10**4299
        assert parse_scalar("1e-4299") == Fraction(1, 10**4299)
        for token in ("1e4300", "1E4300", "1e-4300", "1.5e4299", "1" * 4301, "1/" + "1" * 4300):
            with pytest.raises(ParseError, match="4300 digits"):
                parse_scalar(token)

    def test_json_number_literals_bounded(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[1e4299]]}')
        assert load_json(str(path))["entries"][0][0] == 10**4299
        for literal in ("1e4300", "1.5e4299", "1" * 4301):
            path.write_text('{"entries": [[%s]]}' % literal)
            with pytest.raises(ParseError, match="4300 digits"):
                load_json(str(path))

    def test_round_trip_random(self):
        rng = SplitMix64(81)
        for _ in range(200):
            x = Fraction(rng.below(2001) - 1000, rng.below(999) + 1)
            assert parse_scalar(format_scalar(x)) == x


class TestLibraryDigitLimit:
    """Strings handed to the library keep the reader's digit limit, so a
    short string cannot ask for a huge integer there either; point
    coordinates are read as matrix entries are."""

    calls = {
        "nn_factor": lambda x: nn_factor([[x, 1], [1, 1]]),
        "fit_transform": lambda x: ExactNMF().fit_transform([[x, 1]]),
        "polygon_from_points": lambda x: polygon_from_points([(0, 0), (x, 0), (0, 1)]),
        "CanonicalParams.of": lambda x: CanonicalParams.of(x, 1, 1, 1, 1, 1),
    }

    @pytest.mark.parametrize("name", sorted(calls))
    def test_past_the_limit_raises(self, name):
        with pytest.raises(ParseError, match="4300 digits"):
            self.calls[name]("1e4301")

    @pytest.mark.parametrize("name", sorted(calls))
    def test_at_the_limit_is_accepted(self, name):
        self.calls[name]("1e4299")

    def test_points_refuse_booleans_as_matrices_do(self):
        with pytest.raises(TypeError, match="booleans"):
            polygon_from_points([(0, 0), (True, 0), (0, 1)])

    def test_numpy_integers_are_entries_and_coordinates(self):
        np = pytest.importorskip("numpy")
        points = np.array([(0, 0), (3, 0), (0, 1)])
        assert polygon_from_points(points) == polygon_from_points([(0, 0), (3, 0), (0, 1)])
        assert polygon_from_points([tuple(p) for p in points]).n == 3
        assert Matrix(list(points)) == Matrix([[0, 0], [3, 0], [0, 1]])


class TestWriterDigitLimit:
    """The writers refuse what the reader refuses: a token with more than
    MAX_DIGITS digits in p and q together."""

    @staticmethod
    def value(p_digits, q_digits, sign=1):
        # 10^k + 1 is prime to 2, 3 and 5, so the fraction is in lowest terms.
        return Fraction(sign * (10 ** (p_digits - 1) + 1), 3 * 10 ** (q_digits - 1) if q_digits else 1)

    @pytest.mark.parametrize("p_digits,q_digits", [(4300, 0), (2500, 1800), (4299, 1)])
    def test_at_the_limit_round_trips(self, p_digits, q_digits):
        x = self.value(p_digits, q_digits)
        (text,), = matrix_to_jsonable(Matrix([[x]]))["entries"]
        assert sum(c.isdecimal() for c in text) == MAX_DIGITS
        assert parse_scalar(text) == x

    @pytest.mark.parametrize("p_digits,q_digits", [(3000, 2000), (4300, 1), (2150, 2151)])
    def test_past_the_limit_raises(self, p_digits, q_digits):
        x = self.value(p_digits, q_digits, sign=-1)
        with pytest.raises(ExactNMFError, match=f"matrix entry \\(0, 1\\) needs {p_digits + q_digits} digits"):
            matrix_to_jsonable(Matrix([[1, x]]))
        with pytest.raises(ParseError, match="4300 digits"):  # as verify would
            parse_scalar(format_scalar(x))

    def test_digit_count_matches_str(self):
        rng = SplitMix64(82)
        values = [rng.below(10 ** rng.below(4300)) for _ in range(200)]
        values += [n + d for k in (1, 2, 4200, 4299) for n in (10**k,) for d in (-1, 0, 1)]
        for n in values + [-n for n in values]:
            assert _digits(n) == len(str(abs(n)))

    def test_writers_name_the_entry(self):
        big = Fraction(10**4300)
        fact = Factorization(Matrix.identity(2), Matrix([[1, 2], [3, big]]), 2, 2, ())
        with pytest.raises(ExactNMFError, match=r"right factor entry \(1, 1\) needs 4301 digits"):
            certificate_to_jsonable(fact)
        ef = ExtendedFormulation(2, Matrix.identity(2), Matrix.identity(2), (1, 2, big, 4),
                                 Matrix.identity(2))
        with pytest.raises(ExactNMFError, match=r"beta entry \(0, 2\) needs 4301 digits"):
            formulation_to_jsonable(ef)
        for write in (matrix_to_csv, lambda m: polygon_to_jsonable(Polygon(m.data, ()))):
            with pytest.raises(ExactNMFError, match=r"\(1, 1\) needs 4301 digits"):
                write(Matrix([[1, 2], [3, big]]))


# -- oracle: the general reader that parse_scalar used for every token -------


def oracle_parse_scalar(token) -> Fraction:
    """Parse "p/q", integer, or decimal tokens to an exact rational."""
    if isinstance(token, Fraction):
        return token
    if isinstance(token, bool):
        raise ParseError(f"boolean {token!r} is not a number")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        # floats only appear when a caller bypassed exact JSON loading
        raise ParseError(f"refusing inexact float {token!r}; write it as a string")
    text = _check_token_size(str(token).strip())
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        reason = "invalid literal" if isinstance(exc, ValueError) else "zero denominator"
        raise ParseError(f"cannot parse {text[:30]!r} as a rational: {reason}") from None


def _outcome(parse, token):
    try:
        value = parse(token)
    except ParseError as exc:
        return "error", str(exc)
    return type(value), value


def _near_limit(length):
    """Canonical-looking tokens of exactly ``length`` characters."""
    return [
        "1" * length,
        "-" + "9" * (length - 1),
        "0" * (length - 2) + "/7",
        "1/" + "3" * (length - 2),
        "-1/" + "3" * (length - 3),
    ]


EDGE_TOKENS = [
    "2/4", "-6/4", "007", "-007/014", "0/5", "-0", "-0/3", "+1", "+1/2", "1/-2", "-1/-2",
    "1/0", "1/00", "-0/0", " 1", "1 ", "\t3/4\n", " -2/6 ", "1_000", "1_0/2_0",
    "\u0661\u0662", "\u0661/\u0662", "\u00b2", "1/\u00b2", "\uff11", "0.5", "-.5", "1.",
    "1e3", "1E-3", "2/4e1", "1.5/2", "", "-", "/", "1/", "/2", "--1", "1//2", "1/2/3",
    "0x10", "inf", "nan", "1\n", "\n1", 7, -3, 0, True, False, 0.5, Fraction(6, 4),
    None, ["1"],
] + [token for length in (4299, 4300, 4301) for token in _near_limit(length)]


@st.composite
def scalar_tokens(draw):
    kind = draw(st.sampled_from(["canonical", "padded", "text", "edge"]))
    if kind == "edge":
        return draw(st.sampled_from(EDGE_TOKENS))
    if kind == "text":
        return draw(st.text(alphabet="0123456789-+/ ._eE\u0661\u00b2", max_size=12))
    p = draw(st.integers(min_value=-(2**80), max_value=2**80))
    q = draw(st.one_of(st.just(None), st.integers(min_value=0, max_value=2**80)))
    token = str(p) if q is None else f"{p}/{q}"
    if kind == "padded":
        zeros = "0" * draw(st.integers(min_value=1, max_value=3))
        sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
        token = sign + zeros + digits.replace("/", "/" + zeros)
    return token


@settings(max_examples=600)
@given(scalar_tokens())
def test_parse_scalar_matches_general_reader(token):
    assert _outcome(parse_scalar, token) == _outcome(oracle_parse_scalar, token)


def test_parse_scalar_edge_tokens():
    for token in EDGE_TOKENS:
        assert _outcome(parse_scalar, token) == _outcome(oracle_parse_scalar, token), token


class TestMatrixFormats:
    def test_json_round_trip(self, h7_slack):
        obj = matrix_to_jsonable(h7_slack)
        assert obj["rows"] == 7 and obj["cols"] == 7
        assert matrix_from_jsonable(obj) == h7_slack

    def test_json_through_text(self, h7_slack):
        text = dumps(matrix_to_jsonable(h7_slack))
        assert matrix_from_jsonable(json.loads(text)) == h7_slack

    def test_documents_parsed_independently(self):
        doc = {"entries": [["1/2", "0", "0"], ["0", "2/4", "-3"]]}
        other = {"entries": [["0", "-3"], ["1/2", "7"]]}
        first = matrix_from_jsonable(doc)
        second = matrix_from_jsonable(other)
        again = matrix_from_jsonable(doc)
        assert first == again == Matrix([[Fraction(1, 2), 0, 0], [0, Fraction(1, 2), -3]])
        assert second == Matrix([[0, -3], [Fraction(1, 2), 7]])
        # equal tokens share a value within a document, never across documents
        assert first[0, 1] is first[1, 0]
        assert first[0, 1] is not second[0, 0] and first[0, 1] is not again[0, 1]
        assert all(type(x) is Fraction for row in first.data for x in row)

    @pytest.mark.parametrize(
        "entries",
        [[["1", ["1"]]], [["1", {"a": 1}]], [[1, True]], [[1, 1.0]], [["1/2", 0.5]], [["1/0"]]],
    )
    def test_bad_tokens_rejected(self, entries):
        with pytest.raises(ParseError):
            matrix_from_jsonable({"entries": entries})

    def test_csv_round_trip(self):
        m = Matrix([["1/3", 2], [0, "-5/7"]])
        assert matrix_from_csv(matrix_to_csv(m)) == m

    def test_declared_shape_checked(self):
        with pytest.raises(ParseError):
            matrix_from_jsonable({"rows": 3, "cols": 2, "entries": [["1", "2"]]})

    @pytest.mark.parametrize("obj, message", [
        ({"rows": "1", "entries": [["1", "2"]]}, '"rows" must be an integer, got \'1\''),
        ({"rows": True, "cols": 2.0, "entries": [["1", "2"]]}, '"rows" must be an integer, got True'),
        ({"cols": Fraction(2), "entries": [["1", "2"]]},
         r'"cols" must be an integer, got Fraction\(2, 1\)'),
    ])
    def test_declared_shape_must_be_an_integer(self, obj, message):
        """A declared size is a JSON integer: not a string, not a bool, and
        not a number written with a point or an exponent (read as a Fraction)."""
        with pytest.raises(ParseError, match=message):
            matrix_from_jsonable(obj)

    def test_empty_entries_need_declared_zero_rows(self):
        empty = matrix_from_jsonable({"rows": 0, "cols": 3, "entries": []})
        assert empty == Matrix.zeros(0, 3)
        for obj in (
            {"entries": []},
            {"rows": 1, "cols": 3, "entries": []},
            {"rows": 0, "cols": "3", "entries": []},
            {"rows": 0, "cols": -1, "entries": []},
        ):
            with pytest.raises(ParseError):
                matrix_from_jsonable(obj)

    def test_input_without_columns_refused(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[]]}')
        with pytest.raises(ParseError, match="no columns"):
            load_matrix_file(str(path))
        # A certificate's left factor of inner dimension 0 is written the same way.
        cert = certificate_from_jsonable(
            {
                "left": {"rows": 2, "cols": 0, "entries": [[], []]},
                "right": {"rows": 0, "cols": 3, "entries": []},
                "inner_dim": 0,
                "bound": 2,
            }
        )
        assert cert.left == Matrix.zeros(2, 0) and cert.right == Matrix.zeros(0, 3)

    def test_ragged_csv_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv("1,2\n3\n")

    def test_decimal_entries_exact(self):
        m = matrix_from_jsonable({"entries": [["0.1", "0.2"]]})
        assert m[0, 0] == Fraction(1, 10)
        assert m[0, 1] == Fraction(1, 5)

    def test_file_round_trip_json_and_csv(self, tmp_path, h7_slack):
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        save_text(str(json_path), dumps(matrix_to_jsonable(h7_slack)))
        save_text(str(csv_path), matrix_to_csv(h7_slack))
        assert load_matrix_file(str(json_path)) == h7_slack
        assert load_matrix_file(str(csv_path)) == h7_slack

    def test_json_float_literal_parsed_exactly(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[0.1, 3]]}')
        m = matrix_from_jsonable(load_json(str(path)))
        assert m[0, 0] == Fraction(1, 10)


class TestPolygonFormat:
    def test_round_trip(self, h7_polygon):
        obj = polygon_to_jsonable(h7_polygon)
        back = polygon_from_jsonable(obj)
        assert back.vertices == h7_polygon.vertices
        assert back.facets == h7_polygon.facets

    def test_missing_field(self):
        with pytest.raises(ParseError):
            polygon_from_jsonable({"points": []})

    @pytest.mark.parametrize(
        "vertices", [[0, 1], "0011", [["0", "0"], "11"], [["0", "0", "0"]]]
    )
    def test_vertices_must_be_coordinate_pairs(self, vertices):
        with pytest.raises(ParseError):
            polygon_from_jsonable({"vertices": vertices})


class TestCertificateFormat:
    def test_round_trip(self, h7_slack):
        fact = nn_factor(h7_slack)
        obj = certificate_to_jsonable(fact)
        text = dumps(obj)
        back = certificate_from_jsonable(json.loads(text))
        assert back.left == fact.left
        assert back.right == fact.right
        assert back.inner_dim == fact.inner_dim
        assert back.bound == fact.bound
        assert list(back.trace) == list(fact.trace)

    def test_missing_bound_rejected(self, h7_slack):
        fact = nn_factor(h7_slack)
        obj = certificate_to_jsonable(fact)
        del obj["bound"]
        with pytest.raises(ParseError):
            certificate_from_jsonable(obj)


class TestFormulationFormat:
    def test_round_trip(self):
        rng = SplitMix64(82)
        poly = random_convex_polygon(rng, 8)
        ef = build_extension(poly)
        obj = formulation_to_jsonable(ef)
        back = formulation_from_jsonable(json.loads(dumps(obj)))
        assert back.k == ef.k
        assert back.T == ef.T
        assert back.C == ef.C
        assert back.beta == ef.beta
        assert back.lifts == ef.lifts

    def test_missing_fields_rejected(self):
        with pytest.raises(ParseError):
            formulation_from_jsonable({"k": 3})
