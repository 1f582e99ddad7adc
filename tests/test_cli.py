"""Command-line surface: the four commands, exit codes, determinism."""

import json
import logging
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactnmf import cli, section, selftest
from exactnmf.cli import run
from exactnmf.polygon import Polygon
from exactnmf.rng import SplitMix64
from exactnmf.errors import ParseError
from exactnmf.serialize import (
    certificate_from_jsonable,
    dumps,
    formulation_from_jsonable,
    load_json,
    matrix_from_jsonable,
    matrix_to_csv,
    matrix_to_jsonable,
    save_text,
)

from conftest import H7_SLACK_ROWS, H7_VERTICES
from test_one_check import corrupt

SRC = str(Path(__file__).resolve().parents[1] / "src")
DATA = Path(__file__).resolve().parent / "data"


def cli_env(**extra):
    """Environment for a CLI subprocess that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


# Well-formed documents that the malformed-field cases below alter.
ONE_BY_ONE = {"entries": [["1"]]}
ONE_BY_ONE_CERT = {"left": ONE_BY_ONE, "right": ONE_BY_ONE, "inner_dim": 1, "bound": 1,
                   "trace": []}
TRIANGLE = [["0", "0"], ["1", "0"], ["0", "1"]]
IDENTITY_3 = {"entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
TRIANGLE_FORMULATION = {"k": 3, "T": IDENTITY_3,
                        "C": {"entries": [["0", "1"], ["-1", "-1"], ["1", "0"]]},
                        "beta": ["0", "-1", "0"],
                        "lifts": {"entries": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]}}


@pytest.fixture()
def h7_matrix_file(tmp_path, h7_slack):
    path = tmp_path / "h7.json"
    save_text(str(path), dumps(matrix_to_jsonable(h7_slack)))
    return str(path)


@pytest.fixture()
def h7_polygon_file(tmp_path):
    path = tmp_path / "h7poly.json"
    save_text(str(path), dumps({"vertices": [[str(x), str(y)] for x, y in H7_VERTICES]}))
    return str(path)


class TestFactorCommand:
    def test_factor_h7(self, tmp_path, h7_matrix_file, capsys):
        out = str(tmp_path / "cert.json")
        code = run(["factor", "--input", h7_matrix_file, "--output", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "inner dimension 6" in printed
        cert = load_json(out)
        assert cert["inner_dim"] == 6 and cert["bound"] == 6

    def test_factor_csv_input(self, tmp_path, h7_slack):
        path = tmp_path / "h7.csv"
        save_text(str(path), matrix_to_csv(h7_slack))
        out = str(tmp_path / "cert.json")
        assert run(["factor", "--input", str(path), "--output", out]) == 0

    def test_explicit_format_overrides_extension(self, tmp_path, h7_slack):
        path = tmp_path / "matrix.txt"  # extension gives no hint
        save_text(str(path), matrix_to_csv(h7_slack))
        out = str(tmp_path / "cert.json")
        assert run(
            ["factor", "--input", str(path), "--output", out, "--format", "csv"]
        ) == 0
        assert run(
            ["verify", "--input", str(path), "--cert", out, "--format", "csv"]
        ) == 0

    def test_factor_rank4_exits_one(self, tmp_path, capsys):
        path = tmp_path / "id4.json"
        save_text(
            str(path),
            dumps({"entries": [["1" if i == j else "0" for j in range(4)] for i in range(4)]}),
        )
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 1
        assert "RankError" in capsys.readouterr().err

    def test_rank_refusal_of_a_large_input_exits_one(self, tmp_path, capsys):
        """A 100x100 input of 50-digit entries: the refusal stops at the
        fourth pivot instead of eliminating the whole input."""
        rng = SplitMix64(100)
        path = tmp_path / "big.json"
        save_text(str(path), dumps({"entries": [[str(rng.below(10**50)) for _ in range(100)]
                                                for _ in range(100)]}))
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: RankError: input has rank at least 4; only ranks 0..3 are supported\n")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ('{"rows": "1", "entries": [["1", "2"]]}', """"rows" must be an integer, got '1'"""),
        ('{"rows": true, "cols": 2.0, "entries": [["1", "2"]]}', '"rows" must be an integer, got True'),
        ('{"cols": 2.0, "entries": [["1", "2"]]}', '"cols" must be an integer, got Fraction(2, 1)'),
    ])
    def test_declared_size_must_be_an_integer(self, tmp_path, capsys, text, named):
        path = tmp_path / "m.json"
        path.write_text(text)
        out = tmp_path / "c.json"
        code = run(["factor", "--input", str(path), "--output", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,document",
        [
            ("factor", {"entries": [1, 2]}),
            ("factor", {"entries": [["1", "2"], ["3"]]}),
            ("factor", {"entries": [["1"], "2"]}),
            ("factor", {"entries": [[]]}),
            ("factor", {"entries": [["1e4300"]]}),
            ("extend", {"vertices": [0, 1]}),
            ("verify", dict(ONE_BY_ONE_CERT, trace=5)),
            ("verify", dict(ONE_BY_ONE_CERT, inner_dim=True)),
            ("verify", dict(ONE_BY_ONE_CERT, bound=True)),
            ("verify", dict(TRIANGLE_FORMULATION, beta=5)),
            ("verify", dict(TRIANGLE_FORMULATION, k=True)),
        ],
        ids=["flat", "ragged", "row-not-a-list", "no-columns", "huge-exponent",
             "vertices-not-pairs", "trace-not-a-list", "inner-dim-bool", "bound-bool",
             "beta-not-a-list", "k-bool"],
    )
    def test_malformed_entries_exit_two_without_traceback(self, tmp_path, command, document):
        """A malformed matrix, polygon, certificate or formulation file is a
        parse error, not a crash.  For ``verify`` the document is the
        certificate, checked against a well-formed input."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        if command == "verify":
            subject = tmp_path / "subject.json"
            subject.write_text(json.dumps(
                ONE_BY_ONE if "left" in document else {"vertices": TRIANGLE}))
            args = ["--input", str(subject), "--cert", str(path)]
        else:
            args = ["--input", str(path), "--output", str(tmp_path / "c.json")]
        result = subprocess.run(
            [sys.executable, "-m", "exactnmf.cli", command, *args],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == 2
        assert "ParseError" in result.stderr
        assert "Traceback" not in result.stderr

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 2
        assert "nests JSON" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        code = run(
            ["factor", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "c.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("name", ["bytes.json", "bytes.csv"])
    def test_undecodable_file_exits_two(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\x80[[1]]")
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_negative_entry_exits_one(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        save_text(str(path), dumps({"entries": [["1", "-2"], ["0", "1"]]}))
        code = run(["factor", "--input", str(path), "--output", str(tmp_path / "c.json")])
        assert code == 1
        assert "NegativeEntryError" in capsys.readouterr().err

    def test_corrupted_core_exits_one_without_certificate(self, tmp_path, h7_matrix_file,
                                                          capsys, monkeypatch):
        """``factor`` relies on ``nn_factor``'s closing check alone: a core
        that returns a wrong factor makes it exit 1 and write nothing."""
        monkeypatch.setattr(section, "_factor_cyclic", corrupt(section, "_factor_cyclic"))
        out = tmp_path / "cert.json"
        code = run(["factor", "--input", h7_matrix_file, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "InternalError" in captured.err and captured.out == ""
        assert not out.exists()

    @staticmethod
    def scaled_h7_file(tmp_path, row):
        """The H7 slack matrix with ``row`` times 10^4299: every input token
        is legal (4,300 digits each)."""
        entries = [[str(x) for x in line] for line in H7_SLACK_ROWS]
        entries[row] = [f"{x}e4299" if x else "0" for x in H7_SLACK_ROWS[row]]
        path = tmp_path / "big.json"
        save_text(str(path), dumps({"entries": entries}))
        return str(path)

    def test_output_too_long_for_the_format_exits_one(self, tmp_path, capsys):
        """With row 0 scaled, the compact certificate still needs a
        4,301-digit left entry: exit 1, named entry, no file."""
        path, out = self.scaled_h7_file(tmp_path, 0), tmp_path / "cert.json"
        code = run(["factor", "--input", path, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "ExactNMFError: left factor entry (0, 1) needs 4301 digits" in captured.err
        assert "digits; a file holds at most 4300" in captured.err
        assert not out.exists()

    def test_output_at_the_format_limit_is_written(self, tmp_path, capsys):
        """With row 6 scaled, every entry of the compact certificate fits in
        4,300 digits: it is written, and ``verify`` passes it."""
        path, out = self.scaled_h7_file(tmp_path, 6), str(tmp_path / "cert.json")
        assert run(["factor", "--input", path, "--output", out]) == 0
        assert run(["verify", "--input", path, "--cert", out]) == 0
        assert capsys.readouterr().out.endswith("verification: all checks passed\n")


class TestExtendCommand:
    def test_extend_h7(self, tmp_path, h7_polygon_file, capsys):
        out = str(tmp_path / "ef.json")
        code = run(["extend", "--input", h7_polygon_file, "--output", out])
        assert code == 0
        assert "7-gon described with 6 inequalities" in capsys.readouterr().out
        ef = load_json(out)
        assert ef["k"] == 6

    def test_extend_checks_once(self, tmp_path, h7_polygon_file, capsys, monkeypatch):
        """``extend`` relies on ``nn_factor``'s closing check: it runs no
        ``verify_extension`` of its own, still reports the checks passed,
        and ``verify`` passes the stored formulation with its full check."""
        def refuse(*args):
            raise AssertionError("extend re-ran verify_extension")

        out = str(tmp_path / "ef.json")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "verify_extension", refuse)
            code = run(["extend", "--input", h7_polygon_file, "--output", out])
        assert code == 0
        assert capsys.readouterr().out.endswith("verification: all checks passed\n")
        assert run(["verify", "--input", h7_polygon_file, "--cert", out]) == 0

    def test_extend_corrupted_core_exits_one_without_formulation(self, tmp_path,
                                                                 h7_polygon_file, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(section, "_factor_cyclic", corrupt(section, "_factor_cyclic"))
        out = tmp_path / "ef.json"
        code = run(["extend", "--input", h7_polygon_file, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "InternalError" in captured.err and captured.out == ""
        assert not out.exists()

    def test_output_too_long_for_the_format_exits_one(self, tmp_path, capsys):
        path, out = tmp_path / "big_poly.json", tmp_path / "ef.json"
        vertices = [[f"{x}e4299" if x else "0", str(y)] for x, y in H7_VERTICES]
        save_text(str(path), dumps({"vertices": vertices}))
        code = run(["extend", "--input", str(path), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "ExactNMFError: T entry (1, 0) needs 4301 digits" in captured.err
        assert not out.exists()

    def test_extend_nonconvex_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad_poly.json"
        save_text(
            str(path),
            dumps({"vertices": [["0", "0"], ["4", "0"], ["1", "1"], ["0", "4"]]}),
        )
        code = run(["extend", "--input", str(path), "--output", str(tmp_path / "ef.json")])
        assert code == 1
        assert "NotConvex" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_good_certificate(self, tmp_path, h7_matrix_file):
        cert = str(tmp_path / "cert.json")
        assert run(["factor", "--input", h7_matrix_file, "--output", cert]) == 0
        assert run(["verify", "--input", h7_matrix_file, "--cert", cert]) == 0

    def test_verify_tampered_certificate(self, tmp_path, h7_matrix_file, capsys):
        cert_path = tmp_path / "cert.json"
        assert run(["factor", "--input", h7_matrix_file, "--output", str(cert_path)]) == 0
        cert = json.loads(cert_path.read_text())
        cert["left"]["entries"][0][2] = "-1"
        cert_path.write_text(json.dumps(cert))
        code = run(["verify", "--input", h7_matrix_file, "--cert", str(cert_path)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "negative entry" in printed

    def test_verify_formulation(self, tmp_path, h7_polygon_file):
        ef = str(tmp_path / "ef.json")
        assert run(["extend", "--input", h7_polygon_file, "--output", ef]) == 0
        assert run(["verify", "--input", h7_polygon_file, "--cert", ef]) == 0

    def test_verify_tampered_formulation(self, tmp_path, h7_polygon_file, capsys):
        ef_path = tmp_path / "ef.json"
        assert run(["extend", "--input", h7_polygon_file, "--output", str(ef_path)]) == 0
        ef = json.loads(ef_path.read_text())
        ef["lifts"]["entries"][0][0] = "-5"
        ef_path.write_text(json.dumps(ef))
        code = run(["verify", "--input", h7_polygon_file, "--cert", str(ef_path)])
        assert code == 1
        assert "negative" in capsys.readouterr().out

    def test_verify_stored_negative_lift(self, capsys):
        code = run(["verify", "--input", str(DATA / "h7_polygon.json"),
                    "--cert", str(DATA / "h7_formulation_negative_lift.json")])
        assert code == 1
        assert capsys.readouterr().out == (
            "verification: right factor has negative entry -4004/3 at (0, 3); "
            "product disagrees with input at (0, 3): 11/5 != 5\n")

    def test_wrong_shape_refused_before_the_slack_matrix(self, tmp_path, capsys,
                                                          monkeypatch):
        """The heptagon's formulation against a valid 1,000-gon: the shape
        test refuses it, and no slack matrix is built."""
        path = tmp_path / "p1000.json"
        vertices = [[str(i), str(i * i)] for i in range(999)] + [["500", str(10**7)]]
        save_text(str(path), dumps({"vertices": vertices}))
        reads = []
        build = Polygon.slack.func
        monkeypatch.setattr(Polygon, "slack", property(lambda poly: reads.append(1) or build(poly)))
        code = run(["verify", "--input", str(path),
                    "--cert", str(DATA / "h7_formulation_pre_compact.json")])
        assert code == 1 and reads == []
        assert capsys.readouterr().out.startswith("verification: shape mismatch: T is (7, 6)")

    def test_product_over_the_digit_limit_exits_one(self, tmp_path, capsys):
        """Each factor token is within the limit, but the product value the
        failure names has 8,000 digits: its count is printed instead."""
        matrix, cert = tmp_path / "one.json", tmp_path / "cert.json"
        save_text(str(matrix), dumps({"entries": [["1"]]}))
        nines = {"entries": [["9" * 4000]]}
        save_text(str(cert), dumps(dict(ONE_BY_ONE_CERT, left=nines, right=nines)))
        assert run(["verify", "--input", str(matrix), "--cert", str(cert)]) == 1
        assert capsys.readouterr().out == (
            "verification: product disagrees with input at (0, 0): "
            "<number of 8000 digits> != 1\n")

    def test_slack_over_the_digit_limit_exits_one(self, tmp_path, capsys):
        """A heptagon with 2,400-digit coordinates has 4,800-digit slack
        values; verifying another heptagon's formulation against it names
        one by its digit count."""
        a, b, c, d = 10**2400 + 7, 3 * 10**2399 + 1, 10**2399 + 11, 2 * 10**2400 + 3
        vertices = [[str(a * x + b * y), str(c * x + d * y)] for x, y in H7_VERTICES]
        path = tmp_path / "big_poly.json"
        save_text(str(path), dumps({"vertices": vertices}))
        code = run(["verify", "--input", str(path),
                    "--cert", str(DATA / "h7_formulation_pre_compact.json")])
        printed = capsys.readouterr().out
        assert code == 1
        assert printed.startswith("verification: product disagrees with input at (0, ")
        assert " digits>" in printed and "inequality 0, (0, 1, 0), is not facet 0" in printed

    def test_zero_matrix_certificate_round_trips(self, tmp_path):
        path = tmp_path / "zero.json"
        save_text(str(path), dumps({"entries": [["0", "0"]] * 3}))
        cert = str(tmp_path / "cert.json")
        assert run(["factor", "--input", str(path), "--output", cert]) == 0
        assert load_json(cert)["right"] == {"rows": 0, "cols": 2, "entries": []}
        assert run(["verify", "--input", str(path), "--cert", cert]) == 0

    def test_unrecognized_certificate_exits_two(self, tmp_path, h7_matrix_file):
        path = tmp_path / "weird.json"
        path.write_text('{"foo": 1}')
        assert run(["verify", "--input", h7_matrix_file, "--cert", str(path)]) == 2


# The readers' shape guards: (reader, document, message, the side of
# ``verify`` the document is, or None where ``verify`` cannot reach it).
READER_GUARDS = [
    (matrix_from_jsonable, {"entries": "12"}, "matrix entries must be a list of rows", "input"),
    (matrix_from_jsonable, {"entries": [["1"], "2"]}, "every matrix row must be a list of entries",
     "input"),
    (certificate_from_jsonable, {"left": ONE_BY_ONE}, 'certificate object needs "left" and "right"',
     None),  # verify reads a document as a certificate only if it has both
    (certificate_from_jsonable, dict(ONE_BY_ONE_CERT, trace="abc"),
     'certificate "trace" must be a list', "cert"),
    (certificate_from_jsonable, dict(ONE_BY_ONE_CERT, bound="1"),
     '"inner_dim" and "bound" must be integers', "cert"),
    (formulation_from_jsonable, dict(TRIANGLE_FORMULATION, k="3"), '"k" must be an integer', "cert"),
    (formulation_from_jsonable, dict(TRIANGLE_FORMULATION, beta="0"),
     'formulation "beta" must be a list', "cert"),
]
GUARD_IDS = ["entries-not-a-list", "row-not-a-list", "no-right", "trace-not-a-list",
             "bound-not-an-int", "k-not-an-int", "beta-not-a-list"]


@pytest.mark.parametrize("reader, document, message, side", READER_GUARDS, ids=GUARD_IDS)
def test_reader_guard_raises_parse_error(reader, document, message, side):
    with pytest.raises(ParseError, match=message):
        reader(document)


@pytest.mark.parametrize("reader, document, message, side",
                         [case for case in READER_GUARDS if case[3]],
                         ids=[i for i, case in zip(GUARD_IDS, READER_GUARDS) if case[3]])
def test_reader_guard_exits_two_through_verify(tmp_path, capsys, reader, document, message, side):
    """The same guards reached in-process through ``exactnmf verify``: exit
    2 and the guard's message, with no traceback."""
    if side == "input":
        subject, cert = document, ONE_BY_ONE_CERT
    else:
        subject, cert = (ONE_BY_ONE if "left" in document else {"vertices": TRIANGLE}), document
    paths = []
    for name, obj in (("input.json", subject), ("cert.json", cert)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(obj))
    assert run(["verify", "--input", str(paths[0]), "--cert", str(paths[1])]) == 2
    err = capsys.readouterr().err
    assert f"ParseError: {message}" in err
    assert "Traceback" not in err


class TestSelftestCommand:
    def test_selftest_small(self, capsys):
        assert run(["selftest", "--iterations", "5", "--seed", "7"]) == 0
        printed = capsys.readouterr().out
        assert "checks passed" in printed

    def test_selftest_deterministic_output(self, capsys):
        run(["selftest", "--iterations", "10", "--seed", "1"])
        first = capsys.readouterr().out
        run(["selftest", "--iterations", "10", "--seed", "1"])
        second = capsys.readouterr().out
        assert first == second

    def test_selftest_seed_changes_instances_not_outcome(self, capsys):
        assert run(["selftest", "--iterations", "4", "--seed", "123"]) == 0
        capsys.readouterr()

    def test_failed_and_raising_checks_are_reported(self, capsys, monkeypatch):
        """A check that fails an assertion prints FAIL and one that raises
        prints ERROR, each with its message; the run exits 1 and prints the
        same lines every time."""
        def fails(rng, iterations):
            raise AssertionError(f"case {rng.below(1000)} of {iterations} disagrees")

        def raises(rng, iterations):
            raise ValueError(f"no case below {rng.below(1000)}")

        monkeypatch.setattr(selftest, "CHECKS", [("fails", fails), ("raises", raises)])
        outputs = []
        for _ in range(2):
            assert run(["selftest", "--iterations", "3", "--seed", "5"]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        fail, error, summary = outputs[0].splitlines()
        assert fail.startswith("fails: FAIL (case ") and fail.endswith(" of 3 disagrees)")
        assert error.startswith("raises: ERROR (ValueError: no case below ")
        assert summary == "selftest: 0/2 checks passed (seed=5, iterations=3)"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, h7_slack):
        path = tmp_path / "m.json"
        save_text(str(path), dumps(matrix_to_jsonable(h7_slack)))
        out = tmp_path / "cert.json"
        result = subprocess.run(
            [sys.executable, "-m", "exactnmf.cli",
             "factor", "--input", str(path), "--output", str(out)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()

    @pytest.mark.parametrize("level", ["info", "debug"])
    def test_log_env_goes_to_stderr(self, tmp_path, h7_slack, level):
        path = tmp_path / "m.json"
        save_text(str(path), dumps(matrix_to_jsonable(h7_slack)))
        out = tmp_path / "cert.json"
        env = cli_env(NNF_LOG=level)
        result = subprocess.run(
            [sys.executable, "-m", "exactnmf.cli",
             "factor", "--input", str(path), "--output", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "inner dimension" in result.stdout
        assert "chunk" in result.stderr  # progress logging lands on stderr

    def test_unknown_log_level_warns_and_logs_nothing(self, tmp_path, h7_slack):
        path = tmp_path / "m.json"
        save_text(str(path), dumps(matrix_to_jsonable(h7_slack)))
        result = subprocess.run(
            [sys.executable, "-m", "exactnmf.cli",
             "factor", "--input", str(path), "--output", str(tmp_path / "cert.json")],
            capture_output=True,
            text=True,
            env=cli_env(NNF_LOG="Loud"),
        )
        assert result.returncode == 0
        assert "inner dimension" in result.stdout
        assert result.stderr == "warning: unknown NNF_LOG level 'loud'; using off\n"

    def test_unknown_log_level_in_process(self, tmp_path, h7_slack, monkeypatch, capsys):
        """The same through ``run``: logging is configured at the level
        that shows nothing."""
        levels = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
        monkeypatch.setenv("NNF_LOG", "loud")
        path = tmp_path / "m.json"
        save_text(str(path), dumps(matrix_to_jsonable(h7_slack)))
        assert run(["factor", "--input", str(path), "--output", str(tmp_path / "cert.json")]) == 0
        assert capsys.readouterr().err == "warning: unknown NNF_LOG level 'loud'; using off\n"
        assert levels == [logging.CRITICAL + 10]

    @pytest.mark.parametrize("module", ["exactnmf", "exactnmf.cli"])
    def test_main_module_in_process(self, module, monkeypatch, capsys):
        """``python -m exactnmf`` and ``python -m exactnmf.cli`` run as
        ``__main__`` in this process: exit 0 and the subprocess's stdout."""
        argv = ["selftest", "--iterations", "1", "--seed", "1"]
        expected = subprocess.run([sys.executable, "-m", module, *argv],
                                  capture_output=True, text=True, env=cli_env())
        assert expected.returncode == 0, expected.stderr
        assert expected.stdout.endswith("selftest: 3/3 checks passed (seed=1, iterations=1)\n")
        monkeypatch.delenv("NNF_LOG", raising=False)
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with warnings.catch_warnings():
            # runpy warns that exactnmf.cli is imported already; it runs afresh.
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exited:
                runpy.run_module(module, run_name="__main__")
        assert exited.value.code == 0
        assert capsys.readouterr().out == expected.stdout


# -- fuzz: malformed documents through the whole command line ---------------

# Numeric tokens next to the edges of the readers: signs, zero
# denominators, exponents at and past MAX_DIGITS, non-decimal spellings.
TOKENS = ["0", "1", "-1", "1/2", "3/0", "1/-2", "-0", "2.5", "1e-5", "1e4300",
          "1e999999", "nan", "Infinity", "0x10", "1_000", " 2", "", "abc", "\u00bd"]
scalars = (st.sampled_from(TOKENS) | st.text(max_size=4)
           | st.integers(-(10**6), 10**6) | st.booleans() | st.none()
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["entries", "rows", "cols", "vertices", "k", "x"]),
                      inner, max_size=3),
    max_leaves=12,
)


def rows_of(item):
    return st.lists(st.lists(item, min_size=1, max_size=4), min_size=1, max_size=4)


near_tokens = st.sampled_from(TOKENS[:8])
matrices = (st.fixed_dictionaries({"entries": rows_of(near_tokens)})
            | st.fixed_dictionaries({"rows": json_values, "cols": json_values,
                                     "entries": json_values}))
polygons = st.fixed_dictionaries({"vertices": rows_of(near_tokens)})
certificates = st.fixed_dictionaries({
    "left": matrices | st.just(ONE_BY_ONE), "right": matrices | st.just(ONE_BY_ONE),
    "inner_dim": json_values, "bound": json_values, "trace": json_values,
})
formulations = st.fixed_dictionaries({
    "k": json_values, "T": matrices, "C": matrices, "beta": json_values, "lifts": matrices,
})
json_documents = st.one_of(
    json_values.map(json.dumps),
    st.one_of(matrices, polygons, certificates, formulations).map(json.dumps),
    st.just("[" * 3000 + "]" * 3000),  # deeper than the default recursion limit
    st.text(max_size=40),
)
csv_documents = st.lists(
    st.lists(st.sampled_from(TOKENS) | st.text(max_size=3), max_size=4).map(",".join),
    max_size=4,
).map("\n".join)
documents = st.one_of(
    st.tuples(st.just(".json"), json_documents),
    st.tuples(st.just(".csv"), csv_documents),
    st.tuples(st.sampled_from([".json", ".csv"]), st.binary(max_size=40)),
)


@settings(max_examples=200)
@given(
    st.sampled_from(["factor", "extend", "verify"]),
    documents,
    documents | st.just((".json", json.dumps(ONE_BY_ONE_CERT))),
    st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]),
)
def test_fuzzed_documents_exit_0_1_or_2(command, first, second, fmt):
    """``exactnmf`` on malformed JSON and CSV, in process through
    ``cli.main``: it always exits with 0, 1 or 2 and raises nothing else.
    ``verify`` reads the first document as its input and the second as
    its certificate."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for n, (suffix, text) in enumerate([first, second]):
            path = Path(tmp) / f"doc{n}{suffix}"
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        if command == "verify":
            args = ["--input", paths[0], "--cert", paths[1]]
        else:
            args = ["--input", paths[0], "--output", str(Path(tmp) / "out.json")]
        if command != "extend":
            args += fmt
        with mock.patch.object(sys, "argv", ["exactnmf", command, *args]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main()
    assert exit_info.value.code in (0, 1, 2)
