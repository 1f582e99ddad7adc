"""One exact check per boundary.

``nn_factor`` reaches only the trusting cores of the section, cyclic and
canonical layers and verifies the assembled certificate once; the public
functions keep their own checks for direct callers.  These tests count
the checks on the heptagon path, corrupt one core to see the closing
check name the chunk, and check that each public wrapper still rejects
bad direct input with its old error class.
"""

import sys
from fractions import Fraction

import pytest

from exactnmf import canonical, cyclic, linalg, section, validation
from exactnmf.canonical import (
    CanonicalParams,
    MonomialMatrix,
    canonical_matrix,
    direct_factor,
    factor_canonical,
    step,
)
from exactnmf.cyclic import detect_cyclic_labeling, factor_cyclic, scale_to_canonical
from exactnmf.driver import nn_factor, verify_factorization
from exactnmf.errors import (
    InternalError,
    NotAdmissible,
    PatternError,
    RankError,
)
from exactnmf.generate import random_convex_polygon
from exactnmf.linalg import Matrix
from exactnmf.polygon import slack_matrix
from exactnmf.rng import SplitMix64
from exactnmf.section import factor_low_rank, factor_seven_by_n, section_polygon

from conftest import primitive_columns
import test_canonical
from test_canonical import starved
from test_driver_properties import splitmix_corpus
from test_section import _factor_seven_by_n as chart_factor_seven_by_n

NOT_ADMISSIBLE = CanonicalParams(*(Fraction(0),) * 6)


def heptagons(seed=1, count=105):
    """Slack matrices of the first ``count`` heptagons of SplitMix64(seed),
    copied so that no rank is memoized on them yet."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        s = slack_matrix(random_convex_polygon(rng, 7)).matrix
        out.append(Matrix._raw(s.data, s.rows, s.cols))
    return out


def count_calls(monkeypatch, name):
    """Wrap the function ``name`` of ``linalg`` or ``canonical`` at every
    exactnmf module that binds it (``cyclic`` reads the canonical cores as
    module attributes); returns the list its calls append to."""
    calls = []
    real = getattr(linalg, name, None) or getattr(canonical, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("exactnmf") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_heptagon_call_counts(monkeypatch):
    """Per heptagon: one product check (the closing one's sparse row sum),
    one elimination, one integer admissibility test per tuple the search
    meets (the start and each stepped tuple), and determinants built only
    there: the factored tuple's come from its test, never a second time."""
    matrices = heptagons()
    counts = {name: count_calls(monkeypatch, name)
              for name in ("product_difference", "_eliminate", "_admissible", "_dets")}
    traces = [nn_factor(m).trace for m in matrices]
    records = [record for trace in traces for record in trace]
    assert {record["method"] for record in records} == {"section+cyclic"}
    steps = [r["search_steps"] + (6 if r["mirrored"] else 0) for r in records]
    n = len(matrices)
    assert len(counts["product_difference"]) == n
    assert len(counts["_eliminate"]) == n
    assert len(counts["_admissible"]) == n + sum(steps)
    assert counts["_dets"] == counts["_admissible"]
    tested = [rows for (rows,) in counts["_admissible"]]
    assert len(set(tested)) == len(tested)  # no tuple tested twice


def test_heptagon_path_builds_no_fraction_tuple(monkeypatch):
    """``nn_factor`` runs the cyclic core on integer tuples alone: with the
    Fraction-side monomial products, canonical matrix and admissibility
    made to raise, it still factors the 105 seed-1 heptagons."""
    def refuse(*args, **kwargs):
        raise AssertionError("nn_factor left the integer cyclic core")

    for name in ("apply_left", "apply_right"):
        monkeypatch.setattr(MonomialMatrix, name, refuse)
    for name in ("canonical_matrix", "is_admissible"):
        real = getattr(canonical, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("exactnmf") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, refuse)
    for m in heptagons():
        fact = nn_factor(m)
        assert fact.inner_dim == 6 and verify_factorization(m, fact).ok


def test_nonnegativity_scanned_once_per_matrix(monkeypatch):
    """The input's signs are read in the one pass that finds its zero lines,
    and each factor's by the closing check's product kernel, as it reads
    the nonzeros: ``nn_factor`` calls neither ``first_negative_entry`` nor
    ``check_nonnegative``."""
    scans = []
    real_scan = Matrix.first_negative_entry
    monkeypatch.setattr(Matrix, "first_negative_entry",
                        lambda self, start=0: scans.append(self.shape) or real_scan(self, start))
    real_check = validation.check_nonnegative
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("exactnmf") and getattr(module, "check_nonnegative", None) is real_check:
            monkeypatch.setattr(module, "check_nonnegative",
                                lambda m, *args: scans.append(m.shape) or real_check(m, *args))
    for a in splitmix_corpus():
        nn_factor(a)
    assert scans == []


def bumped(m):
    """``m`` with its (0, 0) entry raised by one: a Matrix, or a table of
    (num, den) pairs."""
    if not isinstance(m, Matrix):
        (n, d), *rest = m[0]
        return (((n + d, d), *rest), *m[1:])
    rows = [list(row) for row in m.data]
    rows[0][0] += 1
    return Matrix(rows)


def corrupt(module, core):
    """The core ``module.core`` made to return a left factor with one
    entry changed; ``_direct_factor`` returns that table, other cores a
    tuple that starts with it."""
    real = getattr(module, core)

    def bad(*args):
        out = real(*args)
        return bumped(out) if core == "_direct_factor" else (bumped(out[0]), *out[1:])

    return bad


@pytest.mark.parametrize("module, core", [(section, "_factor_cyclic"), (canonical, "_direct_factor")])
def test_closing_check_names_the_corrupted_chunk(monkeypatch, h7_slack, module, core):
    monkeypatch.setattr(module, core, corrupt(module, core))
    with pytest.raises(InternalError, match=r"chunk rows \[0, 7\] \(section\+cyclic\)"):
        nn_factor(h7_slack)


@pytest.mark.parametrize("module, core, call", [
    (canonical, "_direct_factor", lambda s, p, v: direct_factor(p)),
    (canonical, "_direct_factor", lambda s, p, v: factor_canonical(p)),
    (canonical, "_direct_factor", lambda s, p, v: factor_cyclic(v)),
    (cyclic, "_factor_cyclic", lambda s, p, v: factor_cyclic(v)),
    (section, "_factor_cyclic", lambda s, p, v: factor_seven_by_n(s)),
])
def test_public_wrappers_check_their_cores(monkeypatch, h7_slack, h7_params, module, core, call):
    monkeypatch.setattr(module, core, corrupt(module, core))
    with pytest.raises(InternalError):
        call(h7_slack, h7_params, canonical_matrix(h7_params))


def test_public_wrappers_reject_bad_direct_input(h7_slack, h7_params):
    for fn in (direct_factor, factor_canonical, step):
        with pytest.raises(NotAdmissible):
            fn(NOT_ADMISSIBLE)
    off_pattern = Matrix.identity(7)
    for fn in (factor_cyclic, scale_to_canonical):
        with pytest.raises(PatternError):
            fn(off_pattern)
    # the canonical pattern with one entry raised: rank 4 and more
    rows = canonical_matrix(h7_params).tolist()
    rows[0][2] += 1
    for fn in (factor_cyclic, scale_to_canonical):
        with pytest.raises(RankError):
            fn(Matrix(rows))
    rank_two = Matrix([[1, 2, 3], [2, 4, 7], [1, 2, 4], [3, 6, 10], [0, 0, 1], [1, 2, 3],
                       [5, 10, 15]])
    with pytest.raises(RankError):
        factor_seven_by_n(rank_two)
    with pytest.raises(RankError):
        factor_low_rank(h7_slack)


def test_section_labeling_is_the_detected_one():
    """The labeling the section core reads off its tight sets is the one
    ``detect_cyclic_labeling`` finds on the vertex matrix."""
    seen = []
    real = section._factor_cyclic

    def spy(columns, labeling):
        seen.append(labeling)
        return real(columns, labeling)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(section, "_factor_cyclic", spy)
        for m in heptagons(seed=7919, count=40):
            del seen[:]
            nn_factor(m)
            (labeling,) = seen
            assert labeling == detect_cyclic_labeling(section_polygon(m).vertex_matrix)


def test_several_cyclic_chunks_in_one_matrix():
    """Slack matrices of 14- and 21-gons whose trace shows two or more
    ``section+cyclic`` chunks: the certificate verifies, and each such
    chunk's record is the one the checked ``factor_seven_by_n`` gives."""
    kept = 0
    for n, seed in ((14, 14), (14, 15), (21, 21), (21, 22)):
        s = slack_matrix(random_convex_polygon(SplitMix64(seed), n)).matrix
        fact = nn_factor(s)
        cyclic_chunks = [r for r in fact.trace if r["method"] == "section+cyclic"]
        if len(cyclic_chunks) < 2:
            continue
        kept += 1
        assert verify_factorization(s, fact).ok
        assert fact.inner_dim <= fact.bound
        for record in cyclic_chunks:
            start, stop = record["rows"]
            chunk = Matrix(s.data[start:stop])
            _, _, info = factor_seven_by_n(chunk)
            assert dict(info, rows=record["rows"]) == record
    assert kept >= 2


def test_nn_factor_builds_no_section_polygon(monkeypatch):
    """The heptagon path runs on the integer vertex rays alone: with the
    chart's classes and public views made to raise, ``nn_factor`` still
    factors the 105 seed-1 heptagons."""
    def refuse(*args, **kwargs):
        raise AssertionError("nn_factor built a section chart")

    for name in ("SectionPolygon", "SectionVertex", "section_polygon", "convex_coefficients"):
        monkeypatch.setattr(section, name, refuse)
    for m in heptagons():
        fact = nn_factor(m)
        assert fact.inner_dim == 6 and verify_factorization(m, fact).ok


def test_forced_mirror_through_nn_factor(monkeypatch):
    """No heptagon of the benchmark's seeds reaches the mirror search, so
    force it: with the first seven middle-min tests of each search failed,
    ``nn_factor``'s certificate is the chart code's on the Fraction
    cyclic core, forced the same way, with primitive left columns."""
    for m in heptagons(count=20):
        with monkeypatch.context() as patch:
            patch.setattr(canonical, "_middle_min", starved(canonical._middle_min))
            fact = nn_factor(m)
        with monkeypatch.context() as patch:
            patch.setattr(test_canonical, "fraction_middle_min",
                          starved(test_canonical.fraction_middle_min))
            left, right, info = chart_factor_seven_by_n(m)
        assert info["mirrored"] and fact.trace[-1]["mirrored"]
        assert (fact.left, fact.right) == primitive_columns(left, right)
