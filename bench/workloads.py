"""The four workloads: how each builds its inputs, what one timed instance
does, and how each output is checked.

Every workload exposes the same three functions:

``prepare(lib, seed, count)``
    Set-up: build ``count`` inputs (verify-stored: a corpus of whole units
    of about that size) from a splitmix64 stream.  Its cost is part of ``setup_s``.
``run(lib, item, span)``
    One timed instance: the user-visible call path.  ``span(name)`` is a
    context manager around the benchmark's own calls into ``serialize``;
    it does nothing in the untimed run.
``check(lib, item, out)``
    The correctness gate, run outside the timing.  It raises
    :class:`CheckFailed` on a bad output and returns ``(text, bits)``:
    the serialised certificate or formulation and the largest bit length
    of any numerator or denominator in the output factors.
``key(out)``
    The exact values of an output that the gate depends on.  A later
    timing of the same input whose key equals that of an output that
    passed ``check`` has passed it too.

Library functions are always looked up on the module at call time, so a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import json
from fractions import Fraction


class CheckFailed(Exception):
    """An output failed the benchmark's correctness gate."""


def ceil_six_sevenths(size: int) -> int:
    """ceil(6 * size / 7), computed here independently of the library."""
    return (6 * size + 6) // 7


def entry_bits(*matrices) -> int:
    """Largest bit length of any numerator or denominator."""
    best = 0
    for m in matrices:
        for row in m.data:
            for x in row:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def load_exact(text: str):
    """Parse JSON text the way ``exactnmf verify`` reads files: decimals
    become exact rationals."""
    return json.loads(text, parse_float=Fraction)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_certificate(lib, matrix, fact):
    """Shared gate for a factorization certificate of ``matrix``."""
    ser = lib.serialize
    report = lib.driver.verify_factorization(matrix, fact)
    _require(report.ok, f"verify_factorization: {report}")
    bound = ceil_six_sevenths(min(matrix.rows, matrix.cols))
    _require(
        fact.inner_dim == fact.left.cols <= bound,
        f"inner dimension {fact.inner_dim} (left has {fact.left.cols} columns) "
        f"exceeds ceil(6*min(m,n)/7) = {bound}",
    )
    text = ser.dumps(ser.certificate_to_jsonable(fact))
    back = ser.certificate_from_jsonable(load_exact(text))
    _require(
        back.left == fact.left and back.right == fact.right
        and back.inner_dim == fact.inner_dim and back.bound == fact.bound,
        "certificate JSON does not parse back to equal factors",
    )
    return text, entry_bits(fact.left, fact.right)


def _check_formulation(lib, poly, ef, text, report):
    """Shared gate for a lifted description of ``poly`` serialised as
    ``text``; ``report`` is the verification the timed path already ran."""
    _require(report.ok, f"verify_extension: {report}")
    bound = ceil_six_sevenths(poly.n)
    _require(ef.k <= bound, f"k = {ef.k} exceeds ceil(6n/7) = {bound}")
    back = lib.serialize.formulation_from_jsonable(load_exact(text))
    _require(
        (back.k, back.T, back.C, back.beta, back.lifts)
        == (ef.k, ef.T, ef.C, ef.beta, ef.lifts),
        "formulation JSON does not parse back to equal factors",
    )
    return text, entry_bits(ef.T, ef.lifts)


class Workload:
    """``rate`` is the workload's timings per second of ``--seconds``: a
    timed run makes ceil(seconds * rate) of them, about ``--seconds``
    seconds of work on the reference host.  ``passes`` is how often each
    input is timed in a run; an instance's time is the fastest of them.
    ``setups`` is how often a timed run sets up; ``setup_s`` is the median.
    ``serializes`` says whether the timed path writes or reads certificate
    JSON."""

    rate = 0.0
    passes = 8
    setups = 7
    serializes = False


# -- heptagon ---------------------------------------------------------------


class Heptagon(Workload):
    """``nn_factor`` on slack matrices of random heptagons (criterion 1)."""

    rate = 21
    # instance times vary with the heptagon; more inputs steady the median
    # over seeds, and a run still makes 9-12 passes on the reference host
    passes = 6

    @staticmethod
    def prepare(lib, seed, count):
        rng = lib.rng.SplitMix64(seed)
        return [
            lib.polygon.slack_matrix(lib.generate.random_convex_polygon(rng, 7)).matrix
            for _ in range(count)
        ]

    @staticmethod
    def run(lib, item, span):
        return lib.nn_factor(item)

    @staticmethod
    def check(lib, item, out):
        _require(out.inner_dim == 6, f"heptagon factored with inner dimension {out.inner_dim}")
        return _check_certificate(lib, item, out)

    @staticmethod
    def key(out):
        return (out.inner_dim, out.bound, out.left, out.right)


# -- polygon-sweep ----------------------------------------------------------

SWEEP_LOW, SWEEP_HIGH = 7, 50
_SWEEP_SPAN = SWEEP_HIGH - SWEEP_LOW + 1  # 44
_SWEEP_STRIDE = 17  # coprime to 44: every window of three covers low, middle and high n


def sweep_size(index: int) -> int:
    """Vertex count of the index-th sweep polygon.  The order is fixed and
    independent of the seed, so any prefix spreads evenly over 7..50 and
    runs of different length see the same mix of sizes."""
    return SWEEP_LOW + (index * _SWEEP_STRIDE) % _SWEEP_SPAN


class PolygonSweep(Workload):
    """The ``exactnmf extend`` path on random n-gons, n = 7..50."""

    rate = 1.25
    # instances take 0.05-2.6 s each; fewer passes leave room for more sizes
    passes = 5
    serializes = True

    @staticmethod
    def prepare(lib, seed, count):
        rng = lib.rng.SplitMix64(seed)
        return [
            lib.generate.random_convex_polygon(rng, sweep_size(i)).vertices
            for i in range(count)
        ]

    @staticmethod
    def run(lib, item, span):
        poly = lib.polygon.polygon_from_points(item)
        ef = lib.polygon.build_extension(poly)
        with span("serialize.dump"):
            text = lib.serialize.dumps(lib.serialize.formulation_to_jsonable(ef))
        report = lib.polygon.verify_extension(poly, ef)
        return poly, ef, text, report

    @staticmethod
    def check(lib, item, out):
        poly, ef, text, report = out
        _require(poly.vertices == tuple(item), "polygon vertices changed on construction")
        return _check_formulation(lib, poly, ef, text, report)

    @staticmethod
    def key(out):
        poly, ef, text, report = out
        return (report.ok, poly.vertices, text, ef.k, ef.T, ef.C, ef.beta, ef.lifts)


# -- mixed-fit --------------------------------------------------------------

MIXED_LOW, MIXED_HIGH = 2, 40


# 2**64 / p and 2**64 / p**2 for the plastic number p (x**3 = x + 1): the
# steps of the R2 low-discrepancy sequence in 64-bit fixed point
_R2_STEP = (0xC13FA9A902A6328F, 0x91E10DA5C79E7B1C)
_HALF, _MASK = 1 << 63, (1 << 64) - 1


def mixed_shape(index: int):
    """(inner rank, rows, cols) of the index-th mixed-fit matrix.  The
    schedule is fixed and independent of the seed: ranks cycle 1, 2, 3 and
    (rows, cols) follow the R2 sequence over 2..40 x 2..40, so any prefix
    covers tall, wide and square shapes evenly.  The sequence does not
    repeat, so instance times spread without gaps between a few recurring
    shapes, and no quantile sits in such a gap."""
    span = MIXED_HIGH - MIXED_LOW + 1  # 39
    rows, cols = (MIXED_LOW + (((_HALF + index * step) & _MASK) * span >> 64)
                  for step in _R2_STEP)
    return 1 + index % 3, rows, cols


def sparse_factor_product(rng, rank: int, rows: int, cols: int):
    """W @ H for nonnegative W (rows x rank) and H (rank x cols) as nested
    lists of Fractions.  Entries are k/d with k in 1..8 and d in 1..4.

    Of the n rows of W, round(n * (2/3)**rank) are zero, and as many of the
    columns of H: the number of zero lines that entries nonzero with
    probability 1/3 give on average.  The count is fixed, and only where
    the zero lines lie depends on the seed, so the size left after they
    are stripped, which sets an instance's cost, does not.  The other
    entries are nonzero with probability 1/3.  Every other row of W and
    column of H, and every column of W and row of H, has a nonzero entry,
    so the product is never the zero matrix."""
    zero_in = 3 ** rank

    def factor(length):
        # rank lines of numerators over the common denominator 12
        zeros = min(length - 1, (length * 2 ** rank + zero_in // 2) // zero_in)
        dead = set()
        while len(dead) < zeros:
            dead.add(rng.below(length))
        live = [j for j in range(length) if j not in dead]
        lines = [[0 if j in dead or rng.below(3) else (1 + rng.below(8)) * 12 // (1 + rng.below(4))
                  for j in range(length)] for _ in range(rank)]
        for line in lines:
            if not any(line):
                line[live[rng.below(len(live))]] = 12
        for j in live:
            if not any(line[j] for line in lines):
                lines[rng.below(rank)][j] = 12
        return lines

    w_cols = factor(rows)
    h_rows = factor(cols)
    return [
        [Fraction(sum(w[i] * h[j] for w, h in zip(w_cols, h_rows)), 144) for j in range(cols)]
        for i in range(rows)
    ]


class MixedFit(Workload):
    """``ExactNMF().fit_transform`` on sparse nonnegative products W @ H."""

    rate = 50

    @staticmethod
    def prepare(lib, seed, count):
        rng = lib.rng.SplitMix64(seed)
        return [sparse_factor_product(rng, *mixed_shape(i)) for i in range(count)]

    @staticmethod
    def run(lib, item, span):
        est = lib.ExactNMF()
        w = est.fit_transform(item)
        return est, w

    @staticmethod
    def check(lib, item, out):
        est, w = out
        fact = est.factorization_
        _require(
            w is fact.left and est.components_ is fact.right,
            "fit_transform output differs from the stored factorization",
        )
        matrix = lib.Matrix(item)
        _require(est.matrix_ == matrix, "estimator stored a different matrix")
        return _check_certificate(lib, matrix, fact)

    @staticmethod
    def key(out):
        est, w = out
        fact = est.factorization_
        return (w is fact.left, est.components_ is fact.right, est.matrix_,
                fact.inner_dim, fact.bound, fact.left, fact.right)


# -- verify-stored ----------------------------------------------------------

# The stored corpus is what the three write-side workloads produce in the
# same time: their own input schedules, in the proportion of their rates.
# Each unit holds one polygon-sweep formulation and the heptagon and
# mixed-fit certificates made while one formulation is made.
UNIT_HEPTAGONS = round(Heptagon.rate / PolygonSweep.rate)  # 17
UNIT_MIXED = round(MixedFit.rate / PolygonSweep.rate)  # 40
UNIT_SIZE = 1 + UNIT_HEPTAGONS + UNIT_MIXED


def _stored_certificate(lib, matrix):
    ser = lib.serialize
    fact = lib.nn_factor(matrix)
    return ("matrix", ser.dumps(ser.matrix_to_jsonable(matrix)),
            ser.dumps(ser.certificate_to_jsonable(fact)), (matrix, fact))


class VerifyStored(Workload):
    """The ``exactnmf verify`` path on certificate and formulation JSON
    produced at set-up.  The corpus has whole units of about ``count``
    entries; a run cycles through it in passes."""

    rate = 100
    setups = 3
    # the corpus takes about three times as long to build as to verify, and
    # is built three times a run; 16 passes keep it at 4 units at 30 s
    passes = 16
    serializes = True

    @staticmethod
    def prepare(lib, seed, count):
        rng = lib.rng.SplitMix64(seed)
        ser = lib.serialize
        units = -(-count // UNIT_SIZE)
        corpus = []
        for i in range(units):
            poly = lib.generate.random_convex_polygon(rng, sweep_size(i))
            ef = lib.polygon.build_extension(poly)
            corpus.append(("polygon", ser.dumps(ser.polygon_to_jsonable(poly)),
                           ser.dumps(ser.formulation_to_jsonable(ef)), (poly, ef)))
        for _ in range(units * UNIT_HEPTAGONS):
            poly = lib.generate.random_convex_polygon(rng, 7)
            corpus.append(_stored_certificate(lib, lib.polygon.slack_matrix(poly).matrix))
        for i in range(units * UNIT_MIXED):
            corpus.append(_stored_certificate(
                lib, lib.Matrix(sparse_factor_product(rng, *mixed_shape(i)))))
        return corpus

    @staticmethod
    def run(lib, item, span):
        kind, input_text, cert_text, _ = item
        ser = lib.serialize
        with span("serialize.parse"):
            if kind == "matrix":
                subject = ser.matrix_from_jsonable(load_exact(input_text))
                cert = ser.certificate_from_jsonable(load_exact(cert_text))
            else:
                subject = ser.polygon_from_jsonable(load_exact(input_text))
                cert = ser.formulation_from_jsonable(load_exact(cert_text))
        if kind == "matrix":
            report = lib.driver.verify_factorization(subject, cert)
        else:
            report = lib.polygon.verify_extension(subject, cert)
        return subject, cert, report

    @staticmethod
    def check(lib, item, out):
        kind, _, cert_text, (orig_subject, orig_cert) = item
        subject, cert, report = out
        _require(report.ok, f"stored {kind} certificate failed verification: {report}")
        if kind == "matrix":
            _require(subject == orig_subject, "stored matrix parsed to a different matrix")
            _require(
                (cert.left, cert.right, cert.inner_dim, cert.bound)
                == (orig_cert.left, orig_cert.right, orig_cert.inner_dim, orig_cert.bound),
                "stored certificate parsed to different factors",
            )
            bound = ceil_six_sevenths(min(subject.rows, subject.cols))
            _require(cert.inner_dim <= bound, f"inner dimension {cert.inner_dim} exceeds {bound}")
            return cert_text, entry_bits(cert.left, cert.right)
        _require(subject.vertices == orig_subject.vertices, "stored polygon parsed differently")
        _require(
            (cert.k, cert.T, cert.C, cert.beta, cert.lifts)
            == (orig_cert.k, orig_cert.T, orig_cert.C, orig_cert.beta, orig_cert.lifts),
            "stored formulation parsed to different factors",
        )
        bound = ceil_six_sevenths(subject.n)
        _require(cert.k <= bound, f"k = {cert.k} exceeds ceil(6n/7) = {bound}")
        return cert_text, entry_bits(cert.T, cert.lifts)

    @staticmethod
    def key(out):
        subject, cert, report = out
        return (report.ok, subject, cert)


WORKLOADS = {
    "heptagon": Heptagon,
    "polygon-sweep": PolygonSweep,
    "mixed-fit": MixedFit,
    "verify-stored": VerifyStored,
}
