"""Outside-in layer trace: spans recorded around the public calls of each layer.

The wrappers are installed on the attribute each caller actually looks up
(``harness.build_quadrature`` because harness imports it by name, module
globals for calls made through a module, class attributes for methods) and
are removed again when the ``installed`` context ends, so untraced runs
execute the original code.  Spans are kept in memory as
``[name, start, end, parent]``; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from collections import Counter
from time import perf_counter

from bergreen import bergman, green, harness, pdegreen, weights

#: Name of the root span that wraps one whole iteration.
ROOT = "harness"


class Tracer:
    """In-memory span and count recorder for one iteration at a time."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as a span.  ``name`` is a string or a function of
        the call's arguments; ``count(counts, args, result)`` adds work counts."""
        spans, open_spans, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            span = [label, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def span_stats(self) -> dict:
        """name -> {"calls", "s", "self_s"} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += t1 - t0
            st["self_s"] += t1 - t0 - child[i]
        return stats

    def layer_metrics(self) -> dict:
        """The iteration's per-layer metrics: ``<span>.s``, ``<span>.self_s``
        and ``<span>.calls`` of every span name recorded, and every work
        count.  A metric that is missing reads 0."""
        out = {f"{name}.{kind}": value
               for name, st in self.span_stats().items() for kind, value in st.items()}
        out.update(self.counts)
        return out


def is_time(name: str) -> bool:
    """Whether a per-layer metric is a time in seconds rather than a count."""
    return name.endswith((".s", "self_s", "overhead_s"))


def _count_quadrature(counts, args, rule):
    counts["geometry.quad_nodes"] += len(rule.nodes)


def _count_gram(counts, args, G):
    basis, _, rule = args
    counts["bergman.gram_work"] += basis.size * (basis.size + 1) // 2 * len(rule.nodes)


def _count_trim(counts, args, kernel):
    meta = kernel.metadata()
    counts["bergman.trim_steps"] += meta["requested_order"] - meta["effective_order"]


def _count_operator(counts, args, op):
    counts["pdegreen.unknowns"] += op.size
    counts["pdegreen.nnz"] += op.matrix.nnz


def _count_write(counts, args, report_path):
    report = args[0]
    counts["harness.csv_rows"] += sum(len(rows) for _, rows in report.csv_files.values())
    names = ["report.json", *report.csv_files]
    counts["harness.output_bytes"] += sum((report_path.parent / n).stat().st_size for n in names)


_PAIR_COLUMNS = ("re_z", "im_z", "re_w", "im_w")


def count_pairs(counts, args, reports):
    """Pairs evaluated (rows of pair CSVs) and pairs skipped or excluded (notes)."""
    for report in reports:
        for header, rows in report.csv_files.values():
            if tuple(header[:4]) == _PAIR_COLUMNS:
                counts["harness.pairs_evaluated"] += len(rows)
        counts["harness.pairs_skipped"] += sum(
            1 for note in report.notes if "skipped" in note or "excluded" in note)


def _solve_namer():
    # The first solve on an operator pays its LU factorization.
    factored = weakref.WeakSet()

    def name(op, *rest):
        if op in factored:
            return "pdegreen.solve"
        factored.add(op)
        return "pdegreen.factor_solve"

    return name


def _points():
    """(owner, attribute, span name, count hook) for every traced call."""
    return (
        (harness, "build_quadrature", "geometry.build_quadrature", _count_quadrature),
        (weights, "solve_gauge", "weights.solve_gauge", None),
        (bergman, "gram_matrix", "bergman.gram_matrix", _count_gram),
        (bergman, "kernel_from_gram", "bergman.kernel_from_gram", _count_trim),
        (bergman.KernelApproximation, "evaluate", "bergman.evaluate", None),
        (bergman.KernelApproximation, "diagonal", "bergman.diagonal", None),
        (bergman, "skwarczynski_distance", "bergman.skwarczynski_distance", None),
        (green, "identity_residual", "green.identity_residual", None),
        (green.WeightedGreen, "mixed_zwbar", "green.mixed_zwbar", None),
        (green, "wirtinger_mixed", "green.wirtinger_mixed", None),
        (pdegreen, "discretize", "pdegreen.discretize", _count_operator),
        (pdegreen, "solve_green", "pdegreen.solve_green", None),
        (pdegreen, "solve_mixed", "pdegreen.solve_mixed", None),
        (pdegreen.DiscreteOperator, "solve", _solve_namer(), None),
        (pdegreen, "rectangle_green_series", "pdegreen.rectangle_green_series", None),
        (harness.VerificationReport, "write", "harness.write", _count_write),
    )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the duration of the block, then restore."""
    originals = []
    try:
        for owner, attr, name, count in _points():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
