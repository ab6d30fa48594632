"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 are the registry ``irrtop.oracles.CRITERIA``, which ``selftest``
also runs; here each runs at seed 0 and is held to its wall-clock budget.
Criterion 9 feeds the parsers mutated input, so it lives here only.
Everything is exact (no tolerances) and oracle- or property-based.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from irrtop.docs import parse_algebra, parse_family
from irrtop.oracles import CRITERIA


def _finish(num, desc, budget, t0, ok):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed <= budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"{verdict} criterion {num}: {desc} ({elapsed:.1f}s / {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert in_budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


@pytest.mark.parametrize("num, criterion", enumerate(CRITERIA, start=1), ids=[c.name for c in CRITERIA])
def test_criterion(request, num, criterion):
    assert request.node.callspec.id == criterion.name
    t0 = time.perf_counter()
    _finish(num, criterion.desc, criterion.budget_s, t0, criterion.check(0))


def test_criterion_9_parser_totality():
    t0 = time.perf_counter()
    from test_cli import SAMPLES, FAMILY_TEXT, mutate

    ok = True
    rng = np.random.default_rng(9)
    bases = SAMPLES + [FAMILY_TEXT]
    for i in range(1000):
        text = mutate(bases[int(rng.integers(0, len(bases)))], rng)
        for parser in (parse_algebra, parse_family):
            try:
                doc, diags = parser(text)
            except Exception:
                ok = False
                break
            if doc is None:
                ok &= bool(diags) and all(d.line >= 1 and d.col >= 1 for d in diags)
    _finish(9, "1000 mutated inputs never crash the parsers", 60, t0, ok)
