"""Acceptance battery: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary, or use the CLI equivalent `nc-hardy selftest`.
"""

import numpy as np
import pytest

from nc_hardy import acceptance


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number](seed=None)
    line = (
        f"{'PASS' if result.passed else 'FAIL'}  criterion {result.number:>2}  "
        f"{result.name:<28} ({result.seconds:6.2f}s / budget {result.limit_seconds:.0f}s)  "
        f"{result.details}"
    )
    print(line)
    assert result.passed, line
    assert result.seconds <= result.limit_seconds, line


def test_criterion_5_catches_a_sampler_without_the_phase_fix(monkeypatch):
    # LAPACK QR without the phase fix, forced onto criterion 5's ball shapes,
    # keeps the signs of R's diagonal in Q's columns, so Tr(X1) no longer has
    # mean 0.  The stratified value of 1 + X1, 1 + Tr(X1* X1)/N, ignores
    # those phases; its symmetry residual 2 Re Tr(X1)/N does not.
    monkeypatch.setattr("nc_hardy.haar_mc._GRAM_SCHMIDT_MAX_WORK", 0)
    monkeypatch.setattr("nc_hardy.haar_mc._phase_fixed_q", lambda z: np.linalg.qr(z)[0])
    result = acceptance.CRITERIA[5](seed=None)
    assert not result.passed
    failures = result.details.split("; ")
    assert [f.split(" off 0 by ")[0] for f in failures] == [
        f"m={m}: MC of 1 + X1: symmetry residual" for m in (2, 3)
    ]
