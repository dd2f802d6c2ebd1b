"""Self-check suite tests: clean pass, fault injection, and timing budget."""

import time

import pytest

from ballast.operators import CircularConvolution, PartialFourier
from ballast.validate import run_suite

EXPECTED_CHECKS = [
    "operators/adjoint-identity",
    "operators/dft-parseval",
    "operators/selection-rows",
    "operators/inverse-identity",
    "operators/dense-inverse-oracle",
    "frames/parseval-and-energy",
    "prox/soft-threshold-oracle",
    "prox/ball-projection",
    "prox/tv-descent",
]


def test_suite_passes_clean_and_fast():
    t0 = time.perf_counter()
    ok, results, elapsed = run_suite()
    wall = time.perf_counter() - t0
    assert ok
    assert [r.name for r in results] == EXPECTED_CHECKS
    assert all(r.passed for r in results)
    assert elapsed < 60.0
    assert wall < 60.0


@pytest.fixture
def dft_fault(monkeypatch):
    """Scale forward and adjoint of the FFT-backed operators by 1.01; inverses stay exact."""
    for cls in (CircularConvolution, PartialFourier):
        for method in ("forward", "adjoint"):
            original = getattr(cls, method)
            monkeypatch.setattr(
                cls, method, lambda self, v, original=original: original(self, v) * 1.01
            )


def test_injected_normalization_fault_is_caught(dft_fault):
    ok, results, _ = run_suite()
    assert not ok
    failed = {r.name for r in results if not r.passed}
    # a broken DFT normalization must break exactly the checks that rest on
    # unitarity; the adjoint identity survives because forward and adjoint
    # are corrupted consistently
    assert failed == {
        "operators/dft-parseval",
        "operators/selection-rows",
        "operators/inverse-identity",
        "operators/dense-inverse-oracle",
    }


def test_check_result_repr_is_informative(dft_fault):
    ok, results, _ = run_suite()
    lines = [repr(r) for r in results]
    assert any(line.startswith("PASS ") for line in lines)
    failing = [line for line in lines if line.startswith("FAIL ")]
    assert failing and all("(" in line for line in failing)  # carries detail
