"""Shared test helpers: dense materialization of linear maps and traced
memory peaks."""

import tracemalloc

import numpy as np
import pytest


def materialize_forward(op):
    """Dense matrix of op.forward by probing with basis vectors."""
    n = int(np.prod(op.in_shape))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(np.ravel(op.forward(e.reshape(op.in_shape))))
    return np.stack(cols, axis=1)


def materialize_composed(base, frame):
    """Dense matrix of image-operator `base` applied after frame synthesis."""
    d = frame.coefficient_length
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        cols.append(np.ravel(base.forward(frame.synthesis(e))))
    return np.stack(cols, axis=1)


def traced_peak(fn):
    """Bytes that ``fn()`` holds at its ``tracemalloc`` peak, over what was
    held before the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def pytest_configure(config):
    # whatever the database setting, Hypothesis caches the constants it reads
    # from local modules in its storage directory, ./.hypothesis by default;
    # keep that inside pytest's own cache directory
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
