"""Fixtures shared by the test modules."""

import pytest

from cloudguard.nn import model as nn_model


@pytest.fixture()
def no_blas_thread_control(monkeypatch):
    """numpy's linear-algebra extension, as loaded through ctypes, exports
    no scipy-openblas thread control: a numpy built on another BLAS."""
    class NoSymbols:
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            raise AttributeError(f"undefined symbol: {name}")

    nn_model._openblas_threads.cache_clear()
    monkeypatch.setattr(nn_model.ctypes, "CDLL", NoSymbols)
    yield
    nn_model._openblas_threads.cache_clear()
