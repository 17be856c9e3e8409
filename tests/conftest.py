import pytest

from convctc import layers


@pytest.fixture
def force_split(monkeypatch):
    """force_split(True) makes every GEMM at or above SPLIT_MIN_MULADDS run as
    two parts whatever the cores and BLAS threads; force_split(False) keeps
    every GEMM whole.  It returns the list of two-way dispatches made."""
    dispatches = []
    real = layers._in_parts

    def counting(task, parts):
        if parts == 2:
            dispatches.append(task)
        real(task, parts)

    monkeypatch.setattr(layers, "_in_parts", counting)

    def force(on):
        monkeypatch.setattr(layers, "_halves_run_together", lambda: on)
        return dispatches

    return force
