import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """A context manager that fails with TimeoutError instead of hanging
    past its limit in seconds."""

    @contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"no answer within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def diamond_chain():
    """Builds (vertices, edges) of k diamonds v_i -> {a_i, b_i} -> v_{i+1};
    2^(k+2) - 3 paths end at the sink v_k."""

    def build(k: int):
        vertices = [f"v{i}" for i in range(k + 1)]
        edges = []
        for i in range(k):
            vertices += [f"a{i}", f"b{i}"]
            edges += [
                (f"e{i}a", f"v{i}", f"a{i}"),
                (f"e{i}b", f"v{i}", f"b{i}"),
                (f"f{i}a", f"a{i}", f"v{i + 1}"),
                (f"f{i}b", f"b{i}", f"v{i + 1}"),
            ]
        return vertices, edges

    return build
