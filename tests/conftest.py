import random
import signal
from contextlib import contextmanager

import pytest

from steinberg.builders import cyclic_group, one_object_groupoid
from steinberg.groupoid import to_json_obj


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


@pytest.fixture(scope="session")
def over_cap_documents():
    """Two invalid groupoid documents with far more violations than the
    list holds: Z161 with its products shuffled among the triples (0.63 MB;
    nearly all of its 161^3 triples fail associativity, just under the cap
    on the all-triples sweep) and Z512 with an empty table (512^2 missing
    pairs)."""
    z161 = to_json_obj(one_object_groupoid(cyclic_group(161)))
    products = [c for _, _, c in z161["compose"]]
    random.Random(0).shuffle(products)
    z161["compose"] = [[a, b, c] for (a, b, _), c in zip(z161["compose"], products)]
    z512 = dict(to_json_obj(one_object_groupoid(cyclic_group(512))), compose=[])
    return {"shuffled Z161": z161, "empty Z512": z512}
