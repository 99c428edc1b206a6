"""RNG-stream canary: the first draws of every numpy ``Generator``
distribution the simulator uses, pinned under fixed seeds.

NumPy's NEP 19 does not promise that distribution streams stay the same
across releases, yet every golden payload is a function of them.  If
this test fails after a numpy upgrade, the goldens and cached payloads
were produced by a different stream: regenerate them deliberately (and
say why), do not loosen the pins.
"""

import numpy as np
import pytest

# (distribution, call site, seed, one scalar draw -- drawn the way the
# call site draws, first three values)
CANARIES = [
    ("lognormal", "tdx.domain.jitter / serve.arrivals", 1234,
     lambda rng: float(rng.lognormal(0.0, 0.05)),
     [0.9229392724831701, 1.0032101371902578, 1.0377392664441514]),
    ("exponential", "serve.arrivals (poisson)", 1234,
     lambda rng: float(rng.exponential(0.125)),
     [0.1904662805365016, 0.089331350454728, 0.22661571449497886]),
    ("gamma", "serve.arrivals (gamma)", 1234,
     lambda rng: float(rng.gamma(0.25, 0.5)),
     [0.5967492746028525, 0.005183954810652953, 0.0017082562257763737]),
    ("random", "faults.injector", [1234, 99],
     lambda rng: float(rng.random()),
     [0.5643950505974701, 0.5690685289736678, 0.6021184762984838]),
    ("integers", "llm.backends", 1234,
     lambda rng: int(rng.integers(16, 257)),
     [252, 251, 254]),
]


@pytest.mark.parametrize(
    "name, site, seed, draw, expected", CANARIES, ids=[c[0] for c in CANARIES]
)
def test_first_draws_are_pinned(name, site, seed, draw, expected):
    rng = np.random.default_rng(seed)
    got = [draw(rng) for _ in expected]
    assert got == expected, (
        f"numpy {np.__version__} changed the Generator.{name} stream "
        f"used by {site}: first draws {got}, pinned {expected}. Golden "
        f"payloads and cached results depend on this stream."
    )
