"""RNG-stream canary: the first draws of every numpy ``Generator``
distribution the simulator uses, pinned under fixed seeds.

NumPy's NEP 19 does not promise that distribution streams stay the same
across releases, yet every golden payload is a function of them.  If
this test fails after a numpy upgrade, the goldens and cached payloads
were produced by a different stream: regenerate them deliberately (and
say why), do not loosen the pins.
"""

import math

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.sim import Simulator
from repro.tdx import GuestContext

# (distribution, call site, seed, one scalar draw -- drawn the way the
# call site draws, first three values)
CANARIES = [
    ("lognormal", "serve.arrivals", 1234,
     lambda rng: float(rng.lognormal(0.0, 0.05)),
     [0.9229392724831701, 1.0032101371902578, 1.0377392664441514]),
    ("standard_normal", "tdx.domain.jitter (in blocks)", 1234,
     lambda rng: float(rng.standard_normal()),
     [-1.6038368053963015, 0.06409991400376411, 0.7408912958767259]),
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


def _sigma(index):
    """Mix the launch-path (0.14) and driver-management (0.05) sigmas."""
    return 0.05 if index % 3 == 0 else 0.14


def test_block_normals_reproduce_scalar_lognormal_bit_for_bit():
    """``exp(sigma * z)`` over a block of standard normals is the scalar
    ``lognormal(0, sigma)`` stream, factor for factor."""
    count = 12_000
    scalar = np.random.default_rng(7)
    normals = np.random.default_rng(7).standard_normal(count).tolist()
    for index, z in enumerate(normals):
        sigma = _sigma(index)
        assert math.exp(sigma * z) == float(scalar.lognormal(0.0, sigma)), (
            f"numpy {np.__version__}: lognormal is no longer exp(sigma*z) "
            f"of the standard-normal stream (draw {index}); "
            "GuestContext.jitter must go back to scalar draws."
        )


def test_guest_jitter_equals_scalar_lognormal_stream():
    config = SystemConfig.confidential(seed=11)
    guest = GuestContext(Simulator(), config)
    reference = np.random.default_rng(config.seed)
    for index in range(12_000):
        sigma = _sigma(index)
        # A wide base keeps ~15 significant digits of the factor.
        base = 10**15 + index
        expected = max(1, int(base * float(reference.lognormal(0.0, sigma))))
        assert guest.jitter(base, sigma) == expected, index
    # Calls that draw nothing leave the stream where it was.
    assert guest.jitter(0, 0.14) == 0
    assert guest.jitter(500, 0.0) == 500
    expected = max(1, int(10**15 * float(reference.lognormal(0.0, 0.05))))
    assert guest.jitter(10**15, 0.05) == expected
