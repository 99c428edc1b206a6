"""Recording off changes nothing but the record.

``repro.dnn.train`` and the LLM backends' ``serve`` drop their trace,
so they run with recording off.  Their results must be identical to a
run with recording on, and the trace they drop must be empty.
"""

import pytest

import repro.dnn.training as training
import repro.llm.backends as backends
from repro.config import SystemConfig
from repro.dnn import MODELS, train
from repro.llm import VLLMBackend, make_requests

CONFIGS = {"base": SystemConfig.base, "cc": SystemConfig.confidential}


def _run(monkeypatch, module, call, force_on):
    """``call()`` with ``module.run_app`` wrapped to keep the traces
    (and, with ``force_on``, to record whatever the caller asked)."""
    traces = []
    real = module.run_app

    def run_app(app, config=None, label="", observe=True, **kwargs):
        trace, result = real(app, config, label, observe or force_on, **kwargs)
        traces.append(trace)
        return trace, result

    with monkeypatch.context() as patch:
        patch.setattr(module, "run_app", run_app)
        return call(), traces


def _check(monkeypatch, module, call):
    on, on_traces = _run(monkeypatch, module, call, force_on=True)
    off, off_traces = _run(monkeypatch, module, call, force_on=False)
    assert off == on
    assert all(len(t) and len(t.spans) and len(t.metrics) for t in on_traces)
    assert off_traces
    for trace in off_traces:
        assert (len(trace), len(trace.spans), len(trace.metrics)) == (0, 0, 0)


@pytest.mark.parametrize("mode", sorted(CONFIGS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_train_identical_with_recording_off(monkeypatch, model, mode):
    _check(
        monkeypatch,
        training,
        lambda: train(MODELS[model], 64, "fp32", CONFIGS[mode](), num_steps=1),
    )


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_vllm_serve_identical_with_recording_off(monkeypatch, mode):
    requests = make_requests(8, seed=5)
    _check(
        monkeypatch,
        backends,
        lambda: VLLMBackend().serve(CONFIGS[mode](), requests, 4),
    )
