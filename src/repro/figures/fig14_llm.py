"""Fig. 14: vLLM throughput speedup over the HF BF16 CC-off baseline
for Llama-3-8B, across quantization (BF16/AWQ), CC mode, and batch
size 1-128.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..llm import AWQ, BF16, HFBackend, VLLMBackend, make_requests
from .common import FigureResult

DEFAULT_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128)


def generate(batch_sizes: Optional[Sequence[int]] = None) -> FigureResult:
    batch_sizes = (
        list(batch_sizes) if batch_sizes is not None else list(DEFAULT_BATCHES)
    )
    base = SystemConfig.base()
    cc = SystemConfig.confidential()
    rows = []
    cells = {}
    for batch in batch_sizes:
        requests = make_requests(max(3 * batch, 8), seed=11)
        hf_baseline = HFBackend(quant=BF16).serve(base, requests, batch)
        for quant in (BF16, AWQ):
            for mode_label, config in (("cc-off", base), ("cc-on", cc)):
                result = VLLMBackend(quant=quant).serve(config, requests, batch)
                speedup = result.tokens_per_sec / hf_baseline.tokens_per_sec
                cells[(batch, quant.name, mode_label)] = speedup
                rows.append(
                    (
                        batch,
                        quant.name,
                        mode_label,
                        round(result.tokens_per_sec, 1),
                        round(speedup, 3),
                    )
                )
        # Also report HF under CC (the paper's full grid).
        hf_cc = HFBackend(quant=BF16).serve(cc, requests, batch)
        rows.append(
            (
                batch,
                "bf16-hf",
                "cc-on",
                round(hf_cc.tokens_per_sec, 1),
                round(hf_cc.tokens_per_sec / hf_baseline.tokens_per_sec, 3),
            )
        )
    figure = FigureResult(
        figure_id="fig14_llm",
        title="vLLM speedup over HF BF16 CC-off baseline (Llama-3-8B)",
        columns=("batch", "quant", "mode", "tokens_per_s", "speedup_vs_hf"),
        rows=rows,
    )
    vllm_cells = [v for k, v in cells.items()]
    figure.add_paper_comparison(
        "all vLLM speedups > 1 (fraction)",
        sum(1 for v in vllm_cells if v > 1.0) / len(vllm_cells),
    )
    small = [b for b in batch_sizes if b <= 32]
    large = [b for b in batch_sizes if b >= 64]
    awq_wins_small = all(
        cells[(b, "awq", "cc-off")] > cells[(b, "bf16", "cc-off")] for b in small
    )
    bf16_wins_large = all(
        cells[(b, "bf16", "cc-off")] >= cells[(b, "awq", "cc-off")] for b in large
    )
    figure.add_paper_comparison("AWQ > BF16 at batch <= 32", float(awq_wins_small))
    figure.add_paper_comparison(
        "BF16 >= AWQ at batch 64/128", float(bf16_wins_large)
    )
    cc_below_off = sum(
        1
        for b in batch_sizes
        for q in ("bf16", "awq")
        if cells[(b, q, "cc-on")] <= cells[(b, q, "cc-off")]
    ) / (2 * len(batch_sizes))
    figure.add_paper_comparison("CC-on <= CC-off (fraction of cells)", cc_below_off)
    return figure
