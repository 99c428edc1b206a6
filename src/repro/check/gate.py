"""Shared plumbing for the three ``repro check`` gates.

Every gate needs the same three things: the set of grid cells it
covers, the current payloads for those cells (produced through the
cache-aware harness, so a warm checkout gates at cache speed), and a
machine-readable verdict file CI can parse without scraping stdout.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..exec import runner as exec_runner
from ..exec.fingerprint import runtime_versions
from ..figures.common import default_results_dir
from . import VERDICTS


def default_golden_dir() -> str:
    return os.path.join(default_results_dir(), "golden")


def gate_cells(
    tokens: Sequence[str] = (), full: bool = False
) -> List[str]:
    """Cells a gate covers: explicit tokens, else the fast grid
    (``--full`` adds the slow figures and extensions)."""
    if tokens:
        return exec_runner.resolve_cells(tokens)
    return exec_runner.default_cells(include_slow=full)


@dataclass
class PayloadSet:
    """Current payloads for one gate run, keyed by figure id."""

    payloads: Dict[str, dict] = field(default_factory=dict)
    cell_of: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)  # "cell: error"


def collect_payloads(
    cells: Sequence[str],
    results_dir: Optional[str] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> PayloadSet:
    """Run the named cells through the harness and load their payloads."""
    results_dir = results_dir or default_results_dir()
    report = exec_runner.run_grid(
        cells, jobs=max(1, jobs), results_dir=results_dir, use_cache=use_cache,
    )
    out = PayloadSet()
    for outcome in report.outcomes:
        if not outcome.ok:
            out.failures.append(f"{outcome.cell}: {outcome.error}")
            continue
        with open(outcome.json_path) as handle:
            out.payloads[outcome.figure_id] = json.load(handle)
        out.cell_of[outcome.figure_id] = outcome.cell
    return out


def write_verdict(
    path: str, gate: str, verdict: str, details: Dict[str, Any]
) -> str:
    """Persist one gate's machine-readable verdict for CI.

    The verdict is stamped with the numpy and Python versions
    (``"runtime"``): the payloads it judged depend on their RNG streams.
    """
    payload = {
        "gate": gate,
        "verdict": verdict,
        "exit_code": VERDICTS[verdict],
        "exit_codes": dict(VERDICTS),
        **details,
        "runtime": runtime_versions(),
    }
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
