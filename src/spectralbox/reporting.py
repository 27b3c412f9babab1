"""Deterministic plain-text reports and figure payloads.

Reports are byte-reproducible for a fixed config and seed: stable field
order, fixed float formatting, no wall-clock data (the package records no
run timing at all).  Every verdict line names the operation that produced
it and the identity it instantiates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Sequence, Union

import numpy as np

__all__ = ["format_float", "write_svg", "CheckResult", "ReportBuilder"]


def format_float(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12e}{value.imag:+.12e}j"
    return f"{float(value):.12e}"


def write_svg(parts: list[str], sink: Union[str, IO[bytes], None]) -> bytes:
    """Close an SVG document, write it to a path or stream, return its bytes."""
    payload = ("\n".join([*parts, "</svg>"]) + "\n").encode("utf-8")
    if sink is not None:
        if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
            with open(sink, "wb") as fh:
                fh.write(payload)
        else:
            sink.write(payload)
    return payload


def _format_metric(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        return format_float(value)
    return str(value)


@dataclass
class CheckResult:
    op: str
    identity: str
    passed: bool
    metrics: Sequence[tuple[str, object]] = ()
    notes: Sequence[str] = ()


@dataclass
class ReportBuilder:
    command: str
    config_path: str
    seed: int
    tolerance_line: str
    checks: list[CheckResult] = field(default_factory=list)
    preamble: list[str] = field(default_factory=list)

    def add(
        self,
        op: str,
        identity: str,
        passed: bool,
        metrics: Sequence[tuple[str, object]] = (),
        notes: Sequence[str] = (),
    ) -> CheckResult:
        result = CheckResult(op, identity, passed, tuple(metrics), tuple(notes))
        self.checks.append(result)
        return result

    def note(self, text: str) -> None:
        self.preamble.append(text)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            "spectralbox report",
            "==================",
            f"command: {self.command}",
            f"config: {self.config_path}",
            f"seed: {self.seed}",
            f"tolerances: {self.tolerance_line}",
        ]
        for text in self.preamble:
            lines.append(f"note: {text}")
        lines.append("")
        for check in self.checks:
            lines.append(f"[check] op={check.op}")
            lines.append(f"  identity: {check.identity}")
            lines.append(f"  verdict: {'PASS' if check.passed else 'FAIL'}")
            for name, value in check.metrics:
                lines.append(f"  {name}: {_format_metric(value)}")
            for note in check.notes:
                lines.append(f"  note: {note}")
        passed = sum(1 for c in self.checks if c.passed)
        lines.append("")
        lines.append(f"summary: {passed}/{len(self.checks)} checks passed")
        lines.append(f"result: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
