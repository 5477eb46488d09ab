"""Output checks: digests of the deterministic outputs, and invariants.

Runtime fields (report ``runtime_seconds``, trace ``wall_time_seconds``)
never enter a digest, so two runs of correct code always agree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_without_runtime(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("runtime_seconds")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


def trace_without_wall(trace: dict) -> dict:
    return {k: v for k, v in trace.items() if k != "wall_time_seconds"}


def hex_bits(text: str, width: int) -> list[int]:
    """Feature indices set in a chromosome hex (MSB-first per byte)."""
    bits = "".join(f"{b:08b}" for b in bytes.fromhex(text))[:width]
    return [i for i, c in enumerate(bits) if c == "1"]


def selection_outputs(trace: dict, width: int, r2_test: float) -> dict:
    """The deterministic outputs of one subset search plus its test R2."""
    return {
        "selected": hex_bits(trace["best"]["chromosome_hex"], width),
        "front": [[repr(float(m)), int(c), h] for m, c, h in trace["front"]],
        "r2_test": repr(float(r2_test)),
    }


def trace_invariants(trace: dict, generations: int) -> list[str]:
    """Broken invariants of one search trace, as messages."""
    errors = []
    front = trace["front"]
    for m, c, h in front:
        ones = sum(bin(b).count("1") for b in bytes.fromhex(h))
        if ones != c:
            errors.append(f"front entry {h}: popcount {ones} != cardinality {c}")
    objs = [(-float(m), int(c)) for m, c, _ in front]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            if i != j and all(x <= y for x, y in zip(b, a)) \
                    and any(x < y for x, y in zip(b, a)):
                errors.append(f"front entry {j} dominates entry {i}")
    if len(trace["hypervolume"]) != generations + 1:
        errors.append(f"{len(trace['hypervolume'])} hypervolume entries, "
                      f"expected {generations + 1}")
    return errors


def job_verdicts(digests: list[str | None], reference: str | None) -> list[bool]:
    """Whether each job's outputs pass: all jobs of a run must agree and,
    where a reference is stored for the seed, match it. A job that
    produced no digest fails."""
    agree = len({d for d in digests if d is not None}) <= 1
    return [d is not None and agree and (reference is None or d == reference)
            for d in digests]
