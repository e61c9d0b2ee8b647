"""Pure metric arithmetic of the benchmark, kept apart so it can be tested.

Nothing here imports the package under test or reads the clock.
"""

from __future__ import annotations

import hashlib
import re
import statistics
from typing import Iterable, Sequence

_NAME_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def p50(values: Iterable[float]) -> float:
    """Median; the mean of the two middle values for an even count."""
    vals = list(values)
    if not vals:
        raise ValueError("p50 of no values")
    return float(statistics.median(vals))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(med)


def slug(name: str) -> str:
    """Metric-name form of a gate or query label.

    Drops ``=``, maps spaces to ``-`` and ``/`` to ``.``, and maps any other
    character a metric name may not hold (such as ``+``) to ``-``:
    ``"Z j=1 k=2/A n=5 d=3"`` becomes ``"Z-j1-k2.A-n5-d3"``.
    """
    out = name.replace("=", "").replace(" ", "-").replace("/", ".")
    return _NAME_UNSAFE.sub("-", out)


def self_times(spans: Sequence[dict]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.  A span's parent is the index of another span
    in the same list, or None.  Overlapping children are counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        parent = sp["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((sp["start"], sp["end"]))
    out = []
    for i, sp in enumerate(spans):
        start, end = sp["start"], sp["end"]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def coverage(layer_seconds: Iterable[float], wall_s: float) -> float:
    """Share of a workload's wall time that replayed per-layer time accounts for.

    It can exceed 1 when the replay through public functions costs more than
    the private fast paths the workload takes."""
    if wall_s <= 0:
        raise ValueError("coverage needs a positive wall time")
    return sum(layer_seconds) / wall_s


def failed_share(failed: int, attempted: int) -> float:
    """Failed checks divided by checks attempted."""
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted check")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def estimate_digest(rows: Iterable[tuple]) -> str:
    """Digest of per-pair (label, mean, stderr, z, rejected) rows.

    Floats enter by their exact hex form, so two digests match only when
    every estimate is bit-identical."""
    h = hashlib.sha256()
    for label, mean, stderr, z, rejected in rows:
        z_txt = "none" if z is None else float(z).hex()
        h.update(f"{label}|{float(mean).hex()}|{float(stderr).hex()}|{z_txt}|{int(rejected)}\n"
                 .encode())
    return h.hexdigest()[:16]
