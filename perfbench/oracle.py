"""Result oracle: the value every request of a pass must produce.

Products are checked against ``a * b``, modular products against
``x * y % m``, modular powers against ``pow``, and MSM points against
both the host Pippenger bucket method and naive double-and-add (which
must agree with each other before either is trusted).
"""

from __future__ import annotations

from typing import List

from repro.crypto.ec import TINY_CURVE, CimEllipticCurve
from repro.crypto.msm import naive_msm, pippenger_msm


def expected_values(inputs: list) -> List[object]:
    """Reference result of every request of a pass, in pass order."""
    curve = None
    expected: List[object] = []
    for item in inputs:
        kind = getattr(item, "kind", "mul")
        if kind == "mul":
            expected.append(item.a * item.b)
        elif kind == "modmul":
            expected.append(item.x * item.y % item.modulus)
        elif kind == "modexp":
            expected.append(pow(item.x, item.exponent, item.modulus))
        elif kind == "msm":
            if curve is None:
                curve = CimEllipticCurve(TINY_CURVE)
            bucket = pippenger_msm(curve, item.scalars, item.points)
            naive = naive_msm(curve, item.scalars, item.points)
            if bucket != naive:
                raise RuntimeError(
                    f"host MSM references disagree: {bucket} != {naive}"
                )
            expected.append(bucket)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
    return expected


def wrong_results(outcome, expected: List[object]) -> List[int]:
    """Indices whose served value differs from the reference."""
    return sorted(
        index
        for index, value in outcome.values.items()
        if value != expected[index]
    )
