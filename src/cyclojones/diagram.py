"""Arrow-diagram summaries and the general writhe formula.

A diagram is kept only as the data the writhe formula consumes: the bare
writhe (crossing signs with arrows ignored) and one (sign, winding)
record per arrow.  No planar embedding is stored.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArrowRecord:
    sign: int  # +1 with the diagram orientation, -1 against it
    winding: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("arrow sign must be +1 or -1")


@dataclass(frozen=True)
class ArrowDiagramSummary:
    bare_writhe: int
    arrows: tuple[ArrowRecord, ...]

    def to_json(self) -> dict:
        return {
            "bare_writhe": self.bare_writhe,
            "arrows": [[a.sign, a.winding] for a in self.arrows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ArrowDiagramSummary":
        return cls(
            int(obj["bare_writhe"]),
            tuple(ArrowRecord(int(s), int(w)) for s, w in obj["arrows"]),
        )


def writhe_from_summary(summary: ArrowDiagramSummary) -> int:
    """w = bare + sum of 2*sign*winding + n*(n+1), n the signed arrow count."""
    n = sum(a.sign for a in summary.arrows)
    return (
        summary.bare_writhe
        + sum(2 * a.sign * a.winding for a in summary.arrows)
        + n * (n + 1)
    )


def wnk_summary(n: int, k: int) -> ArrowDiagramSummary:
    """Summary of the standard W(n,k) diagram.

    The k strand arrows run with the orientation and wind 0..k-1; the |n|
    kink arrows all wind -1 and run against the orientation when n > 0,
    with it when n < 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    arrows = [ArrowRecord(1, i) for i in range(k)]
    kink_sign = -1 if n > 0 else 1
    arrows.extend(ArrowRecord(kink_sign, -1) for _ in range(abs(n)))
    return ArrowDiagramSummary(bare_writhe=k, arrows=tuple(arrows))
