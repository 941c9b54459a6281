import pytest

from cyclojones.diagram import (
    ArrowDiagramSummary,
    ArrowRecord,
    wnk_summary,
    writhe_from_summary,
)
from cyclojones.wnk import writhe_wnk


class TestWritheFromSummary:
    def test_no_arrows(self):
        assert writhe_from_summary(ArrowDiagramSummary(3, ())) == 3

    def test_single_positive_arrow(self):
        assert writhe_from_summary(ArrowDiagramSummary(0, (ArrowRecord(1, 0),))) == 2

    def test_worked_example(self):
        summary = wnk_summary(2, 3)
        assert writhe_from_summary(summary) == 15

    def test_permutation_invariance(self):
        arrows = (ArrowRecord(1, 0), ArrowRecord(-1, 2), ArrowRecord(1, -3))
        w = writhe_from_summary(ArrowDiagramSummary(5, arrows))
        assert w == writhe_from_summary(ArrowDiagramSummary(5, arrows[::-1]))


class TestWnkSummary:
    def test_2_3(self):
        summary = wnk_summary(2, 3)
        assert summary.bare_writhe == 3
        assert summary.arrows == (
            ArrowRecord(1, 0),
            ArrowRecord(1, 1),
            ArrowRecord(1, 2),
            ArrowRecord(-1, -1),
            ArrowRecord(-1, -1),
        )

    def test_origin(self):
        assert wnk_summary(0, 0) == ArrowDiagramSummary(0, ())

    def test_negative_n_sign_convention(self):
        summary = wnk_summary(-2, 1)
        assert summary.bare_writhe == 1
        assert summary.arrows == (
            ArrowRecord(1, 0),
            ArrowRecord(1, -1),
            ArrowRecord(1, -1),
        )
        assert writhe_from_summary(summary) == writhe_wnk(-2, 1) == 9

    def test_matches_writhe_formula_everywhere(self):
        for n in range(-8, 9):
            for k in range(0, 9):
                assert writhe_from_summary(wnk_summary(n, k)) == writhe_wnk(n, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            wnk_summary(0, -1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            ArrowRecord(2, 0)
        with pytest.raises(ValueError):
            ArrowRecord(1, 0)._replace(sign=2)  # _replace builds through _make


class TestJson:
    def test_roundtrip(self):
        summary = wnk_summary(-3, 2)
        assert ArrowDiagramSummary.from_json(summary.to_json()) == summary

    def test_schema(self):
        obj = wnk_summary(2, 3).to_json()
        assert obj == {
            "bare_writhe": 3,
            "arrows": [[1, 0], [1, 1], [1, 2], [-1, -1], [-1, -1]],
        }
