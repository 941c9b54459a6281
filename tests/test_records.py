"""The result records are immutable NamedTuples with fixed repr and JSON."""

import json

import pytest

from cyclojones import (
    classify_symmetry,
    generate_table,
    is_cyclotomic_product,
    jones_wnk,
    special_value_check,
    wnk_summary,
)
from cyclojones.bracket import BracketLevel
from cyclojones.diagram import ArrowRecord

# (record, its repr, its to_json as JSON text or None)
RECORDS = [
    (
        classify_symmetry(5, 2),
        "SymmetryClass(family=<Family.TWO_K_PLUS_1: 'n=2k+1'>, m=17, source='g(3)')",
        '{"family": "n=2k+1", "m": 17, "source": "g(3)"}',
    ),
    (
        generate_table(1)[1],
        "TableRow(params=FamilyParams(n=1, k=1), classification=SymmetryClass("
        "family=<Family.K: 'n=k'>, m=5, source='f(2)'), polynomial=LaurentPoly("
        "t^-2 - t^-1 + 1 - t + t^2, variable='t'), polynomial_name='Phi_sym_10', "
        "crossing_bound=4)",
        '{"n": 1, "k": 1, "family": "n=k", "m": 5, "polynomial": {"variable": "t", '
        '"terms": [[-2, "1"], [-1, "-1"], [0, "1"], [1, "-1"], [2, "1"]]}, '
        '"polynomial_name": "Phi_sym_10", "crossing_bound": 4}',
    ),
    (
        is_cyclotomic_product(jones_wnk(1, 1)),
        "CyclotomicFactorization(monomial_shift=-2, sign=1, factors=((10, 1),))",
        '{"monomial_shift": -2, "sign": 1, "factors": [[10, 1]]}',
    ),
    (
        special_value_check(jones_wnk(2, 0)),
        "SpecialValueReport(at_one=1, derivative_at_one=0, at_zeta3_is_one=True, "
        "at_i_value=-1, at_zeta6_exponent=1)",
        '{"at_one": 1, "derivative_at_one": 0, "at_zeta3_is_one": true, '
        '"at_i_value": -1, "at_zeta6_exponent": 1, "passes_all": true}',
    ),
    (BracketLevel(1, {-1: (2, 5)}), "BracketLevel(k=1, values={-1: (2, 5)})", None),
    (ArrowRecord(-1, 3), "ArrowRecord(sign=-1, winding=3)", None),
    (
        wnk_summary(1, 2),
        "ArrowDiagramSummary(bare_writhe=2, arrows=(ArrowRecord(sign=1, winding=0), "
        "ArrowRecord(sign=1, winding=1), ArrowRecord(sign=-1, winding=-1)))",
        '{"bare_writhe": 2, "arrows": [[1, 0], [1, 1], [-1, -1]]}',
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, obj", RECORDS, ids=IDS)
class TestRecords:
    def test_fields_cannot_be_assigned(self, record, text, obj):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_repr_and_json(self, record, text, obj):
        assert repr(record) == text
        if obj is not None:
            assert json.dumps(record.to_json()) == obj

    def test_unpacks_and_equals_its_fields(self, record, text, obj):
        fields = tuple(getattr(record, field) for field in record._fields)
        assert tuple(record) == fields and record == fields
        assert type(record)(*fields) == record
