"""The library's records: immutable named tuples, compared by their fields."""

from fractions import Fraction

import pytest

from subtree_poly_lab import counting, graphs, polyroots, sampling, spanning
from subtree_poly_lab.cli import _json

# every record with its field names, in the order the documents print them
_RECORDS = [
    (graphs.Graph, "n m neighbors adjacency_bits"),
    (graphs.DegreeProfile, "min_degree alpha"),
    (graphs.FamilySpec, "name args"),
    (counting.SubtreeCountVector, "n counts"),
    (counting.InequalityCheck, "kind index lhs rhs passed"),
    (counting.RatioInequalityReport, "precondition_ok all_passed checks"),
    (polyroots.RootAnalysis,
     "roots residuals max_modulus iterations precision_bits vieta_product vieta_target "
     "vieta_relative_error clusters"),
    (polyroots.RoucheReport,
     "n C radius beta circle_points max_margin max_margin_index margin_below_one witness_ok "
     "witness_floor precision_bits label"),
    (polyroots.TreeRootReport,
     "n max_modulus bound tolerance within_bound annulus_inner annulus_outer annulus_ok analysis"),
    (spanning.SpanningTree, "n edges leaf_set"),
    (sampling.WeightSample, "weight leaf_count"),
    (sampling.BetaEstimate,
     "mean standard_error samples seed min_weight max_weight bound_violations"),
    (sampling.LeafCountStats,
     "samples seed mean variance histogram epsilon threshold below_threshold_probability "
     "bound_violations"),
    (sampling.ConcentrationRow,
     "b tail_count empirical_tail bound_min_degree bound_alpha_form status_min_degree "
     "status_alpha_form"),
    (sampling.ConcentrationReport, "samples seed mean rows bound_violations any_violation"),
    (spanning.WeightIdentityReport,
     "n tree_count weight_sum s_n_minus_1 equal matrix_tree_count"),
]


@pytest.mark.parametrize("record, fields", _RECORDS, ids=[r.__name__ for r, _ in _RECORDS])
def test_record_fields_are_fixed_immutable_and_compared_by_value(record, fields):
    names = tuple(fields.split())
    assert record._fields == names
    assert record._field_defaults == (
        {"label": "sampled supremum"} if record is polyroots.RoucheReport else {}
    )
    # a count vector refuses entries that are not n nonnegative counts
    values = (2, (2, 1)) if record is counting.SubtreeCountVector else tuple(range(len(names)))
    first = record(*values)
    second = record(**dict(zip(names, values)))
    assert first == second and hash(first) == hash(second)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(first, name, 0)


def test_nested_report_json():
    report = counting.RatioInequalityReport(
        precondition_ok=True,
        all_passed=False,
        checks=(
            counting.InequalityCheck("ratio", 1, Fraction(3, 4), Fraction(5, 6), True),
            counting.InequalityCheck("partial_sum", 2, Fraction(7), Fraction(6), False),
        ),
    )
    assert _json(report) == {
        "precondition_ok": True,
        "all_passed": False,
        "checks": [
            {"kind": "ratio", "index": 1, "lhs": "3/4", "rhs": "5/6", "passed": True},
            {"kind": "partial_sum", "index": 2, "lhs": "7", "rhs": "6", "passed": False},
        ],
    }
