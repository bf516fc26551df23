import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blossom_subdiv import (
    BezierCurve,
    DomainTriangle,
    MonomialCurve,
    MonomialSurface,
    ParamInterval,
    ParamRect,
    Point2,
    Point3,
    TensorPatch,
    TrianglePatch,
    subdivide_curve,
    subdivide_tensor,
    subdivide_triangle,
)
from blossom_subdiv import documents
from blossom_subdiv.documents import (
    DocumentError,
    bezier_curve_document,
    curve_document,
    dumps,
    parse_any_document,
    parse_input_document,
    parse_patch_document,
    surface_document,
    tensor_patch_document,
    triangle_patch_document,
)

import golden

DATA = Path(__file__).parent / "data"


class TestInputDocuments:
    def test_surface_round_trip(self):
        doc = dumps(surface_document(golden.SAMPLE_SURFACE))
        assert parse_input_document(doc) == golden.SAMPLE_SURFACE

    def test_curve_round_trip(self):
        doc = dumps(curve_document(golden.SAMPLE_CURVE))
        assert parse_input_document(doc) == golden.SAMPLE_CURVE

    def test_canonicalizes_rationals(self):
        raw = json.dumps(
            {"kind": "curve", "degree": [0], "coeffs": [["2/4", "-3/9", "+5"]]}
        )
        curve = parse_input_document(raw)
        assert curve.coeffs[0] == Point3("1/2", "-1/3", "5")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(kind="patch"),
            lambda d: d.update(degree=[2]),
            lambda d: d.update(degree="3"),
            lambda d: d.update(coeffs=d["coeffs"][:-1]),
            lambda d: d["coeffs"][0].__setitem__(0, ["1/0", "0", "0"]),
            lambda d: d["coeffs"][0].__setitem__(0, ["0.5", "0", "0"]),
            lambda d: d["coeffs"][0].__setitem__(0, ["0", "0"]),
            # Document rationals take no whitespace.
            lambda d: d["coeffs"][0].__setitem__(0, [" 1/2", "0", "0"]),
            lambda d: d["coeffs"][0].__setitem__(0, ["0", "\t3\n", "0"]),
            lambda d: d["coeffs"][0].__setitem__(0, ["0", "0", "0 "]),
        ],
    )
    def test_malformed_surface_rejected(self, mutate):
        doc = surface_document(golden.SAMPLE_SURFACE)
        mutate(doc)
        with pytest.raises(DocumentError):
            parse_input_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "curve", "kind": "surface", "degree": [0], "coeffs": [["1", "0", "0"]]}',
            '{"kind": "curve", "degree": [0], "coeffs": [["1", "0", "0"]], "degree": [0]}',
        ],
        ids=["conflicting", "repeated"],
    )
    def test_duplicate_keys_rejected(self, text):
        with pytest.raises(DocumentError, match="duplicate key"):
            parse_input_document(text)

    def test_duplicate_keys_rejected_in_nested_objects(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        text = dumps(triangle_patch_document(patch)).replace('"nu": 0,', '"nu": 0, "nu": 0,', 1)
        with pytest.raises(DocumentError, match="duplicate key"):
            parse_patch_document(text)

    def test_not_json_rejected(self):
        with pytest.raises(DocumentError):
            parse_input_document("not json {")
        with pytest.raises(DocumentError):
            parse_input_document("[1, 2, 3]")


class TestPatchDocuments:
    def test_bezier_curve_round_trip(self):
        interval = ParamInterval("-1/2", "7/3")
        bez = subdivide_curve(golden.SAMPLE_CURVE, interval)
        text = dumps(bezier_curve_document(bez))
        parsed = parse_patch_document(text)
        assert parsed == bez
        assert parsed.domain == interval

    def test_tensor_round_trip(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.INNER_RECT)
        text = dumps(tensor_patch_document(patch))
        assert parse_patch_document(text) == patch

    def test_triangle_round_trip(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.OFFSET_TRIANGLE)
        text = dumps(triangle_patch_document(patch))
        assert parse_patch_document(text) == patch

    def test_round_trip_is_byte_stable(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        text = dumps(triangle_patch_document(patch))
        again = dumps(triangle_patch_document(parse_patch_document(text)))
        assert text == again

    def test_triangle_point_count_enforced(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        doc = triangle_patch_document(patch)
        doc["control_points"] = doc["control_points"][:-1]
        with pytest.raises(DocumentError):
            parse_patch_document(json.dumps(doc))

    def test_triangle_duplicate_label_rejected(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        doc = triangle_patch_document(patch)
        doc["control_points"][1] = doc["control_points"][0]
        with pytest.raises(DocumentError):
            parse_patch_document(json.dumps(doc))

    def test_tensor_domain_required(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        doc = tensor_patch_document(patch)
        del doc["domain"]["d"]
        with pytest.raises(DocumentError):
            parse_patch_document(json.dumps(doc))


class TestAnyDocument:
    def test_dispatch(self):
        assert isinstance(
            parse_any_document(dumps(surface_document(golden.SAMPLE_SURFACE))),
            MonomialSurface,
        )
        assert isinstance(
            parse_any_document(dumps(curve_document(golden.SAMPLE_CURVE))),
            MonomialCurve,
        )
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        parsed = parse_any_document(dumps(tensor_patch_document(patch)))
        assert parsed == patch

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            parse_any_document('{"kind": "mystery"}')

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (
                parse_input_document, (DATA / "tb_unit_triangle.json").read_text(),
                "expected kind 'curve' or 'surface', got 'tb-patch'",
            ),
            (
                parse_patch_document, (DATA / "curve_cubic.json").read_text(),
                "expected a patch kind ('bezier-curve', 'tpb-patch', 'tb-patch'), got 'curve'",
            ),
            (parse_any_document, '{"kind": "mystery"}', "unknown document kind 'mystery'"),
            (parse_any_document, '{"degree": [0]}', "unknown document kind None"),
        ],
        ids=["input-reader", "patch-reader", "any-reader", "any-reader-no-kind"],
    )
    def test_foreign_kind_refused_by_name(self, parse, text, message):
        with pytest.raises(DocumentError) as refused:
            parse(text)
        assert str(refused.value) == message

    def test_no_document_for_other_values(self):
        with pytest.raises(TypeError, match="^no document kind for Point3$"):
            documents.document(Point3(0, 0, 0))

    @pytest.mark.parametrize("name", ["tb_unit_triangle.json", "surface_3x2.json"])
    def test_decodes_json_once(self, name, monkeypatch):
        decoded = []
        real = documents._DECODER.decode
        monkeypatch.setattr(
            documents._DECODER, "decode", lambda text: decoded.append(text) or real(text)
        )
        parse_any_document((DATA / name).read_text(encoding="utf-8"))
        assert len(decoded) == 1


# Small rationals, zero, negatives and denominators far beyond 64 bits.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)
points3 = st.builds(Point3, rationals, rationals, rationals)
points2 = st.builds(Point2, rationals, rationals)
intervals = st.builds(ParamInterval, rationals, rationals)
degrees = st.integers(0, 3)


def _row(length):
    return st.lists(points3, min_size=length, max_size=length).map(tuple)


def _grid(n, m):
    return st.lists(_row(m + 1), min_size=n + 1, max_size=n + 1).map(tuple)


rows = degrees.flatmap(lambda n: _row(n + 1))
grids = st.tuples(degrees, degrees).flatmap(lambda nm: _grid(*nm))
triangles = degrees.flatmap(lambda n: st.tuples(*(_row(n - nu + 1) for nu in range(n + 1))))

KINDS = {
    "curve": (st.builds(MonomialCurve, rows), curve_document),
    "surface": (st.builds(MonomialSurface, grids), surface_document),
    "bezier-curve": (st.builds(BezierCurve, rows, intervals), bezier_curve_document),
    "tpb-patch": (
        st.builds(TensorPatch, grids, st.builds(ParamRect, intervals, intervals)),
        tensor_patch_document,
    ),
    "tb-patch": (
        st.builds(TrianglePatch, triangles, st.builds(DomainTriangle, points2, points2, points2)),
        triangle_patch_document,
    ),
}


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_parse_inverts_dumps(kind, data):
    strategy, to_document = KINDS[kind]
    obj = data.draw(strategy)
    text = dumps(to_document(obj))
    parse = parse_input_document if kind in documents.SURFACE_KINDS else parse_patch_document
    assert json.loads(text)["kind"] == kind
    assert parse(text) == obj
    assert parse_any_document(text) == obj
