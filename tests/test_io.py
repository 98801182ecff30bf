import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from sepmix.errors import NonFiniteInput, ParseError, SchemaError
from sepmix.io import (
    load_params,
    load_partition,
    load_samples,
    save_params,
    save_partition,
    save_samples,
)
from sepmix.model import LabeledSampleSet, Mixture, make_gaussian, random_rotation


def test_samples_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(100, 5)) * np.pi  # irrational scale, full mantissas
    path = tmp_path / "s.csv"
    save_samples(path, pts)
    back, labels = load_samples(path)
    assert labels is None
    assert np.array_equal(back, pts)  # 17 significant digits round-trip exactly


def test_samples_round_trip_with_labels(tmp_path):
    pts = np.random.default_rng(1).normal(size=(30, 2))
    labels = np.random.default_rng(2).integers(0, 3, size=30)
    path = tmp_path / "s.csv"
    save_samples(path, LabeledSampleSet(points=pts, labels=labels))
    back_pts, back_labels = load_samples(path)
    assert np.array_equal(back_pts, pts)
    assert np.array_equal(back_labels, labels)


def test_samples_header_format(tmp_path):
    path = tmp_path / "s.csv"
    save_samples(path, np.zeros((2, 3)), labels=np.array([0, 1]))
    header = path.read_text().splitlines()[0]
    assert header == "dim_0,dim_1,dim_2,label"


def test_samples_special_values_round_trip(tmp_path):
    pts = np.array([[1e-300, 1e300], [-0.0, 123456789.123456789]])
    path = tmp_path / "s.csv"
    save_samples(path, pts)
    back, _ = load_samples(path)
    assert np.array_equal(back, pts)


def test_load_samples_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ParseError) as err:
        load_samples(path)
    assert err.value.line == 1


def test_load_samples_missing_coordinate(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("dim_0,dim_1\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        load_samples(path)
    assert err.value.line == 3


def test_load_samples_bad_float_names_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("dim_0,dim_1\n1.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_samples(path)
    assert err.value.line == 2
    assert err.value.column == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_load_samples_rejects_non_finite(tmp_path, token):
    path = tmp_path / "s.csv"
    path.write_text(f"dim_0,dim_1\n1.0,2.0\n3.0,{token}\n")
    with pytest.raises(NonFiniteInput, match="data row 2, column 2"):
        load_samples(path)


def test_load_samples_empty_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_samples(path)


def test_load_samples_no_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("dim_0\n")
    with pytest.raises(ParseError):
        load_samples(path)


def test_load_samples_reports_first_bad_field_in_file_order(tmp_path):
    # a bad label on line 3 comes before a bad coordinate on line 5; the
    # blank line 4 still counts
    path = tmp_path / "s.csv"
    path.write_text("dim_0,dim_1,label\n1,2,0\n3,4,x\n\n5,oops,1\n")
    with pytest.raises(ParseError, match="bad label 'x'") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (3, 3)
    path.write_text("dim_0,dim_1,label\n1,2,0\n\n5,oops,1\n3,4,x\n")
    with pytest.raises(ParseError, match="bad float 'oops'") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (4, 2)


@pytest.mark.parametrize(
    "label", ["99999999999999999999999", "9223372036854775808", "-9223372036854775809"]
)
def test_load_samples_label_beyond_int64(tmp_path, label):
    # the block cast overflows; the label is reported like any bad field,
    # in file order: after a bad coordinate on an earlier line, before one
    # on a later line
    path = tmp_path / "s.csv"
    path.write_text(f"dim_0,label\n1.0,0\n2.0,{label}\noops,1\n")
    with pytest.raises(ParseError, match=f"bad label '{label}'") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (3, 2)
    path.write_text(f"dim_0,label\noops,0\n2.0,{label}\n")
    with pytest.raises(ParseError, match="bad float 'oops'") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (2, 1)


def test_load_samples_label_at_the_int64_limits(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("dim_0,label\n1.0,9223372036854775807\n2.0,-9223372036854775808\n")
    _, labels = load_samples(path)
    assert labels.tolist() == [2**63 - 1, -(2**63)]


def _numbered_rows(count):
    return [f"{i}.5,{-i}.25,{i % 3}" for i in range(count)]


def test_load_samples_across_row_blocks(tmp_path):
    # more rows than one numpy cast takes; the fault order holds across casts
    path = tmp_path / "s.csv"
    rows = _numbered_rows(1000)
    path.write_text("dim_0,dim_1,label\n" + "\n".join(rows) + "\n")
    points, labels = load_samples(path)
    assert points.shape == (1000, 2)
    assert points[999].tolist() == [999.5, -999.25]
    assert labels.tolist() == [i % 3 for i in range(1000)]
    # a bad float on line 402 (in the second cast) before a short row
    rows[400] = "1.0,oops,0"
    rows[600] = "1.0,0"
    path.write_text("dim_0,dim_1,label\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="bad float") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (402, 2)
    # a short row right after a bad label in the same, unfinished cast
    rows[400] = "1.0,2.0,x"
    rows[401] = "1.0"
    path.write_text("dim_0,dim_1,label\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="bad label") as err:
        load_samples(path)
    assert (err.value.line, err.value.column) == (402, 3)
    # a non-finite value is reported only once every field has parsed
    rows[400], rows[401], rows[600] = "nan,1.0,0", "1.0,2.0,0", "1.0,2.0,0"
    rows[900] = "1.0,2.0,y"
    path.write_text("dim_0,dim_1,label\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="bad label 'y'"):
        load_samples(path)


def _csv_writer_save(path, points, labels=None):
    """The writer save_samples replaced: csv.writer over per-value strings."""
    header = [f"dim_{i}" for i in range(points.shape[1])]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(points):
            out = ["%.17g" % v for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            writer.writerow(out)


@pytest.mark.parametrize("with_labels", [False, True])
def test_save_samples_bytes_match_csv_writer(tmp_path, with_labels):
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(5000, 7)) * 10.0 ** rng.integers(-300, 300, (5000, 7))
    pts[0] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
              np.inf, np.nan]
    labels = rng.integers(0, 12, size=5000) if with_labels else None
    save_samples(tmp_path / "new.csv", pts, labels)
    _csv_writer_save(tmp_path / "old.csv", pts, labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    pts=arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    ),
    with_labels=st.booleans(),
)
def test_samples_round_trip_bit_exact(tmp_path_factory, pts, with_labels):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    labels = np.arange(pts.shape[0]) % 3 if with_labels else None
    save_samples(path, pts, labels)
    back, back_labels = load_samples(path)
    assert back.dtype == np.float64 and back.shape == pts.shape
    assert np.array_equal(back.view(np.int64), pts.view(np.int64))  # -0.0 too
    if with_labels:
        assert np.array_equal(back_labels, labels)
    else:
        assert back_labels is None


def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rot = random_rotation(3, rng)
    mix = Mixture(
        components=[
            make_gaussian(rng.normal(size=3), [1.0, 2.0, 3.0], rot),
            make_gaussian(rng.normal(size=3), [0.5, 0.5, 0.5]),
        ],
        weights=np.array([0.25, 0.75]),
    )
    path = tmp_path / "p.json"
    save_params(path, mix)
    back = load_params(path)
    assert back.k == 2
    assert np.array_equal(back.weights, mix.weights)
    for a, b in zip(back.components, mix.components):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.allclose(back.components[0].rotation, rot, atol=1e-15)
    assert back.components[1].rotation is None


def test_params_schema_matches_contract(tmp_path):
    mix = Mixture(
        components=[make_gaussian([0.0], [1.0])], weights=np.ones(1)
    )
    path = tmp_path / "p.json"
    save_params(path, mix)
    doc = json.loads(path.read_text())
    assert set(doc) == {"components"}
    assert set(doc["components"][0]) == {"weight", "center", "eigenvalues"}


def test_load_params_invalid_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_params(path)


def test_load_params_weights_must_sum_to_one(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "components": [
            {"weight": 0.5, "center": [0.0], "eigenvalues": [1.0]},
            {"weight": 0.4, "center": [1.0], "eigenvalues": [1.0]},
        ]
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_params(path)


def test_load_params_missing_key(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"components": [{"weight": 1.0, "center": [0.0]}]}))
    with pytest.raises(SchemaError) as err:
        load_params(path)
    assert "eigenvalues" in str(err.value)


def test_load_params_bad_eigenvalue(tmp_path):
    path = tmp_path / "p.json"
    doc = {"components": [{"weight": 1.0, "center": [0.0], "eigenvalues": [-1.0]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_params(path)


def test_load_params_bad_rotation(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "components": [
            {
                "weight": 1.0,
                "center": [0.0, 0.0],
                "eigenvalues": [1.0, 1.0],
                "rotation": [[1.0, 1.0], [0.0, 1.0]],
            }
        ]
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_params(path)


@pytest.mark.parametrize("field", ["weight", "center", "eigenvalues", "rotation"])
def test_load_params_rejects_non_finite_entries(tmp_path, field):
    # json reads NaN, so the schema check must refuse it
    entry = {
        "weight": 1.0,
        "center": [0.0, 0.0],
        "eigenvalues": [1.0, 1.0],
        "rotation": [[1.0, 0.0], [0.0, 1.0]],
    }
    if field == "weight":
        entry["weight"] = math.nan
    elif field == "rotation":
        entry["rotation"][0][0] = math.nan
    else:
        entry[field][0] = math.nan
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"components": [entry]}))
    with pytest.raises(SchemaError):
        load_params(path)


@pytest.mark.parametrize(
    "field, value",
    [("weight", [1.0]), ("weight", "one"), ("weight", "1.0"), ("weight", True),
     ("center", "abc"), ("center", {"x": 0.0}), ("eigenvalues", ["a", "b"])],
)
def test_load_params_rejects_entries_that_are_not_numbers(tmp_path, field, value):
    # each is a schema violation, not a bare TypeError or ValueError
    entry = {"weight": 1.0, "center": [0.0, 0.0], "eigenvalues": [1.0, 1.0]}
    entry[field] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"components": [entry]}))
    with pytest.raises(SchemaError):
        load_params(path)


def test_load_params_top_level_not_object(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
        load_params(path)


@pytest.mark.parametrize(
    "components", [[], {}, "abc", None], ids=["empty", "object", "string", "null"]
)
def test_load_params_components_not_a_nonempty_list(tmp_path, components):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"components": components}))
    with pytest.raises(SchemaError, match='"components" must be a nonempty list'):
        load_params(path)


def test_load_params_component_not_an_object(tmp_path):
    entry = {"weight": 0.5, "center": [0.0], "eigenvalues": [1.0]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"components": [entry, [0.5, [1.0], [1.0]]]}))
    with pytest.raises(SchemaError, match="component 1 is not an object"):
        load_params(path)


def test_partition_round_trip(tmp_path):
    labels = np.array([0, 2, 1, 1, 0])
    path = tmp_path / "part.csv"
    save_partition(path, labels)
    assert path.read_text().splitlines()[0] == "cluster"
    assert np.array_equal(load_partition(path), labels)


def test_load_partition_bad_value(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("cluster\n0\nx\n")
    with pytest.raises(ParseError) as err:
        load_partition(path)
    assert err.value.line == 3


def test_load_partition_id_beyond_int64(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("cluster\n0\n99999999999999999999999\nx\n")
    with pytest.raises(ParseError, match="bad cluster id '9{23}'") as err:
        load_partition(path)
    assert (err.value.line, err.value.column) == (3, 1)


def test_load_partition_skips_blank_lines(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("cluster\n0\n\n2\n\n1\n")
    assert load_partition(path).tolist() == [0, 2, 1]


@pytest.mark.parametrize(
    "text",
    ["", "label\n0\n", "cluster,x\n0,1\n"],
    ids=["empty", "wrong-name", "two-columns"],
)
def test_load_partition_bad_header(tmp_path, text):
    path = tmp_path / "part.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="is not \\['cluster'\\]") as err:
        load_partition(path)
    assert err.value.line == 1
