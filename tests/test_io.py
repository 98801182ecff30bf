import json

import numpy as np
import pytest

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


def test_load_params_top_level_not_object(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
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
