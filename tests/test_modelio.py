"""Model-file parsing, canonical serialization, strictness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from algebroidkit.algebroid import AlgebroidStructure
from algebroidkit.errors import ParseError
from algebroidkit.fixtures import fixture_corpus, write_fixture_corpus
from algebroidkit.geometry import GeometricModel, duality_residual
from algebroidkit.modelio import parse_model, serialize_model


@pytest.fixture(scope="module")
def corpus():
    return fixture_corpus()


def test_round_trip_byte_identity(corpus):
    for name, obj in corpus.items():
        text = serialize_model(obj)
        parsed = parse_model(text)
        again = serialize_model(parsed)
        assert again == text, name


def test_parse_preserves_duality(corpus):
    g = parse_model(serialize_model(corpus["generic.geometric"]))
    assert isinstance(g, GeometricModel)
    assert duality_residual(g) == {}


def test_parse_algebroid_tables(corpus):
    S0 = corpus["conjugated.algebroid"]
    S = parse_model(serialize_model(S0))
    assert isinstance(S, AlgebroidStructure)
    assert set(S.brackets) == set(S0.brackets)
    for n in S.brackets:
        assert S.brackets[n].keys() == S0.brackets[n].keys()


def test_unknown_top_level_field_rejected(corpus):
    doc = json.loads(serialize_model(corpus["trivial.geometric"]))
    doc["extra"] = 1
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    assert "extra" in str(err.value)


def test_unknown_nested_field_rejected(corpus):
    doc = json.loads(serialize_model(corpus["trivial.geometric"]))
    doc["base"]["surprise"] = []
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    assert "surprise" in str(err.value) and "$.base" in str(err.value)


def test_bad_scalar_rejected_with_location(corpus):
    doc = json.loads(serialize_model(corpus["rank1_curved.geometric"]))
    entry = doc["tensors"]["curv_perp"][0]["value"][0]["terms"][0]
    entry["coeff"] = {"num": 1, "den": 0, "inum": 0, "iden": 1}
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    assert "denominator" in str(err.value)
    assert "curv_perp" in str(err.value)


def test_float_coefficient_rejected(corpus):
    doc = json.loads(serialize_model(corpus["rank1_curved.geometric"]))
    entry = doc["tensors"]["curv_perp"][0]["value"][0]["terms"][0]
    entry["coeff"] = {"num": 0.5, "den": 1, "inum": 0, "iden": 1}
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    assert "integer" in str(err.value)


def test_deeply_nested_json_rejected():
    with pytest.raises(ParseError) as err:
        parse_model("[" * 100_000)
    assert "invalid JSON" in str(err.value)


def test_integer_past_digit_limit_rejected(corpus):
    doc = json.loads(serialize_model(corpus["rank1_curved.geometric"]))
    entry = doc["tensors"]["curv_perp"][0]["value"][0]["terms"][0]
    entry["coeff"]["num"] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', "1" * 5000)
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "invalid JSON" in str(err.value)


def test_shipped_fixtures_match_generator(tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "fixtures"
    written = [Path(p) for p in write_fixture_corpus(str(tmp_path))]
    assert sorted(p.name for p in written) == sorted(p.name for p in shipped.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (shipped / path.name).read_bytes(), path.name


def test_truncated_file_gives_location():
    with pytest.raises(ParseError) as err:
        parse_model('{"schema": "algebroidkit/1", "kind": ')
    assert "line" in str(err.value)


def test_unsupported_schema():
    with pytest.raises(ParseError):
        parse_model(json.dumps({"schema": "other/9", "kind": "geometric", "caps": {"weight": 4, "arity": 4}, "base": {}}))


def test_unknown_generator_in_bracket(corpus):
    doc = json.loads(serialize_model(corpus["conjugated.algebroid"]))
    doc["brackets"][0]["args"][0] = "nope"
    with pytest.raises(Exception):
        parse_model(json.dumps(doc))


def test_cap_override():
    text = serialize_model(fixture_corpus()["generic.geometric"])
    g = parse_model(text, weight_override=5)
    assert g.cap == 5
    # lowering the cap below stored data is a cap overflow, not silent loss
    with pytest.raises(ParseError) as err:
        parse_model(text, weight_override=2)
    assert "cap" in str(err.value)
