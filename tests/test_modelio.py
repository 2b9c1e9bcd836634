"""Model-file parsing, canonical serialization, strictness."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algebroidkit.algebroid import AlgebroidStructure
from algebroidkit.algebra import BaseAlgebra
from algebroidkit import modelio, scalars
from algebroidkit.errors import DegreeError, ParseError
from algebroidkit.fixtures import (
    fixture_corpus,
    kodaira_base,
    lambda_eps,
    nontrivial_dga,
    random_geometric_model,
    write_fixture_corpus,
)
from algebroidkit.geometry import TENSOR_FAMILIES, GeometricModel, duality_residual
from algebroidkit.modelio import parse_model, serialize_model
from algebroidkit.scalars import Scalar
from builders import Rng
from modelio_oracle import oracle_parse_model, put_value_on_unit


@pytest.fixture(scope="module")
def corpus():
    return fixture_corpus()


def test_round_trip_byte_identity(corpus):
    for name, obj in corpus.items():
        text = serialize_model(obj)
        parsed = parse_model(text)
        again = serialize_model(parsed)
        assert again == text, name


@pytest.mark.parametrize(
    "degrees", [([0, 1], [0, -1]), ([0, 1, 0], [0, -1, 0, -1]), ([-1, 1], [1, 1, 0]), ([1], [1])]
)
@pytest.mark.parametrize("base", [kodaira_base, nontrivial_dga, lambda_eps])
@given(
    seed=st.integers(0, 2**16),
    cap=st.integers(2, 5),
    families=st.sets(st.sampled_from([fam.name for fam in TENSOR_FAMILIES])),
)
def test_generated_models_round_trip_byte_identically(base, degrees, seed, cap, families):
    """serialize o parse is the identity on the text of random models over
    any subset of the tensor families."""
    g = random_geometric_model(
        Rng(seed), base(), *degrees, cap=cap, families=tuple(families), seed_modules=seed
    )
    text = serialize_model(g)
    assert serialize_model(parse_model(text)) == text


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


# SHA-256 of the generated benchmark models' text: a change in the draws of
# ``random_geometric_model`` shows here and not only at the benchmark's gate.
GENERATED_SHA256 = {
    ("gen_a2_b3_w5.geometric", 0): "281ec340a5f4f096ba0a186a16932c804f4ec797bbfcd1c08f7ff20dd5a3d0e9",
    ("gen_a2_b3_w5.geometric", 5): "237d81c00f7a7b9bf08fa48a53ec238a6f923a13d902e527b413bd3f930bb57b",
    ("gen_a3_b4_w5.geometric", 0): "d6805a4219163ba0a2a56a73c5c59f608fff9f788c5ed1ac4a416f9fa02d37ef",
    ("gen_a3_b4_w5.geometric", 5): "610a13a8689111107df1f11e0dc26b3bf835f8f2c640ad502641befe7a47b3a2",
}


def test_generated_models_are_pinned(workloads):
    assert {(name, seed) for name in workloads.GENERATED for seed in (0, 5)} == set(GENERATED_SHA256)
    for (name, seed), digest in GENERATED_SHA256.items():
        text = workloads.generate_model_text(name, seed)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (name, seed)


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


# -- per-family parse errors -------------------------------------------------------

GENERIC = Path(__file__).resolve().parent.parent / "fixtures" / "generic.geometric.json"

# One single-fault mutation per tensor family and fault of the shipped
# ``generic`` model: (family, fault) -> (path under "tensors", new value,
# message, JSON path of the refusal).
TENSOR_FAULTS = {
    ("dhat", "unknown-name"): (
        ("dhat", 0, "basis"), "zz", "no basis element named 'zz'", "$.tensors.dhat[0].basis"
    ),
    ("dhat", "index-set"): (
        ("dhat", 0, "basis"), "t0^", "no basis element named 't0^'", "$.tensors.dhat[0].basis"
    ),
    ("dhat", "weight-cap"): (
        ("dhat", 0, "value", 0, "word"), ["t0^"] * 5,
        "word of weight 5 overflows the weight cap 4", "$.tensors.dhat[0].value[0].word",
    ),
    ("dhat", "bidegree"): (
        ("dhat", 0, "value", 0, "word"), ["n0^"], "dhat[e] has a word of bidegree (0, 1)", "$.tensors"
    ),
    ("dhat", "degree"): (
        ("dhat", 0, "value", 0, "word"), ["t1^"], "dhat[e] has degree 0, expected 1", "$.tensors"
    ),
    ("gamma", "unknown-name"): (
        ("gamma", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.gamma[0].letter"
    ),
    ("gamma", "index-set"): (
        ("gamma", 0, "letter"), "t0^", "gamma is indexed by normal letters", "$.tensors.gamma[0].letter"
    ),
    ("gamma", "weight-cap"): (
        ("gamma", 0, "value", 0, "word"), ["t0^"] + ["n0^"] * 4,
        "word of weight 5 overflows the weight cap 4", "$.tensors.gamma[0].value[0].word",
    ),
    ("gamma", "bidegree"): (
        ("gamma", 0, "value", 0, "word"), ["n0^", "n0^"],
        "gamma[0] has a word of bidegree (0, 2)", "$.tensors",
    ),
    ("gamma", "degree"): (
        ("gamma", 1, "value", 0, "terms", 0, "basis"), "x", "gamma[1] has degree 0, expected 1", "$.tensors"
    ),
    ("beta", "unknown-name"): (
        ("beta", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.beta[0].letter"
    ),
    ("beta", "index-set"): (
        ("beta", 0, "letter"), "n0^", "beta is indexed by tangent letters", "$.tensors.beta[0].letter"
    ),
    ("beta", "weight-cap"): (
        ("beta", 0, "value", 0, "word"), ["n0^"] * 5,
        "word of weight 5 overflows the weight cap 4", "$.tensors.beta[0].value[0].word",
    ),
    ("beta", "bidegree"): (
        ("beta", 0, "value", 0, "word"), ["t0^"], "unknown letter 't0^'", "$.tensors.beta[0].value[0].word[0]"
    ),
    ("beta", "degree"): (
        ("beta", 0, "value", 0, "terms", 0, "basis"), "e", "beta[1] has degree 1, expected 0", "$.tensors"
    ),
    ("beta", "weight"): (
        ("beta", 0, "value", 0, "word"), ["n0^", "n0^"],
        "beta[1] has weights [2]", "$.tensors",
    ),
    ("shape", "unknown-name"): (
        ("shape", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.shape[0].letter"
    ),
    ("shape", "index-set"): (
        ("shape", 0, "letter"), "n0^", "shape is indexed by tangent letters", "$.tensors.shape[0].letter"
    ),
    ("shape", "weight-cap"): (
        ("shape", 0, "value", 0, "word"), ["t0^"] + ["n0^"] * 4,
        "word of weight 5 overflows the weight cap 4", "$.tensors.shape[0].value[0].word",
    ),
    ("shape", "bidegree"): (
        ("shape", 0, "value", 0, "word"), ["n0^", "n0^"],
        "shape[0] has a word of bidegree (0, 2)", "$.tensors",
    ),
    ("shape", "degree"): (
        ("shape", 0, "value", 0, "terms", 0, "basis"), "x*e", "shape[0] is not homogeneous", "$.tensors"
    ),
    ("conn_tan", "unknown-name"): (
        ("conn_tan", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.conn_tan[0].letter"
    ),
    ("conn_tan", "index-set"): (
        ("conn_tan", 0, "letter"), "n0^", "conn_tan is indexed by tangent letters", "$.tensors.conn_tan[0].letter"
    ),
    ("conn_tan", "weight-cap"): (
        ("conn_tan", 0, "value", 0, "word"), ["t0^"] * 5,
        "word of weight 5 overflows the weight cap 4", "$.tensors.conn_tan[0].value[0].word",
    ),
    ("conn_tan", "bidegree"): (
        ("conn_tan", 0, "value", 0, "word"), ["t0^", "n0^"],
        "conn_tan[0] has a word of bidegree (1, 1)", "$.tensors",
    ),
    ("conn_tan", "degree"): (
        ("conn_tan", 0, "value", 0, "terms", 0, "basis"), "e",
        "conn_tan[0] has degree 1, expected 0", "$.tensors",
    ),
    ("second_form", "unknown-name"): (
        ("second_form", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.second_form[0].letter"
    ),
    ("second_form", "index-set"): (
        ("second_form", 0, "letter"), "t0^",
        "second_form is indexed by normal letters", "$.tensors.second_form[0].letter",
    ),
    ("second_form", "weight-cap"): (
        ("second_form", 0, "value", 0, "word"), ["t0^"] * 5,
        "word of weight 5 overflows the weight cap 4", "$.tensors.second_form[0].value[0].word",
    ),
    ("second_form", "bidegree"): (
        ("second_form", 0, "value", 0, "word"), ["t0^", "n0^"],
        "second_form[0] has a word of bidegree (1, 1)", "$.tensors",
    ),
    ("second_form", "degree"): (
        ("second_form", 0, "value", 0, "terms", 0, "basis"), "e",
        "second_form[0] has degree 1, expected 0", "$.tensors",
    ),
    ("curv_perp", "unknown-name"): (
        ("curv_perp", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.curv_perp[0].letter"
    ),
    ("curv_perp", "index-set"): (
        ("curv_perp", 0, "letter"), "t0^", "curv_perp is indexed by normal letters", "$.tensors.curv_perp[0].letter"
    ),
    ("curv_perp", "weight-cap"): (
        ("curv_perp", 0, "weight"), 5,
        "curvature weight 5 overflows the weight cap 4", "$.tensors.curv_perp[0].weight",
    ),
    ("curv_perp", "bidegree"): (
        ("curv_perp", 0, "value", 0, "word"), ["t0^", "n0^", "n0^", "n0^"],
        "unknown letter 't0^'", "$.tensors.curv_perp[0].value[0].word[0]",
    ),
    ("curv_perp", "degree"): (
        ("curv_perp", 0, "value", 0, "terms", 0, "basis"), "1",
        "curv_perp[4][0] has degree 0, expected 1", "$.tensors",
    ),
    ("curv_perp", "weight"): (
        ("curv_perp", 0, "weight"), 3, "curv_perp[3][0] has weights [4]", "$.tensors"
    ),
    ("curv_perp", "weight-below-2"): (
        ("curv_perp", 0, "weight"), 1,
        "curvature weight 1 is below the least weight 2", "$.tensors.curv_perp[0].weight",
    ),
    ("curv_perp", "weight-0"): (
        ("curv_perp", 0, "weight"), 0,
        "curvature weight 0 is below the least weight 2", "$.tensors.curv_perp[0].weight",
    ),
    ("curv_tan", "unknown-name"): (
        ("curv_tan", 0, "letter"), "zz", "unknown letter 'zz'", "$.tensors.curv_tan[0].letter"
    ),
    ("curv_tan", "index-set"): (
        ("curv_tan", 0, "letter"), "n0^", "curv_tan is indexed by tangent letters", "$.tensors.curv_tan[0].letter"
    ),
    ("curv_tan", "weight-cap"): (
        ("curv_tan", 0, "weight"), 5,
        "curvature weight 5 overflows the weight cap 4", "$.tensors.curv_tan[0].weight",
    ),
    ("curv_tan", "bidegree"): (
        ("curv_tan", 0, "value", 0, "word"), ["t0^", "n0^"],
        "unknown letter 't0^'", "$.tensors.curv_tan[0].value[0].word[0]",
    ),
    ("curv_tan", "degree"): (
        ("curv_tan", 0, "value", 0, "terms", 0, "basis"), "x",
        "curv_tan[2][0] has degree 0, expected 1", "$.tensors",
    ),
    ("curv_tan", "weight"): (
        ("curv_tan", 1, "weight"), 3, "curv_tan[3][1] has weights [2]", "$.tensors"
    ),
    ("curv_tan", "weight-below-2"): (
        ("curv_tan", 1, "weight"), 1,
        "curvature weight 1 is below the least weight 2", "$.tensors.curv_tan[1].weight",
    ),
}


def _with_tensor(path, value) -> str:
    """The generic model's text with doc["tensors"][path] set to value."""
    doc = json.loads(GENERIC.read_text())
    slot = doc["tensors"]
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("case", sorted(TENSOR_FAULTS), ids="/".join)
def test_tensor_fault_message_and_path(case):
    path, value, message, location = TENSOR_FAULTS[case]
    with pytest.raises(ParseError) as err:
        parse_model(_with_tensor(path, value))
    assert (str(err.value), err.value.location) == (f"{message} (at {location})", location)


@pytest.mark.parametrize(
    "case", sorted(case for case, fault in TENSOR_FAULTS.items() if fault[3] == "$.tensors"), ids="/".join
)
def test_model_constructor_refuses_a_tensor_fault_with_the_parser_text(case, monkeypatch):
    """The constructor enforces the family rows: handed the tensors that the
    parser reads from a file with a row fault, it refuses them with the text
    the parser gives at $.tensors."""
    path, value, message, _ = TENSOR_FAULTS[case]
    captured = {}

    def capture(*args, **kwargs):
        captured.update(args=args, kwargs=kwargs)
        raise RuntimeError("arguments captured")

    monkeypatch.setattr(modelio, "GeometricModel", capture)
    with pytest.raises(ParseError):
        parse_model(_with_tensor(path, value))
    with pytest.raises(DegreeError) as err:
        GeometricModel(*captured["args"], **captured["kwargs"])
    assert str(err.value) == message


# -- duplicate entries ----------------------------------------------------------------


def _refusal(doc) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse_model(json.dumps(doc))
    return err.value


def test_duplicate_tensor_entries_refused():
    # curv_tan[0] moved from weight 2 to 3 collides with the (3, t0^) entry
    doc = json.loads(GENERIC.read_text())
    assert [(e["weight"], e["letter"]) for e in doc["tensors"]["curv_tan"]][:3] == [
        (2, "t0^"), (2, "t1^"), (3, "t0^")
    ]
    doc["tensors"]["curv_tan"][0]["weight"] = 3
    err = _refusal(doc)
    assert (str(err), err.location) == (
        "duplicate entry for letter 't0^' at weight 3 (at $.tensors.curv_tan[2])", "$.tensors.curv_tan[2]"
    )
    for family, key in (("gamma", "letter"), ("dhat", "basis")):
        doc = json.loads(GENERIC.read_text())
        entries = doc["tensors"][family]
        entries.append(entries[0])
        err = _refusal(doc)
        assert str(err) == (
            f"duplicate entry for {key} {entries[0][key]!r} (at $.tensors.{family}[{len(entries) - 1}])"
        )


def test_duplicate_bracket_and_anchor_entries_refused(corpus):
    # a reordered tuple has the same canonical key
    doc = json.loads(serialize_model(corpus["perturbed.algebroid"]))
    assert doc["brackets"][0]["args"] == ["g0", "g0", "g1"]
    doc["brackets"].append({**doc["brackets"][0], "args": ["g1", "g0", "g0"]})
    err = _refusal(doc)
    assert (str(err), err.location) == (
        "duplicate entry for bracket args ['g1', 'g0', 'g0'] (at $.brackets[1])", "$.brackets[1]"
    )

    doc = json.loads(serialize_model(corpus["abelian.algebroid"]))
    doc["anchors"] = [
        {"arity": 3, "args": ["g0", "g1"], "on": "x", "terms": []},
        {"arity": 3, "args": ["g0", "g1"], "on": "e", "terms": []},
        {"arity": 3, "args": ["g1", "g0"], "on": "x", "terms": []},
    ]
    err = _refusal(doc)
    assert (str(err), err.location) == (
        "duplicate entry for anchor args ['g1', 'g0'] on 'x' (at $.anchors[2])", "$.anchors[2]"
    )


def test_algebroid_degree_faults_refused_with_the_degree_texts(corpus):
    """A bracket or anchor entry of the wrong degree, or of mixed degrees, is
    refused at $ with the two degree texts that every degree check writes."""
    one = {"den": 1, "iden": 1, "inum": 0, "num": 1}
    doc = json.loads(serialize_model(corpus["conjugated.algebroid"]))
    assert doc["brackets"][0]["args"] == ["g0", "g0", "g0"]
    terms = doc["brackets"][0]["value"][0]["terms"]
    assert [t["basis"] for t in terms] == ["x*e"]
    terms.append({"basis": "x", "coeff": one})
    assert str(_refusal(doc)) == "bracket 3 at (0, 0, 0) is not homogeneous (at $)"
    del terms[0]
    assert str(_refusal(doc)) == "bracket 3 at (0, 0, 0) has degree 0, expected 1 (at $)"

    doc = json.loads(serialize_model(corpus["abelian.algebroid"]))
    doc["anchors"] = [{"arity": 2, "args": ["g0"], "on": "x", "terms": [{"basis": "1", "coeff": one}]}]
    assert str(_refusal(doc)) == "anchor 2 at (0,)|x has degree 0, expected 1 (at $)"


def test_duplicate_algebra_and_module_entries_refused():
    cases = {
        "$.base.products": ("base", "products"),
        "$.base.differential": ("base", "differential"),
        "$.tangent.differential": ("tangent", "differential"),
    }
    for path, (section, field) in cases.items():
        doc = json.loads(GENERIC.read_text())
        entries = doc[section][field]
        entries.append(entries[0])
        err = _refusal(doc)
        assert err.location == f"{path}[{len(entries) - 1}]"
        assert str(err).startswith("duplicate entry for ")


def test_splitting_field_refused():
    """A model is written in its split frame, so a ``splitting`` field is an
    unknown field, for either kind of model."""
    for path in (GENERIC, GENERIC.parent / "abelian.algebroid.json"):
        doc = json.loads(path.read_text())
        doc["splitting"] = {"iota": [], "p": [], "tau": [], "rho": []}
        err = _refusal(doc)
        assert (str(err), err.location) == ("unknown field 'splitting' (at $)", "$"), path


def test_normal_generator_named_like_a_tangent_generator_refused():
    """The ambient letters are the tangent letters, then the normal ones, so
    a name may not stand for one of each."""
    for path in sorted(GENERIC.parent.glob("*.geometric.json")):
        text = path.read_text()
        doc = json.loads(text)
        tangent = [g["name"] for g in doc["tangent"]["generators"]]
        for k in range(len(doc["normal"]["generators"])):
            for name in tangent:
                doc = json.loads(text)
                doc["normal"]["generators"][k]["name"] = name
                err = _refusal(doc)
                at = f"$.normal.generators[{k}].name"
                assert (str(err), err.location) == (
                    f"normal generator {name!r} has the name of a tangent generator (at {at})", at
                ), (path.name, k, name)


def test_a_geometric_parse_builds_one_model(monkeypatch, workloads):
    """The tensor families are parsed against the model's split frame, not
    against a probe model, so each geometric parse runs the GeometricModel
    constructor once."""
    calls = []
    init = GeometricModel.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GeometricModel, "__init__", counted)
    texts = [path.read_text() for path in sorted(GENERIC.parent.glob("*.geometric.json"))]
    texts += [workloads.generate_model_text(name, 0) for name in sorted(workloads.GENERATED)]
    assert len(texts) == 7
    for text in texts:
        calls.clear()
        assert isinstance(parse_model(text), GeometricModel)
        assert len(calls) == 1


def test_a_parse_builds_one_base_algebra(monkeypatch, workloads):
    """Base names are resolved through a {name: index} map, so a parse builds
    the base algebra once, with no probe algebra before it."""
    calls = []
    init = BaseAlgebra.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BaseAlgebra, "__init__", counted)
    texts = [path.read_text() for path in sorted(GENERIC.parent.glob("*.json"))]
    texts += [workloads.generate_model_text(name, 0) for name in sorted(workloads.GENERATED)]
    assert len(texts) == 10
    for text in texts:
        calls.clear()
        parse_model(text)
        assert len(calls) == 1


def test_parsed_tensors_live_on_the_model_algebras():
    """A parsed geometric model's tensors, given ones and zero fill alike, are
    elements of the model's own ambient or normal algebra, not of the
    parser's split-frame twins."""
    paths = sorted(GENERIC.parent.glob("*.geometric.json"))
    assert len(paths) == 5
    for path in paths:
        g = parse_model(path.read_text())
        for fam in TENSOR_FAMILIES:
            alg = g.values_algebra(fam)
            for table in g.weight_tables(fam).values():
                assert all(el.algebra is alg for el in table.values()), (path.name, fam.name)
        assert g.gamma[0].algebra is g.amb and g.beta[0].algebra is g.nor, path.name


# -- the single-pass parser against the former traversal -------------------------
#
# ``oracle_parse_model`` (tests/modelio_oracle.py) is the parser as it was
# before the single pass.  On every document below and on single mutations of
# it, both parsers must refuse with the same message and location, or accept
# with byte-equal canonical output.


def _oracle_documents():
    docs = {path.name: path.read_text() for path in sorted(GENERIC.parent.glob("*.json"))}
    for seed, (tangent, normal) in enumerate([((0, 1), (0, -1, 0)), ((0, 1, 0), (0, -1, 0, -1))]):
        g = random_geometric_model(Rng(seed), kodaira_base(), tangent, normal, cap=4, seed_modules=seed)
        docs[f"random_{len(tangent)}x{len(normal)}"] = serialize_model(g)
    docs["random_3x4_vanishing_words"] = _with_extra_words(docs["random_3x4"], _VANISHING_WORDS)
    for name in ("random_3x4", "generic.geometric.json"):
        docs[name.split(".")[0] + "_noncanonical"] = _noncanonical(docs[name], seed=43)
    return docs


def _noncanonical(text: str, seed: int) -> str:
    """The model of text written the long way, term by term and word by word
    as a seeded rng picks: quadruples unreduced, with a negative den, or
    with negative den and iden; a term split into two halves on its basis
    element; a word entry split into two entries of half the terms; and
    words listed in reverse order, their terms negated where the reversal
    moves an odd number of pairs of odd letters past each other."""
    doc = json.loads(text)
    rng = random.Random(seed)
    odd = {g["name"] + "^" for side in ("tangent", "normal") for g in doc[side]["generators"] if g["degree"] % 2}

    def half(q):
        return {**q, "den": 2 * q["den"], "iden": 2 * q["iden"]}

    def halves(terms):
        return [{"basis": t["basis"], "coeff": half(t["coeff"])} for t in terms]

    for entries in doc["tensors"].values():
        for entry in entries:
            value = []
            for item in entry["value"]:
                terms = []
                for term in item["terms"]:
                    q, kind = term["coeff"], rng.randrange(5)
                    if kind == 0:
                        q = {"num": 3 * q["num"], "den": 3 * q["den"], "inum": 5 * q["inum"], "iden": 5 * q["iden"]}
                    elif kind == 1:
                        q = {**q, "num": -q["num"], "den": -q["den"]}
                    elif kind == 2:
                        q = {"num": -q["num"], "den": -q["den"], "inum": -q["inum"], "iden": -q["iden"]}
                    elif kind == 3:
                        q = half(q)
                        terms.append({"basis": term["basis"], "coeff": q})
                    terms.append({"basis": term["basis"], "coeff": q})
                word = item["word"]
                if len(word) > 1 and rng.random() < 0.5:
                    word = word[::-1]
                    o = sum(name in odd for name in word)
                    if o * (o - 1) // 2 % 2:
                        terms = [{"basis": t["basis"], "coeff": {**t["coeff"], "num": -t["coeff"]["num"],
                                                                 "inum": -t["coeff"]["inum"]}} for t in terms]
                if rng.random() < 0.3:
                    terms = halves(terms)
                    value.append({"word": word, "terms": terms})
                value.append({"word": word, "terms": terms})
            entry["value"] = value
    return json.dumps(doc)


# Words of the normal letters n1^ and n3^, both odd, added to the first
# curv_perp value of random_3x4: one word listed in both letter orders, whose
# sort signs cancel its coefficient, and a word repeating an odd letter.
# Both vanish, so the document parses to random_3x4.
_VANISHING_WORDS = (["n1^", "n3^"], ["n3^", "n1^"], ["n1^", "n1^"])


def _with_extra_words(text: str, words) -> str:
    """text with one entry per word added to its first curv_perp value, each
    with the terms of that value's first entry."""
    doc = json.loads(text)
    value = doc["tensors"]["curv_perp"][0]["value"]
    terms = value[0]["terms"]
    value.extend({"word": list(word), "terms": copy.deepcopy(terms)} for word in words)
    return json.dumps(doc)


ORACLE_DOCUMENTS = _oracle_documents()

_NAME_FIELDS = ("basis", "letter", "generator", "left", "right", "on", "unit")


def _nodes(doc):
    """(container, key, value) for every node below the root, depth first."""
    out = []

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            out.append((node, key, value))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    return out


def _other_type(rng, value):
    """A JSON value of another type than value; a bool half the time for an int."""
    if type(value) is int and rng.random() < 0.5:
        return rng.choice([True, False])
    return rng.choice([v for v in ([], {}, "zz", 7, True, None, 1.5) if type(v) is not type(value)])


def _mutate(rng, doc, kind) -> bool:
    """Apply one mutation of the given kind to doc in place; False if doc has
    no node it applies to."""
    nodes = _nodes(doc)
    objects = [doc] + [v for _, _, v in nodes if isinstance(v, dict)]
    if kind == "drop-key":
        node = rng.choice([o for o in objects if o])
        del node[rng.choice(sorted(node))]
    elif kind == "unknown-key":
        rng.choice(objects)["zz"] = 0
    elif kind == "wrong-type":
        node, key, value = rng.choice(nodes)
        node[key] = _other_type(rng, value)
    elif kind == "zero-denominator":
        scalars = [o for o in objects if "den" in o]
        if not scalars:
            return False
        rng.choice(scalars)[rng.choice(["den", "iden"])] = 0
    elif kind == "unknown-name":
        names = [
            (node, key) for node, key, value in nodes
            if isinstance(value, str) and (key in _NAME_FIELDS or isinstance(node, list))
        ]
        node, key = rng.choice(names)
        node[key] = rng.choice(["zz", "x", "t0^", "n0^", "g0", "1"])
    elif kind == "word-over-cap":
        words = [v for node, key, v in nodes if key == "word"]
        if not words:
            return False
        word = rng.choice(words)
        letters = list(word) or [rng.choice([v for _, key, v in nodes if key == "letter"] or ["zz"])]
        word.extend(letters[i % len(letters)] for i in range(doc["caps"]["weight"] + 1 - len(word)))
    elif kind == "duplicate-entry":
        lists = [v for _, _, v in nodes if isinstance(v, list) and v and isinstance(v[0], dict)]
        entries = rng.choice(lists)
        entries.append(copy.deepcopy(rng.choice(entries)))
    elif kind == "bad-weight":
        node = rng.choice([n for n, key, _ in nodes if key == "weight"])
        node["weight"] = rng.choice([-1, 0, 1, 2, 3, 5, 6])
    elif kind == "value-on-unit":
        where = rng.choice(["products", "differential", "anchors" if doc["kind"] == "algebroid" else "dhat"])
        put_value_on_unit(doc, where, rng.choice)
    return True


def _outcome(parse, text):
    try:
        return serialize_model(parse(text))
    except ParseError as err:
        return ("refused", str(err), err.location)


MUTATIONS = (
    "drop-key", "unknown-key", "wrong-type", "zero-denominator",
    "unknown-name", "word-over-cap", "duplicate-entry", "bad-weight", "value-on-unit",
)


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", sorted(ORACLE_DOCUMENTS))
def test_parser_matches_the_former_traversal(name, kind):
    text = ORACLE_DOCUMENTS[name]
    assert _outcome(parse_model, text) == _outcome(oracle_parse_model, text) == serialize_model(parse_model(text))
    rng = random.Random(f"{name}/{kind}")
    refused = 0
    for _ in range(8):
        doc = json.loads(text)
        if not _mutate(rng, doc, kind):
            return
        mutated = json.dumps(doc)
        got = _outcome(parse_model, mutated)
        assert got == _outcome(oracle_parse_model, mutated), mutated
        refused += isinstance(got, tuple)
    if kind == "value-on-unit":  # no file may hold one
        assert refused == 8
    if kind not in ("duplicate-entry", "bad-weight", "wrong-type"):
        assert refused, "no mutation was refused"


def test_words_whose_sort_signs_cancel_or_that_repeat_an_odd_letter_vanish():
    """Each word's terms are summed with its sort sign before the word becomes
    an element: n1^ n3^ and n3^ n1^ with equal terms cancel, and so does
    n1^ n1^ on its own; the even letters n0^ n2^ listed in both orders add up
    instead."""
    plain = ORACLE_DOCUMENTS["random_3x4"]
    want = serialize_model(parse_model(plain))
    assert serialize_model(parse_model(ORACLE_DOCUMENTS["random_3x4_vanishing_words"])) == want
    for words in (_VANISHING_WORDS[:2], _VANISHING_WORDS[2:]):
        assert serialize_model(parse_model(_with_extra_words(plain, words))) == want
    twice = parse_model(_with_extra_words(plain, [["n0^", "n2^"], ["n2^", "n0^"]])).curv_perp[2][0]
    first = parse_model(plain).curv_perp[2][0]
    assert (0, 2) not in first.data
    assert twice.data[(0, 2)].coeffs == first.data[(0, 0)].scale(Scalar(2)).coeffs


def test_noncanonical_words_and_quadruples_parse_to_the_canonical_model():
    """Unreduced quadruples, negative denominators, a basis element twice in
    a word, a word twice in a value and unsorted words with odd letters are
    summed to the model they write the long way."""
    for name, plain in (("random_3x4", ORACLE_DOCUMENTS["random_3x4"]),
                        ("generic", ORACLE_DOCUMENTS["generic.geometric.json"])):
        text = ORACLE_DOCUMENTS[f"{name}_noncanonical"]
        doc = json.loads(text)
        letters = [g for side in ("tangent", "normal") for g in doc[side]["generators"]]
        position = {g["name"] + "^": k for k, g in enumerate(letters)}
        odd = {g["name"] + "^" for g in letters if g["degree"] % 2}
        values = [e["value"] for entries in doc["tensors"].values() for e in entries]
        words = [item for value in values for item in value]
        quadruples = [t["coeff"] for item in words for t in item["terms"]]
        assert any(q["den"] < 0 < q["iden"] for q in quadruples) and any(q["den"] < 0 > q["iden"] for q in quadruples)
        assert any(q["num"] % 3 == q["den"] % 3 == 0 != q["num"] for q in quadruples)
        assert any(len({t["basis"] for t in item["terms"]}) < len(item["terms"]) for item in words)
        assert any(len({json.dumps(item["word"]) for item in value}) < len(value) for value in values)
        assert any(
            sorted(item["word"], key=position.get) != item["word"] and len(odd.intersection(item["word"])) > 1
            for item in words
        )
        assert serialize_model(parse_model(text)) == serialize_model(parse_model(plain)), name


def test_each_coefficient_of_a_parsed_tensor_is_reduced_once(monkeypatch, workloads):
    """The terms of a word are summed as unreduced triples, so a ``_parse_sym``
    call makes at most one Scalar per nonzero coefficient of the element it
    returns: none per term, none for a sum of two Scalars, none for a word
    that vanishes.  On all 10 model files and the oracle documents, which
    repeat basis elements, words and odd letters."""
    made = []
    triple = scalars._triple
    init = Scalar.__init__

    def counting_triple(*args):
        made.append(args)
        return triple(*args)

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    # every name the package binds to the one Scalar factory
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("algebroidkit"):
            for name, value in list(vars(module).items()):
                if value is triple:
                    monkeypatch.setattr(module, name, counting_triple)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    parse_sym = modelio._parse_sym
    calls = []

    def counted(*args):
        before = len(made)
        el = parse_sym(*args)
        calls.append((len(made) - before, sum(len(a.coeffs) for _, a in el.items())))
        return el

    monkeypatch.setattr(modelio, "_parse_sym", counted)
    texts = [path.read_text() for path in sorted(GENERIC.parent.glob("*.json"))]
    texts += [workloads.generate_model_text(name, 0) for name in sorted(workloads.GENERATED)]
    assert len(texts) == 10
    for text in texts + list(ORACLE_DOCUMENTS.values()):
        parse_model(text)
    assert calls and all(scalars_made <= coefficients for scalars_made, coefficients in calls)
    assert sum(n for n, _ in calls) == sum(c for _, c in calls)


def _fault(rng, doc, node, key, fault) -> None:
    if fault == "drop":
        del node[key]
    elif fault == "type":
        node[key] = _other_type(rng, node[key])
    elif key == "word":
        node[key] = node[key] + ["n0^"] * (doc["caps"]["weight"] + 1)
    elif key in ("den", "iden"):
        node[key] = 0
    elif key == "weight":
        node[key] = rng.choice([-1, doc["caps"]["weight"] + 1])
    else:
        node[key] = "zz"


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_DOCUMENTS if n.endswith(".json")))
def test_parser_reports_the_same_first_of_two_faults(name):
    """Two faults in one object, of every kind of object in the document
    (the shipped files have every kind the generated ones have): both
    parsers report the same one first, so they check the fields of a node
    in the same order."""
    text = ORACLE_DOCUMENTS[name]
    doc = json.loads(text)
    kinds = {}
    for node in [doc] + [v for _, _, v in _nodes(doc) if isinstance(v, dict)]:
        kinds.setdefault(tuple(sorted(node)), []).append(node)
    rng = random.Random(name)
    for keys in sorted(kinds):
        spot = rng.randrange(len(kinds[keys]))
        for i, first in enumerate(keys):
            for second in keys[i + 1:]:
                for faults in itertools.product(("drop", "type", "value"), repeat=2):
                    doc = json.loads(text)
                    node = [v for v in [doc] + [v for _, _, v in _nodes(doc) if isinstance(v, dict)]
                            if tuple(sorted(v)) == keys][spot]
                    for key, fault in zip((first, second), faults):
                        _fault(rng, doc, node, key, fault)
                    if rng.random() < 0.5:
                        node["zz"] = 0
                    mutated = json.dumps(doc)
                    assert _outcome(parse_model, mutated) == _outcome(oracle_parse_model, mutated), mutated

def test_readme_tensor_table_matches_the_schema():
    def row(fam):
        index = f"`{fam.key}`: " + ("base element" if fam.index == "base" else fam.index)
        if fam.weighted:
            index = f"`weight` k >= {fam.weight}, {index}"
        m, n = fam.bidegree
        bidegree = f"({m}, {'k' if m == 0 else f'k - {m}'})" if fam.weighted else f"({m}, {n})"
        degree = f"index + {fam.shift}" if fam.shift else "index"
        return [f"`{fam.name}`", index, fam.values, bidegree, degree]

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| key | index field |"):].splitlines()
    table = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    assert table == [row(fam) for fam in TENSOR_FAMILIES]
