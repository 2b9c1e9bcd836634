"""The model-file parser as it stood before the single-pass rewrite, kept as
a test oracle: every node goes through the ``_expect_*`` helpers with its
JSON path formatted up front, the base names are resolved through a probe
``BaseAlgebra`` and every tensor is rebuilt by the public ``SymElement``
constructor.  ``oracle_parse_model(text)`` must refuse exactly what
``modelio.parse_model`` refuses, with the same message and location, and
accept exactly what it accepts.  That includes the four values on the unit
that are refused at their entry: a product with the unit that breaks the
unit law, a nonzero differential of the unit, a nonzero anchor on the unit
(refused by ``AlgebroidStructure.set_anchor``) and a nonzero dhat on the
unit."""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple, Union

from algebroidkit.algebra import AlgebraElement, BaseAlgebra
from algebroidkit.algebroid import AlgebroidStructure
from algebroidkit.errors import DegreeError, KitError, ParseError
from algebroidkit.geometry import TENSOR_FAMILIES, GeometricModel, SplitFrame, TensorFamily
from algebroidkit.modelio import SCHEMA
from algebroidkit.modules import FreeModule, ModuleElement
from algebroidkit.scalars import Scalar, _reduced, _triple
from algebroidkit.signs import _sort_word
from algebroidkit.symtensor import SymAlgebra, SymElement


def _expect_dict(value, path: str, allowed: Sequence[str], required: Sequence[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected an object", path)
    for key in value:
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", path)
    for key in required:
        if key not in value:
            raise ParseError(f"missing field {key!r}", path)
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected a list", path)
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError("expected a string", path)
    return value


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("expected an integer", path)
    return value


def _refuse_duplicate(earlier, key, what: str, path: str) -> None:
    """An entry whose key is among the keys of the entries before it is
    refused at path, instead of overwriting the earlier one."""
    if key in earlier:
        raise ParseError(f"duplicate entry for {what}", path)


def _index_of(space: Union[BaseAlgebra, FreeModule], value, path: str) -> int:
    """The index in space of the name given by the string at path; an unknown
    name is a ParseError at path."""
    name = _expect_str(value, path)
    if isinstance(space, BaseAlgebra):
        try:
            return space.index_of(name)
        except KitError as exc:
            raise ParseError(str(exc), path) from None
    if name not in space.gen_names:
        raise ParseError(f"no generator named {name!r}", path)
    return space.gen_names.index(name)


def _parse_scalar(value, path: str) -> Scalar:
    d = _expect_dict(value, path, ["num", "den", "inum", "iden"], ["num", "den", "inum", "iden"])
    for k in ("num", "den", "inum", "iden"):
        _expect_int(d[k], f"{path}.{k}")
    if d["den"] == 0 or d["iden"] == 0:
        raise ParseError("zero denominator", path)
    return scalar_from_quadruple(d)


def scalar_from_quadruple(q: dict) -> Scalar:
    """The Scalar num/den + (inum/iden) i of a {num, den, inum, iden}
    quadruple with nonzero denominators."""
    den, iden = q["den"], q["iden"]
    return _triple(*_reduced(q["num"] * iden, q["inum"] * den, den * iden))


def _parse_terms(value, path: str, base: BaseAlgebra) -> AlgebraElement:
    out: Dict[int, Scalar] = {}
    for k, item in enumerate(_expect_list(value, path)):
        d = _expect_dict(item, f"{path}[{k}]", ["basis", "coeff"], ["basis", "coeff"])
        idx = _index_of(base, d["basis"], f"{path}[{k}].basis")
        coeff = _parse_scalar(d["coeff"], f"{path}[{k}].coeff")
        old = out.get(idx)
        out[idx] = coeff if old is None else old + coeff
    return AlgebraElement(base, out)


def _parse_base(value, path: str) -> BaseAlgebra:
    d = _expect_dict(
        value, path, ["basis", "unit", "products", "differential"], ["basis", "unit", "products"]
    )
    basis = []
    for k, item in enumerate(_expect_list(d["basis"], f"{path}.basis")):
        e = _expect_dict(item, f"{path}.basis[{k}]", ["name", "degree"], ["name", "degree"])
        basis.append((_expect_str(e["name"], f"{path}.basis[{k}].name"),
                      _expect_int(e["degree"], f"{path}.basis[{k}].degree")))
    names = [n for n, _ in basis]
    if len(set(names)) != len(names):
        raise ParseError("duplicate basis names", f"{path}.basis")
    unit_name = _expect_str(d["unit"], f"{path}.unit")
    if unit_name not in names:
        raise ParseError(f"unit {unit_name!r} is not a basis element", f"{path}.unit")
    if basis[names.index(unit_name)][1] != 0:
        raise ParseError("unit must have degree 0", f"{path}.unit")
    probe = BaseAlgebra(basis, unit=names.index(unit_name), products={})
    products: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for k, item in enumerate(_expect_list(d["products"], f"{path}.products")):
        e = _expect_dict(item, f"{path}.products[{k}]", ["left", "right", "terms"], ["left", "right", "terms"])
        left = _index_of(probe, e["left"], f"{path}.products[{k}].left")
        right = _index_of(probe, e["right"], f"{path}.products[{k}].right")
        what = f"product {e['left']!r} * {e['right']!r}"
        _refuse_duplicate(products, (left, right), what, f"{path}.products[{k}]")
        val = _parse_terms(e["terms"], f"{path}.products[{k}].terms", probe)
        unit = probe.unit
        if unit in (left, right) and val != probe.basis_element(right if left == unit else left):
            raise ParseError(f"{what} breaks the unit law", f"{path}.products[{k}]")
        products[(left, right)] = dict(val.items())
    differential: Dict[int, Dict[int, Scalar]] = {}
    for k, item in enumerate(_expect_list(d.get("differential", []), f"{path}.differential")):
        e = _expect_dict(item, f"{path}.differential[{k}]", ["basis", "terms"], ["basis", "terms"])
        idx = _index_of(probe, e["basis"], f"{path}.differential[{k}].basis")
        _refuse_duplicate(differential, idx, f"basis {e['basis']!r}", f"{path}.differential[{k}]")
        val = _parse_terms(e["terms"], f"{path}.differential[{k}].terms", probe)
        if idx == probe.unit and not val.is_zero():
            raise ParseError(f"differential of the unit {unit_name!r} is not zero", f"{path}.differential[{k}]")
        differential[idx] = dict(val.items())
    return BaseAlgebra(basis, unit=names.index(unit_name), products=products, differential=differential)


def _parse_module_value(value, path: str, module: FreeModule) -> ModuleElement:
    out: Dict[int, AlgebraElement] = {}
    for k, item in enumerate(_expect_list(value, path)):
        d = _expect_dict(item, f"{path}[{k}]", ["generator", "terms"], ["generator", "terms"])
        idx = _index_of(module, d["generator"], f"{path}[{k}].generator")
        coeff = _parse_terms(d["terms"], f"{path}[{k}].terms", module.base)
        out[idx] = out.get(idx, module.base.zero()) + coeff
    return ModuleElement(module, out)


def _parse_module(value, path: str, base: BaseAlgebra, name: str) -> FreeModule:
    d = _expect_dict(value, path, ["generators", "differential"], ["generators"])
    gens = []
    for k, item in enumerate(_expect_list(d["generators"], f"{path}.generators")):
        e = _expect_dict(item, f"{path}.generators[{k}]", ["name", "degree"], ["name", "degree"])
        gens.append((_expect_str(e["name"], f"{path}.generators[{k}].name"),
                     _expect_int(e["degree"], f"{path}.generators[{k}].degree")))
    if len({n for n, _ in gens}) != len(gens):
        raise ParseError("duplicate generator names", f"{path}.generators")
    module = FreeModule(base, gens, name=name)
    differential = {}
    for k, item in enumerate(_expect_list(d.get("differential", []), f"{path}.differential")):
        e = _expect_dict(item, f"{path}.differential[{k}]", ["generator", "value"], ["generator", "value"])
        idx = _index_of(module, e["generator"], f"{path}.differential[{k}].generator")
        _refuse_duplicate(differential, idx, f"generator {e['generator']!r}", f"{path}.differential[{k}]")
        differential[idx] = _parse_module_value(e["value"], f"{path}.differential[{k}].value", module)
    module.set_differential(differential)
    return module


def _parse_sym(value, path: str, alg: SymAlgebra) -> SymElement:
    data: Dict[Tuple[int, ...], AlgebraElement] = {}
    letter_index = {n: i for i, n in enumerate(alg.letter_names)}
    for k, item in enumerate(_expect_list(value, path)):
        d = _expect_dict(item, f"{path}[{k}]", ["word", "terms"], ["word", "terms"])
        word = []
        for m, letter in enumerate(_expect_list(d["word"], f"{path}[{k}].word")):
            nm = _expect_str(letter, f"{path}[{k}].word[{m}]")
            if nm not in letter_index:
                raise ParseError(f"unknown letter {nm!r}", f"{path}[{k}].word[{m}]")
            word.append(letter_index[nm])
        if len(word) > alg.cap:
            raise ParseError(
                f"word of weight {len(word)} overflows the weight cap {alg.cap}",
                f"{path}[{k}].word",
            )
        coeff = _parse_terms(d["terms"], f"{path}[{k}].terms", alg.base)
        merged = _sort_word(alg.letter_degrees, word)
        if merged is None:  # a repeated odd letter: the word is zero
            continue
        w, exponent = merged
        if exponent & 1:
            coeff = -coeff
        old = data.get(w)
        data[w] = coeff if old is None else old + coeff
    return SymElement(alg, data)


def _parse_family(value, path: str, fam: TensorFamily, frame: SplitFrame) -> dict:
    """The tables of one tensor family ({k: table} for a weighted one); an
    entry repeating an index (at the same weight) is refused."""
    key = fam.key
    fields = (["weight"] if fam.weighted else []) + [key, "value"]
    names, _ = frame.index_set(fam)
    position = {name: i for i, name in enumerate(names)}
    alg = frame.values_algebra(fam)
    tables: Dict[int, Dict[int, SymElement]] = {}
    for k, item in enumerate(_expect_list(value, path)):
        at = f"{path}[{k}]"
        e = _expect_dict(item, at, fields, fields)
        weight = fam.weight
        if fam.weighted:
            weight = _expect_int(e["weight"], f"{at}.weight")
            if weight > frame.cap:
                raise ParseError(
                    f"curvature weight {weight} overflows the weight cap {frame.cap}", f"{at}.weight"
                )
            if weight < fam.weight:
                raise ParseError(
                    f"curvature weight {weight} is below the least weight {fam.weight}", f"{at}.weight"
                )
        name = _expect_str(e[key], f"{at}.{key}")
        if name not in position:
            if key == "basis":
                problem = f"no basis element named {name!r}"
            elif name in frame.amb.letter_names:
                problem = f"{fam.name} is indexed by {fam.index} letters"
            else:
                problem = f"unknown letter {name!r}"
            raise ParseError(problem, f"{at}.{key}")
        table = tables.setdefault(weight, {})
        at_weight = f" at weight {weight}" if fam.weighted else ""
        _refuse_duplicate(table, position[name], f"{key} {name!r}{at_weight}", at)
        table[position[name]] = value = _parse_sym(e["value"], f"{at}.value", alg)
        if fam.index == "base" and position[name] == frame.base.unit and not value.is_zero():
            raise ParseError(f"{fam.name} on the unit {name!r} is not zero", at)
    return tables if fam.weighted else tables.get(fam.weight, {})


def oracle_parse_model(
    text: str,
    weight_override: Optional[int] = None,
    arity_override: Optional[int] = None,
) -> Union[GeometricModel, AlgebroidStructure]:
    """Parse a model file; returns the validated object or raises ParseError.

    Cap overrides win over the caps recorded in the file.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    top_allowed = [
        "schema",
        "kind",
        "caps",
        "base",
        "carrier",
        "brackets",
        "anchors",
        "tangent",
        "normal",
        "tensors",
        "closed_beta",
    ]
    d = _expect_dict(raw, "$", top_allowed, ["schema", "kind", "caps", "base"])
    schema = _expect_str(d["schema"], "$.schema")
    if schema != SCHEMA:
        raise ParseError(f"unsupported schema {schema!r}", "$.schema")
    kind = _expect_str(d["kind"], "$.kind")
    caps = _expect_dict(d["caps"], "$.caps", ["weight", "arity"], ["weight", "arity"])
    weight_cap = _expect_int(caps["weight"], "$.caps.weight")
    arity_cap = _expect_int(caps["arity"], "$.caps.arity")
    if weight_override is not None:
        weight_cap = weight_override
    if arity_override is not None:
        arity_cap = arity_override
    if weight_cap < 0 or arity_cap < 1:
        raise ParseError("caps out of range", "$.caps")
    base = _parse_base(d["base"], "$.base")

    if kind == "algebroid":
        for forbidden in ("tangent", "normal", "tensors", "closed_beta"):
            if forbidden in d:
                raise ParseError(f"field {forbidden!r} not allowed for kind=algebroid", "$")
        if "carrier" not in d:
            raise ParseError("missing field 'carrier'", "$")
        carrier = _parse_module(d["carrier"], "$.carrier", base, "L")
        S = AlgebroidStructure(base, carrier, bracket_cap=arity_cap)
        seen = set()  # canonical keys: a reordered tuple names the same entry
        for k, item in enumerate(_expect_list(d.get("brackets", []), "$.brackets")):
            e = _expect_dict(item, f"$.brackets[{k}]", ["arity", "args", "value"], ["arity", "args", "value"])
            n = _expect_int(e["arity"], f"$.brackets[{k}].arity")
            args = [
                _index_of(carrier, x, f"$.brackets[{k}].args[{m}]")
                for m, x in enumerate(_expect_list(e["args"], f"$.brackets[{k}].args"))
            ]
            if len(args) != n:
                raise ParseError("args length does not match arity", f"$.brackets[{k}]")
            key = ("bracket", *sorted(args))
            _refuse_duplicate(seen, key, f"bracket args {e['args']}", f"$.brackets[{k}]")
            seen.add(key)
            value = _parse_module_value(e["value"], f"$.brackets[{k}].value", carrier)
            try:
                S.set_bracket(n, tuple(args), value)
            except Exception as exc:
                raise ParseError(str(exc), f"$.brackets[{k}]") from None
        for k, item in enumerate(_expect_list(d.get("anchors", []), "$.anchors")):
            e = _expect_dict(item, f"$.anchors[{k}]", ["arity", "args", "on", "terms"], ["arity", "args", "on", "terms"])
            n = _expect_int(e["arity"], f"$.anchors[{k}].arity")
            args = [
                _index_of(carrier, x, f"$.anchors[{k}].args[{m}]")
                for m, x in enumerate(_expect_list(e["args"], f"$.anchors[{k}].args"))
            ]
            if len(args) != n - 1:
                raise ParseError("anchor args must have arity-1 entries", f"$.anchors[{k}]")
            bidx = _index_of(base, e["on"], f"$.anchors[{k}].on")
            key = ("anchor", bidx, *sorted(args))
            _refuse_duplicate(seen, key, f"anchor args {e['args']} on {e['on']!r}", f"$.anchors[{k}]")
            seen.add(key)
            value = _parse_terms(e["terms"], f"$.anchors[{k}].terms", base)
            try:
                S.set_anchor(n, tuple(args), bidx, value)
            except Exception as exc:
                raise ParseError(str(exc), f"$.anchors[{k}]") from None
        degree_problems = S.degree_problems()
        if degree_problems:
            raise ParseError("; ".join(degree_problems[:3]), "$")
        return S

    if kind == "geometric":
        for forbidden in ("carrier", "brackets", "anchors"):
            if forbidden in d:
                raise ParseError(f"field {forbidden!r} not allowed for kind=geometric", "$")
        for required in ("tangent", "normal"):
            if required not in d:
                raise ParseError(f"missing field {required!r}", "$")
        tangent = _parse_module(d["tangent"], "$.tangent", base, "Tm")
        normal = _parse_module(d["normal"], "$.normal", base, "Nm")
        # the ambient frame is split: its letters are the tangent ones, then
        # the normal ones, so a letter name may name only one of them
        for k, name in enumerate(normal.gen_names):
            if name in tangent.gen_names:
                raise ParseError(
                    f"normal generator {name!r} has the name of a tangent generator",
                    f"$.normal.generators[{k}].name",
                )
        closed = d.get("closed_beta", False)
        if not isinstance(closed, bool):
            raise ParseError("closed_beta must be a boolean", "$.closed_beta")
        frame = SplitFrame(base, tangent, normal, cap=weight_cap)
        names = [fam.name for fam in TENSOR_FAMILIES]
        tensors = _expect_dict(d.get("tensors", {}), "$.tensors", names, [])
        tables = {
            fam.name: _parse_family(tensors.get(fam.name, []), f"$.tensors.{fam.name}", fam, frame)
            for fam in TENSOR_FAMILIES
        }
        try:
            return GeometricModel(frame, closed_beta=closed, **tables)
        except DegreeError as exc:  # the constructor's family-row check
            raise ParseError(str(exc), "$.tensors") from None
        except Exception as exc:
            raise ParseError(str(exc), "$") from None

    raise ParseError(f"unknown kind {kind!r}", "$.kind")



def put_value_on_unit(doc: dict, where: str, pick=lambda options: options[0]) -> Optional[str]:
    """Append to the model document doc one entry with a nonzero value on the
    unit, of the kind where: "products" (the unit times a basis element b is
    2b, breaking the unit law), "differential" (d_A(1) = b), "anchors"
    ({g|1}_2 = b) or "dhat" (dhat(1) = b.t^).  b is a basis element other
    than the unit, of the degree the value must have where there is one, so
    only the unit rule can refuse the entry; pick chooses among the options
    it is given (b, the unit's side of the product, g and t).  Returns the
    JSON path of the new entry, or None if doc's kind has no such field
    (anchors are algebroid fields, dhat a geometric one)."""
    base = doc["base"]
    unit = base["unit"]
    degree = {e["name"]: e["degree"] for e in base["basis"]}
    others = [name for name in degree if name != unit] or [unit]
    one = {"num": 1, "den": 1, "inum": 0, "iden": 1}

    def terms(want):
        return [{"basis": pick([b for b in others if degree[b] == want] or others), "coeff": one}]

    algebroid = doc["kind"] == "algebroid"
    if where == "products":
        b = pick(others)
        left, right = pick([(unit, b), (b, unit)])
        entries = base["products"]
        entries.append({"left": left, "right": right, "terms": [{"basis": b, "coeff": dict(one, num=2)}]})
        return f"$.base.products[{len(entries) - 1}]"
    if where == "differential":
        entries = base.setdefault("differential", [])
        entries.append({"basis": unit, "terms": terms(1)})
        return f"$.base.differential[{len(entries) - 1}]"
    if where == "anchors" and algebroid:
        g = pick(doc["carrier"]["generators"])
        entries = doc.setdefault("anchors", [])
        entries.append({"arity": 2, "args": [g["name"]], "on": unit, "terms": terms(g["degree"] + 1)})
        return f"$.anchors[{len(entries) - 1}]"
    if where == "dhat" and not algebroid:
        # dhat(1) has degree 0 and bidegree (1, 0), and t^ has the degree -|t|
        letters = doc["tangent"]["generators"]
        fitting = [t for t in letters if t["degree"] in map(degree.get, others)]
        t = pick(fitting or letters + doc["normal"]["generators"])
        entries = doc.setdefault("tensors", {}).setdefault("dhat", [])
        entries.append({"basis": unit, "value": [{"word": [t["name"] + "^"], "terms": terms(t["degree"])}]})
        return f"$.tensors.dhat[{len(entries) - 1}]"
    return None
