"""Model-file ingestion and canonical serialization.

The interchange format is JSON with a fixed schema tag; every number is an
exact integer quadruple {num, den, inum, iden} encoding num/den + (inum/iden)i,
so no floating point can enter a model file.  Serialization is canonical
(sorted keys, fixed separators, stable entry order), and parse -> serialize
is byte-identical on canonical files.

Parsing is strict and takes one pass over the decoded JSON.  Every node gets
one structural test: its type, and for an object its exact key set (or keys
within the allowed ones and including the required ones).  Unknown fields
are rejected and every refusal carries the JSON path of the offending field.
The path is not formatted on the way down: a node's path is passed as the
parts it is made of (see ``_at``), and only a node that fails its test is
looked at again, by a refusal helper that names its first bad field (an
unknown field before a missing one, then the fields in schema order) and
formats the path.  A value on the unit that the constructors would refuse
(a product that breaks the unit law, a nonzero differential, anchor or
dhat on the unit) is refused at its entry.  Names resolve through
{name: index} maps, and the words of a tensor are sorted by ``_sort_word``
inside the weight cap, each tuple of letter names once per parse, so the
tensors are built without the checks of the public constructors.  No
coefficient is made term by term: every list of {basis, coeff} entries is
added to a coefficient accumulator as unreduced triples (``_add_terms``,
``scalars.Sums``), a tensor's word with its sort sign, and each
coefficient is reduced once, when its element is made, a module value or a
tensor by the one finisher of a coefficient table
(``algebra._reduced_values``).  A geometric model is built on the
``SplitFrame`` its tensors were parsed over, so it keeps them as they are
and builds its substitution derivations only when a check reads them.
The model constructor refuses a tensor that breaks its family's row,
which is refused at $.tensors; a refusal of a constructor is a
``KitError``, and any other exception there is a fault of the kit, not of
the file, and is not made a ParseError.
"""

from __future__ import annotations

import json
from typing import Any, Dict, NoReturn, Optional, Sequence, Tuple, Union

from .algebra import AlgebraElement, BaseAlgebra, _reduced_values, breaks_unit_law
from .algebroid import AlgebroidStructure
from .errors import DegreeError, KitError, ParseError
from .geometry import TENSOR_FAMILIES, GeometricModel, SplitFrame, TensorFamily
from .modules import FreeModule, ModuleElement
from .scalars import Coefficients, Scalar, Sums, _reduced_items
from .signs import _sort_word
from .symtensor import SymAlgebra, SymElement, Word, _sym_element

SCHEMA = "algebroidkit/1"


# ---------------------------------------------------------------------------
# strict traversal helpers
# ---------------------------------------------------------------------------

# A JSON path as passed down the traversal: a str is path text, an int the
# index of a list entry, and a tuple the concatenation of its parts, e.g.
# ("$.base.products", 3, ".terms") for $.base.products[3].terms.
JsonPath = Union[str, int, tuple]


def _at(path: JsonPath) -> str:
    """The text of a JSON path."""
    if type(path) is str:
        return path
    if type(path) is int:
        return f"[{path}]"
    return "".join(_at(part) for part in path)


def _refuse(message: str, path: JsonPath) -> NoReturn:
    raise ParseError(message, _at(path))


def _keys(*names: str):
    """The fields of one kind of object, in schema order, as a set-like view:
    ``node.keys() == fields`` is the exact-key test."""
    return dict.fromkeys(names).keys()


_SCALAR = _keys("num", "den", "inum", "iden")
_TERM = _keys("basis", "coeff")
_NAMED = _keys("name", "degree")
_PRODUCT = _keys("left", "right", "terms")
_BASE_DIFFERENTIAL = _keys("basis", "terms")
_MODULE_TERM = _keys("generator", "terms")
_MODULE_DIFFERENTIAL = _keys("generator", "value")
_WORD = _keys("word", "terms")
_BRACKET = _keys("arity", "args", "value")
_ANCHOR = _keys("arity", "args", "on", "terms")
_CAPS = _keys("weight", "arity")
_BASE = _keys("basis", "unit", "products", "differential")
_MODULE = _keys("generators", "differential")
_TOP = _keys(
    "schema", "kind", "caps", "base", "carrier", "brackets", "anchors", "tangent", "normal", "tensors", "closed_beta"
)

_NO_BASIS = "no basis element named {!r}"
_NO_GENERATOR = "no generator named {!r}"
_NO_LETTER = "unknown letter {!r}"


def _object(value, path: JsonPath, fields, required: Optional[Sequence[str]] = None) -> dict:
    """value, if it is an object whose fields are among fields and include
    required (by default all of fields); otherwise the refusal of its first
    fault: not an object, else its first unknown field in file order, else
    its first missing field in schema order.  A loop over many entries tests
    the key set itself and calls this only when that test fails."""
    if type(value) is not dict:
        _refuse("expected an object", path)
    for key in value:
        if key not in fields:
            _refuse(f"unknown field {key!r}", path)
    for key in fields if required is None else required:
        if key not in value:
            _refuse(f"missing field {key!r}", path)
    return value


def _list(value, path: JsonPath) -> list:
    if type(value) is not list:
        _refuse("expected a list", path)
    return value


def _str(value, path: JsonPath) -> str:
    if type(value) is not str:
        _refuse("expected a string", path)
    return value


def _int(value, path: JsonPath) -> int:
    # a JSON true or false is a bool, which this test refuses
    if type(value) is not int:
        _refuse("expected an integer", path)
    return value


def _name(index: Dict[str, int], value, path: JsonPath, unknown: str) -> int:
    """The index of the name value; a value that is not a string, or not a
    key of index (refused with the message unknown, formatted with it), is
    refused at path."""
    i = index.get(value) if type(value) is str else None
    if i is None:
        _refuse(unknown.format(_str(value, path)), path)
    return i


def _names(index: Dict[str, int], values, path: JsonPath, unknown: str) -> list:
    """The indices of the list of names values; the first bad one is
    refused at its entry of path."""
    try:
        return [index[name] for name in _list(values, path)]
    except (KeyError, TypeError):  # an unknown or unhashable name
        return [_name(index, name, (path, m), unknown) for m, name in enumerate(values)]


def _refuse_scalar(value, path: JsonPath) -> NoReturn:
    """The refusal of a {num, den, inum, iden} node that ``_add_terms``
    rejects: the wrong type or fields, a non-integer or a zero denominator."""
    _object(value, path, _SCALAR)
    for key in _SCALAR:
        _int(value[key], (path, "." + key))
    _refuse("zero denominator", path)


def _scalar_dict(s: Scalar) -> dict:
    return s.as_quadruple()


# ---------------------------------------------------------------------------
# algebra / module sections
# ---------------------------------------------------------------------------


def _add_terms(out: Optional[Sums], value, path: JsonPath, index: Dict[str, int], sign: int) -> None:
    """out += sign times the list of {basis, coeff} entries value, as
    unreduced triples, so no Scalar is made; a repeated basis element adds
    up.  With out None the entries are only checked.  The quadruple
    num/den + (inum/iden)i is the triple (num iden + inum den i) / (den iden),
    its denominator made positive; it is added to out as
    ``scalars._add_multiple`` adds a term, written out here since a parsed
    term has no Scalar to multiply by."""
    for k, item in enumerate(_list(value, path)):
        if type(item) is not dict or item.keys() != _TERM:
            _object(item, (path, k), _TERM)
        name = item["basis"]
        idx = index.get(name) if type(name) is str else None
        if idx is None:
            _name(index, name, (path, k, ".basis"), _NO_BASIS)
        coeff = item["coeff"]
        if type(coeff) is not dict or coeff.keys() != _SCALAR:
            _refuse_scalar(coeff, (path, k, ".coeff"))
        num, den, inum, iden = coeff["num"], coeff["den"], coeff["inum"], coeff["iden"]
        if not (type(num) is int and type(den) is int and type(inum) is int and type(iden) is int and den and iden):
            _refuse_scalar(coeff, (path, k, ".coeff"))
        if out is not None:
            d = den * iden
            t = -sign if d < 0 else sign
            n_re, n_im, d = t * num * iden, t * inum * den, abs(d)
            old = out.get(idx)
            if old is None:
                out[idx] = [n_re, n_im, d]
            elif old[2] == d:
                old[0] += n_re
                old[1] += n_im
            else:
                e = old[2]
                old[0] = old[0] * d + n_re * e
                old[1] = old[1] * d + n_im * e
                old[2] = e * d


def _parse_terms(value, path: JsonPath, index: Dict[str, int]) -> Dict[int, Scalar]:
    """{basis index: nonzero coefficient} of a list of {basis, coeff} entries."""
    out: Sums = {}
    _add_terms(out, value, path, index, 1)
    return dict(_reduced_items(out))


def _terms_list(a: AlgebraElement) -> list:
    names = a.algebra.names
    return [
        {"basis": names[i], "coeff": _scalar_dict(c)} for i, c in a.items()
    ]


def _parse_named(value, path: str) -> list:
    """The (name, degree) pairs of a list of {name, degree} entries."""
    out = []
    for k, item in enumerate(_list(value, path)):
        if type(item) is not dict or item.keys() != _NAMED:
            _object(item, (path, k), _NAMED)
        out.append((_str(item["name"], (path, k, ".name")), _int(item["degree"], (path, k, ".degree"))))
    return out


def _parse_base(value, path: str) -> Tuple[BaseAlgebra, Dict[str, int]]:
    """The base algebra and its {basis name: index} map."""
    d = _object(value, path, _BASE, ("basis", "unit", "products"))
    basis = _parse_named(d["basis"], f"{path}.basis")
    index = {name: i for i, (name, _) in enumerate(basis)}
    if len(index) != len(basis):
        _refuse("duplicate basis names", f"{path}.basis")
    unit_name = _str(d["unit"], f"{path}.unit")
    unit = index.get(unit_name)
    if unit is None:
        _refuse(f"unit {unit_name!r} is not a basis element", f"{path}.unit")
    if basis[unit][1] != 0:
        _refuse("unit must have degree 0", f"{path}.unit")
    products: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    at = f"{path}.products"
    for k, item in enumerate(_list(d["products"], at)):
        if type(item) is not dict or item.keys() != _PRODUCT:
            _object(item, (at, k), _PRODUCT)
        left = _name(index, item["left"], (at, k, ".left"), _NO_BASIS)
        right = _name(index, item["right"], (at, k, ".right"), _NO_BASIS)
        if (left, right) in products:
            _refuse(f"duplicate entry for product {item['left']!r} * {item['right']!r}", (at, k))
        terms = products[(left, right)] = _parse_terms(item["terms"], (at, k, ".terms"), index)
        if breaks_unit_law(unit, left, right, terms):
            _refuse(f"product {item['left']!r} * {item['right']!r} breaks the unit law", (at, k))
    differential: Dict[int, Dict[int, Scalar]] = {}
    at = f"{path}.differential"
    for k, item in enumerate(_list(d.get("differential", []), at)):
        if type(item) is not dict or item.keys() != _BASE_DIFFERENTIAL:
            _object(item, (at, k), _BASE_DIFFERENTIAL)
        idx = _name(index, item["basis"], (at, k, ".basis"), _NO_BASIS)
        if idx in differential:
            _refuse(f"duplicate entry for basis {item['basis']!r}", (at, k))
        differential[idx] = _parse_terms(item["terms"], (at, k, ".terms"), index)
        if idx == unit and differential[idx]:
            _refuse(f"differential of the unit {unit_name!r} is not zero", (at, k))
    return BaseAlgebra(basis, unit=unit, products=products, differential=differential), index


def _base_dict(base: BaseAlgebra) -> dict:
    products = []
    for i in range(base.dim):
        for j in range(base.dim):
            val = base.product_basis(i, j)
            if base.unit in (i, j) or val.is_zero():  # the unit law is the default
                continue
            products.append(
                {"left": base.names[i], "right": base.names[j], "terms": _terms_list(val)}
            )
    differential = []
    for i in range(base.dim):
        di = base.differential_basis(i)
        if not di.is_zero():
            differential.append({"basis": base.names[i], "terms": _terms_list(di)})
    out = {
        "basis": [
            {"name": n, "degree": d} for n, d in zip(base.names, base.degrees)
        ],
        "unit": base.names[base.unit],
        "products": products,
    }
    if differential:
        out["differential"] = differential
    return out


def _parse_module_value(
    value, path: JsonPath, module: FreeModule, index: Dict[str, int], base_index: Dict[str, int]
) -> ModuleElement:
    """A module element from a list of {generator, terms} entries; index maps
    the generator names, so every key of the table is a generator."""
    sums: Coefficients = {}
    for k, item in enumerate(_list(value, path)):
        if type(item) is not dict or item.keys() != _MODULE_TERM:
            _object(item, (path, k), _MODULE_TERM)
        idx = _name(index, item["generator"], (path, k, ".generator"), _NO_GENERATOR)
        _add_terms(sums.setdefault(idx, {}), item["terms"], (path, k, ".terms"), base_index, 1)
    return ModuleElement._made(module, _reduced_values(module.base, sums))


def _module_value_list(v: ModuleElement) -> list:
    names = v.module.gen_names
    return [
        {"generator": names[i], "terms": _terms_list(a)} for i, a in v.items()
    ]


def _parse_module(
    value, path: str, base: BaseAlgebra, base_index: Dict[str, int], name: str
) -> Tuple[FreeModule, Dict[str, int]]:
    """The free module and its {generator name: index} map."""
    d = _object(value, path, _MODULE, ("generators",))
    gens = _parse_named(d["generators"], f"{path}.generators")
    index = {n: i for i, (n, _) in enumerate(gens)}
    if len(index) != len(gens):
        _refuse("duplicate generator names", f"{path}.generators")
    module = FreeModule(base, gens, name=name)
    differential = {}
    at = f"{path}.differential"
    for k, item in enumerate(_list(d.get("differential", []), at)):
        if type(item) is not dict or item.keys() != _MODULE_DIFFERENTIAL:
            _object(item, (at, k), _MODULE_DIFFERENTIAL)
        idx = _name(index, item["generator"], (at, k, ".generator"), _NO_GENERATOR)
        if idx in differential:
            _refuse(f"duplicate entry for generator {item['generator']!r}", (at, k))
        differential[idx] = _parse_module_value(item["value"], (at, k, ".value"), module, index, base_index)
    module.set_differential(differential)
    return module, index


def _module_dict(module: FreeModule) -> dict:
    out: Dict[str, Any] = {
        "generators": [
            {"name": n, "degree": d} for n, d in zip(module.gen_names, module.degrees)
        ]
    }
    differential = []
    for i in range(module.rank):
        dv = module.differential_basis(i)
        if not dv.is_zero():
            differential.append(
                {"generator": module.gen_names[i], "value": _module_value_list(dv)}
            )
    if differential:
        out["differential"] = differential
    return out


# ---------------------------------------------------------------------------
# sym elements
# ---------------------------------------------------------------------------


def _word(names, path: JsonPath, alg: SymAlgebra, letter_index: Dict[str, int]) -> Optional[Tuple[Word, int]]:
    """The sorted word of a list of letter names of alg and its sort sign
    exponent (``_sort_word``), None for a word with a repeated odd letter; a
    word over the cap is refused."""
    word = _names(letter_index, names, path, _NO_LETTER)
    if len(word) > alg.cap:
        _refuse(f"word of weight {len(word)} overflows the weight cap {alg.cap}", path)
    return _sort_word(alg.letter_degrees, word)


def _parse_sym(
    value,
    path: JsonPath,
    alg: SymAlgebra,
    letter_index: Dict[str, int],
    words: Dict[tuple, Optional[Tuple[Word, int]]],
    base_index: Dict[str, int],
) -> SymElement:
    """An element of alg from a list of {word, terms} entries; letter_index
    maps alg's letter names.  Each word is resolved, checked against the cap
    and sorted by ``_word`` once per parse: words keeps what it gave for each
    tuple of names met.  A word with a repeated odd letter is zero, but its
    terms are checked.  The terms of each sorted word are summed as
    unreduced triples in one accumulator, the sort sign on each, so no
    Scalar is made per term; each coefficient is reduced once, when the
    element is made."""
    acc: Coefficients = {}
    for k, item in enumerate(_list(value, path)):
        if type(item) is not dict or item.keys() != _WORD:
            _object(item, (path, k), _WORD)
        names = item["word"]
        key = tuple(names) if type(names) is list else names
        try:
            merged = words[key]
        except (KeyError, TypeError):  # not met before, or not a list of names
            merged = words[key] = _word(names, (path, k, ".word"), alg, letter_index)
        if merged is None:  # a repeated odd letter: the word is zero
            _add_terms(None, item["terms"], (path, k, ".terms"), base_index, 1)
            continue
        w, exponent = merged
        out = acc.get(w)
        if out is None:
            out = acc[w] = {}
        _add_terms(out, item["terms"], (path, k, ".terms"), base_index, -1 if exponent & 1 else 1)
    return _sym_element(alg, _reduced_values(alg.base, acc))


def _sym_list(el: SymElement) -> list:
    names = el.algebra.letter_names
    return [
        {"word": [names[i] for i in w], "terms": _terms_list(a)}
        for w, a in sorted(el.items())
    ]


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def _parse_family(
    value, path: str, fam: TensorFamily, frame: SplitFrame, words: dict, base_index: Dict[str, int]
) -> dict:
    """The tables of one tensor family ({k: table} for a weighted one); an
    entry repeating an index (at the same weight) is refused.  words[values
    algebra] keeps the sorted words of ``_parse_sym`` for every family with
    values there."""
    key = fam.key
    fields = _keys("weight", key, "value") if fam.weighted else _keys(key, "value")
    names, _ = frame.index_set(fam)
    position = {name: i for i, name in enumerate(names)}
    alg = frame.values_algebra(fam)
    letter_index = {name: i for i, name in enumerate(alg.letter_names)}
    memo = words.setdefault(alg, {})
    least = fam.weight
    tables: Dict[int, Dict[int, SymElement]] = {}
    for k, item in enumerate(_list(value, path)):
        if type(item) is not dict or item.keys() != fields:
            _object(item, (path, k), fields)
        weight = least
        if fam.weighted:
            weight = _int(item["weight"], (path, k, ".weight"))
            if weight > frame.cap:
                _refuse(f"curvature weight {weight} overflows the weight cap {frame.cap}", (path, k, ".weight"))
            if weight < least:
                _refuse(f"curvature weight {weight} is below the least weight {least}", (path, k, ".weight"))
        name = item[key]
        i = position.get(name) if type(name) is str else None
        if i is None:
            name = _str(name, (path, k, "." + key))
            if key == "basis":
                problem = _NO_BASIS.format(name)
            elif name in frame.amb.letter_names:
                problem = f"{fam.name} is indexed by {fam.index} letters"
            else:
                problem = _NO_LETTER.format(name)
            _refuse(problem, (path, k, "." + key))
        table = tables.setdefault(weight, {})
        if i in table:
            at_weight = f" at weight {weight}" if fam.weighted else ""
            _refuse(f"duplicate entry for {key} {name!r}{at_weight}", (path, k))
        value = table[i] = _parse_sym(item["value"], (path, k, ".value"), alg, letter_index, memo, base_index)
        if key == "basis" and i == frame.base.unit and not value.is_zero():
            _refuse(f"{fam.name} on the unit {name!r} is not zero", (path, k))
    return tables if fam.weighted else tables.get(least, {})


def _family_list(g: GeometricModel, fam: TensorFamily) -> list:
    """The entries of one tensor family, sorted by weight and index; zero
    tensors are left out."""
    names, _ = g.index_set(fam)
    out = []
    for k, table in sorted(g.weight_tables(fam).items()):
        for i in sorted(table):
            if not table[i].is_zero():
                entry = {fam.key: names[i], "value": _sym_list(table[i])}
                if fam.weighted:
                    entry["weight"] = k
                out.append(entry)
    return out


def parse_model(
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
    d = _object(raw, "$", _TOP, ("schema", "kind", "caps", "base"))
    schema = _str(d["schema"], "$.schema")
    if schema != SCHEMA:
        _refuse(f"unsupported schema {schema!r}", "$.schema")
    kind = _str(d["kind"], "$.kind")
    caps = _object(d["caps"], "$.caps", _CAPS)
    weight_cap = _int(caps["weight"], "$.caps.weight")
    arity_cap = _int(caps["arity"], "$.caps.arity")
    if weight_override is not None:
        weight_cap = weight_override
    if arity_override is not None:
        arity_cap = arity_override
    if weight_cap < 0 or arity_cap < 1:
        _refuse("caps out of range", "$.caps")
    base, base_index = _parse_base(d["base"], "$.base")

    if kind == "algebroid":
        for forbidden in ("tangent", "normal", "tensors", "closed_beta"):
            if forbidden in d:
                _refuse(f"field {forbidden!r} not allowed for kind=algebroid", "$")
        if "carrier" not in d:
            _refuse("missing field 'carrier'", "$")
        carrier, index = _parse_module(d["carrier"], "$.carrier", base, base_index, "L")
        S = AlgebroidStructure(base, carrier, bracket_cap=arity_cap)
        seen = set()  # canonical keys: a reordered tuple names the same entry
        for k, item in enumerate(_list(d.get("brackets", []), "$.brackets")):
            if type(item) is not dict or item.keys() != _BRACKET:
                _object(item, ("$.brackets", k), _BRACKET)
            n = _int(item["arity"], ("$.brackets", k, ".arity"))
            args = _names(index, item["args"], ("$.brackets", k, ".args"), _NO_GENERATOR)
            if len(args) != n:
                _refuse("args length does not match arity", ("$.brackets", k))
            key = ("bracket", *sorted(args))
            if key in seen:
                _refuse(f"duplicate entry for bracket args {item['args']}", ("$.brackets", k))
            seen.add(key)
            value = _parse_module_value(item["value"], ("$.brackets", k, ".value"), carrier, index, base_index)
            try:
                S.set_bracket(n, tuple(args), value)
            except KitError as exc:
                raise ParseError(str(exc), _at(("$.brackets", k))) from None
        for k, item in enumerate(_list(d.get("anchors", []), "$.anchors")):
            if type(item) is not dict or item.keys() != _ANCHOR:
                _object(item, ("$.anchors", k), _ANCHOR)
            n = _int(item["arity"], ("$.anchors", k, ".arity"))
            args = _names(index, item["args"], ("$.anchors", k, ".args"), _NO_GENERATOR)
            if len(args) != n - 1:
                _refuse("anchor args must have arity-1 entries", ("$.anchors", k))
            bidx = _name(base_index, item["on"], ("$.anchors", k, ".on"), _NO_BASIS)
            key = ("anchor", bidx, *sorted(args))
            if key in seen:
                _refuse(f"duplicate entry for anchor args {item['args']} on {item['on']!r}", ("$.anchors", k))
            seen.add(key)
            value = AlgebraElement(base, _parse_terms(item["terms"], ("$.anchors", k, ".terms"), base_index))
            try:
                S.set_anchor(n, tuple(args), bidx, value)
            except KitError as exc:
                raise ParseError(str(exc), _at(("$.anchors", k))) from None
        degree_problems = S.degree_problems()
        if degree_problems:
            _refuse("; ".join(degree_problems[:3]), "$")
        return S

    if kind == "geometric":
        for forbidden in ("carrier", "brackets", "anchors"):
            if forbidden in d:
                _refuse(f"field {forbidden!r} not allowed for kind=geometric", "$")
        for required in ("tangent", "normal"):
            if required not in d:
                _refuse(f"missing field {required!r}", "$")
        tangent, _ = _parse_module(d["tangent"], "$.tangent", base, base_index, "Tm")
        normal, _ = _parse_module(d["normal"], "$.normal", base, base_index, "Nm")
        # the ambient frame is split: its letters are the tangent ones, then
        # the normal ones, so a letter name may name only one of them
        for k, name in enumerate(normal.gen_names):
            if name in tangent.gen_names:
                _refuse(
                    f"normal generator {name!r} has the name of a tangent generator",
                    f"$.normal.generators[{k}].name",
                )
        closed = d.get("closed_beta", False)
        if type(closed) is not bool:
            _refuse("closed_beta must be a boolean", "$.closed_beta")
        frame = SplitFrame(base, tangent, normal, cap=weight_cap)
        tensors = _object(d.get("tensors", {}), "$.tensors", [fam.name for fam in TENSOR_FAMILIES], ())
        words: dict = {}
        tables = {
            fam.name: _parse_family(tensors.get(fam.name, []), f"$.tensors.{fam.name}", fam, frame, words, base_index)
            for fam in TENSOR_FAMILIES
        }
        try:
            return GeometricModel(frame, closed_beta=closed, **tables)
        except DegreeError as exc:  # a tensor that breaks its family's row
            raise ParseError(str(exc), "$.tensors") from None
        except KitError as exc:
            raise ParseError(str(exc), "$") from None

    _refuse(f"unknown kind {kind!r}", "$.kind")


def serialize_model(obj: Union[GeometricModel, AlgebroidStructure]) -> str:
    """Canonical JSON text for a model object."""
    if isinstance(obj, AlgebroidStructure):
        doc = {
            "schema": SCHEMA,
            "kind": "algebroid",
            "caps": {"weight": obj.bracket_cap, "arity": obj.bracket_cap},
            "base": _base_dict(obj.base),
            "carrier": _module_dict(obj.carrier),
        }
        brackets = []
        for n in sorted(obj.brackets):
            for key in sorted(obj.brackets[n]):
                brackets.append(
                    {
                        "arity": n,
                        "args": [obj.carrier.gen_names[i] for i in key],
                        "value": _module_value_list(obj.brackets[n][key]),
                    }
                )
        if brackets:
            doc["brackets"] = brackets
        anchors = []
        for n in sorted(obj.anchors):
            for key, bidx in sorted(obj.anchors[n]):
                anchors.append(
                    {
                        "arity": n,
                        "args": [obj.carrier.gen_names[i] for i in key],
                        "on": obj.base.names[bidx],
                        "terms": _terms_list(obj.anchors[n][(key, bidx)]),
                    }
                )
        if anchors:
            doc["anchors"] = anchors
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    g = obj
    doc = {
        "schema": SCHEMA,
        "kind": "geometric",
        "caps": {"weight": g.cap, "arity": g.cap},
        "base": _base_dict(g.base),
        "tangent": _module_dict(g.tangent),
        "normal": _module_dict(g.normal),
    }
    if g.closed_beta:
        doc["closed_beta"] = True
    tensors = {fam.name: _family_list(g, fam) for fam in TENSOR_FAMILIES}
    tensors = {name: entries for name, entries in tensors.items() if entries}
    if tensors:
        doc["tensors"] = tensors
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
