"""Builders for the rings the package ships with, ring constructors
(direct and free products) and the JSON ring-file loader."""

from __future__ import annotations

import itertools
import json
import weakref
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    AxiomViolation,
    DepthExceeded,
    MalformedFile,
    MalformedRing,
    NotAGroup,
    UnknownLabel,
)
from .central import GroupTable
from .ring import BasisElement, FusionRing, Memo, Support, validate_ring


# -------------------------------------------------------------- group rings


class GroupPresentationInput:  # hooked by qbench/tracer.py; goes with ROADMAP item 1's migration
    check = staticmethod(GroupTable.verify)


def group_ring(t: GroupTable) -> FusionRing:
    """The fusion ring of C*(Gamma): all dims 1, singleton group-law fusion,
    each element's dual its inverse."""
    t.verify()
    name = t.labels
    dual = {name[a]: name[row.index(t.identity)] for a, row in enumerate(t.mult)}
    fusion = {(name[a], name[b]): {name[c]: 1} for a, row in enumerate(t.mult)
              for b, c in enumerate(row)}
    return FusionRing.explicit([BasisElement(l, 1) for l in name], name[t.identity], dual,
                               fusion, name="group-ring")


def _group(names: Sequence[str], mul) -> GroupTable:
    """The group on `names`, the first the identity, whose product of the
    i-th and the j-th name is the mul(i, j)-th."""
    n = range(len(names))
    return GroupTable(tuple(tuple(mul(i, j) for j in n) for i in n), 0, tuple(names))


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise MalformedRing(f"Z/nZ needs n >= 1, got {n}")
    return _group(["e", *(f"g{k}" for k in range(1, n))], lambda i, j: (i + j) % n)


def klein_group() -> GroupTable:
    # Klein four = Z2 x Z2 via bitwise xor on indices
    return _group(("e", "a", "b", "ab"), lambda i, j: i ^ j)


def s3_group() -> GroupTable:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    # (p*q)(i) = p(q(i))
    return _group(("e", "r", "r2", "s", "sr", "sr2"),
                  lambda i, j: perms.index(tuple(perms[i][k] for k in perms[j])))


# ------------------------------------------------------- finite rep rings


def rep_ring_char_table(irreps: Sequence[tuple[str, int]], unit: str,
                        fusion: Mapping[tuple[str, str], Support],
                        name="rep-ring") -> FusionRing:
    """Ingest the representation ring of a finite group as data, validated
    and rejected on any axiom failure.  A label's dual is its one partner
    with the unit in the product, the only dual the duality axiom allows."""
    labels = [lab for lab, _ in irreps]
    dual = {}
    for a in labels:
        partners = [b for b in labels if fusion.get((a, b), {}).get(unit, 0) == 1]
        if len(partners) != 1:
            raise MalformedRing(f"cannot infer dual of {a!r}")
        dual[a] = partners[0]
    ring = FusionRing.explicit([BasisElement(l, d) for l, d in irreps],
                               unit, dual, fusion, name=name)
    report = validate_ring(ring)
    if not report.ok:
        raise AxiomViolation(report)
    return ring


def rep_s3_ring() -> FusionRing:
    """Rep(S3): trivial, sign and the 2-dimensional irrep."""
    fusion = {
        ("1", "1"): {"1": 1}, ("1", "sgn"): {"sgn": 1}, ("1", "rho"): {"rho": 1},
        ("sgn", "1"): {"sgn": 1}, ("sgn", "sgn"): {"1": 1}, ("sgn", "rho"): {"rho": 1},
        ("rho", "1"): {"rho": 1}, ("rho", "sgn"): {"rho": 1},
        ("rho", "rho"): {"1": 1, "sgn": 1, "rho": 1},
    }
    return rep_ring_char_table([("1", 1), ("sgn", 1), ("rho", 2)], "1", fusion,
                               name="rep-s3")


def rep_z4_ring() -> FusionRing:
    """Rep(Z4): the dual group ring, four characters with cyclic fusion."""
    labels = [f"chi{k}" for k in range(4)]
    fusion = {(labels[i], labels[j]): {labels[(i + j) % 4]: 1}
              for i in range(4) for j in range(4)}
    return rep_ring_char_table([(l, 1) for l in labels], "chi0", fusion,
                               name="rep-z4")


# -------------------------------------------------- generated catalog rings
# Every oracle, dual and dim of a generated family parses the labels it is
# given, so a label outside the family raises UnknownLabel whenever the
# ring's fusion table misses.  A family parses through a `Memo`, so each
# label is parsed once per ring; a parse that fails keeps no entry and
# raises again.  The towers su2, so3 and z are `_indexed_ring`s.


def _indexed_ring(prefix: str, generators: Sequence[int], constituents, dual, dim,
                  name: str, modulus: int, kernel, signed: bool = False) -> FusionRing:
    """The generated ring on the labels prefix + str(n), n >= 0 unless
    `signed`, with unit index 0 and the given generator indices.  The
    product of the labels of x and y is the sum, each with multiplicity 1,
    of the labels of `constituents(x, y)`; `dual` and `dim` map an index to
    its dual's index and to its dimension.  The ring is graded by the index
    modulo `modulus` (in Z when it is 0), and `kernel(k)` gives the indices
    of degree e at discovery level k, in level order.  Any other spelling,
    such as a leading zero or a `+`, is an unknown label."""

    def index_of(lab: str) -> int:
        try:
            n = int(lab[len(prefix):])
        except ValueError:
            raise UnknownLabel(lab) from None
        if f"{prefix}{n}" != lab or (n < 0 and not signed):
            raise UnknownLabel(lab)
        return n

    parse, label = Memo(index_of), Memo(lambda n: prefix + str(n))

    def oracle(a, b):
        return {label[c]: 1 for c in constituents(parse[a], parse[b])}

    return FusionRing.generated(label[0], [label[g] for g in generators], oracle,
                                dual_fn=lambda l: label[dual(parse[l])],
                                dim_fn=lambda l: dim(parse[l]), name=name,
                                grading=(modulus, parse.__getitem__,
                                         lambda k: [label[n] for n in kernel(k)]))


def su2_ring() -> FusionRing:
    """SU(2) fusion: V_a x V_b = V_|a-b| + V_|a-b|+2 + ... + V_a+b.

    The same ring serves SU_q(2) and B_u(Q), which share these fusion rules.
    Graded by the parity of the index, in Z/2.  Level k is V_k alone:
    V_k-1 x V_1 adds only V_k to the levels before it, so the kernel at
    level k is V_k for even k and empty for odd k.
    """
    return _indexed_ring("V", [1], lambda x, y: range(abs(x - y), x + y + 1, 2),
                         lambda x: x, lambda x: x + 1, "su2", 2, lambda k: [] if k % 2 else [k])


def so3_ring() -> FusionRing:
    """SO(3) fusion (integer spins); also serves A_aut(B, tau).  Trivially
    graded.  Level k is W_k alone: W_k-1 x W_1 adds only W_k to the levels
    before it, so the kernel at level k is W_k."""
    return _indexed_ring("W", [1], lambda x, y: range(abs(x - y), x + y + 1),
                         lambda x: x, lambda x: 2 * x + 1, "so3", 1, lambda k: [k])


def z_group_ring() -> FusionRing:
    """Group ring of Z (dual of the circle group), as a generated ring,
    graded by the index in Z.  Level k is z_k, z_-k: z_k-1 x z_1 and
    z_-k+1 x z_-1 are the only products that leave the levels before it,
    so the kernel is z_0 alone, at level 0."""
    return _indexed_ring("z", [1, -1], lambda x, y: (x + y,), lambda x: -x,
                         lambda x: 1, "z-group-ring", 0, lambda k: [] if k else [0], signed=True)


_AU_BAR = {"u": "v", "v": "u"}


def au_word_ring(n: int = 2) -> FusionRing:
    """The free-unitary word ring: basis = words over {u, v} with v = dual u.

    Fusion of x and y sums over all cancelling factorizations x = a.g,
    y = dual(g).b, contributing the concatenation a.b.  A word's dim is
    n dim(w[:-1]), less dim(w[:-2]) when the last two letters cancel, so the
    dimension homomorphism holds with dim(u) = n.  A word is graded in Z by
    its number of u less its number of v.  Level k is the words of length k
    in lexicographic order, u < v: the only new constituent of x g is the
    word xg, the others being shorter.  Its labels of degree e are the
    balanced words, in the same order: one per choice of the positions of
    its k/2 u's, as `itertools.combinations` lists them.
    """
    if n < 2:
        raise MalformedRing("au_word_ring needs dim parameter n >= 2")

    def word(lab: str) -> str:
        if lab == "e":
            return ""
        if not lab or lab.strip("uv"):
            raise UnknownLabel(lab)
        return lab

    def bar(w: str) -> str:
        return "".join(_AU_BAR[c] for c in reversed(w))

    def oracle(x, y):
        x, y = word(x), word(y)
        out = {(x + y) or "e": 1}
        # cancelling x = a.g against y = dual(g).b letter by letter; an
        # overlap of length k+1 needs the overlap of length k
        for k in range(min(len(x), len(y))):
            if y[k] != _AU_BAR[x[-1 - k]]:
                break
            out[(x[: len(x) - k - 1] + y[k + 1:]) or "e"] = 1
        return out

    def dim(lab):  # the dim of each prefix in turn, from the empty word's 1
        w, shorter, d = word(lab), 0, 1
        for k, letter in enumerate(w):
            shorter, d = d, n * d - (shorter if k and w[k - 1] == _AU_BAR[letter] else 0)
        return d

    def balanced(k):  # the level-k words of degree e: those with k/2 u's
        out = []
        for us in itertools.combinations(range(k), k // 2) if k % 2 == 0 else ():
            w = ["v"] * k
            for i in us:
                w[i] = "u"
            out.append("".join(w) or "e")
        return out

    return FusionRing.generated("e", ["u", "v"], oracle, dual_fn=lambda l: bar(word(l)) or "e",
                                dim_fn=dim, name=f"au-word-ring(n={n})",
                                grading=(0, lambda l: l.count("u") - l.count("v"), balanced))


# --------------------------------------------------------------- products


def direct_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Componentwise product ring on pair labels '(a,b)'; a complete
    table when both factors are explicit, generated otherwise."""

    def pair(a, b):
        return f"({a},{b})"

    def components(lab):
        if lab[:1] == "(" and lab[-1:] == ")":
            parts = split_outside_brackets(lab[1:-1], ",")
            if len(parts) == 2:
                return parts
        raise UnknownLabel(lab)

    unpair = Memo(components)

    def oracle(x, y):
        a1, b1 = unpair[x]
        a2, b2 = unpair[y]
        out = {}
        for c1, n1 in r1.fusion[a1, a2].items():
            for c2, n2 in r2.fusion[b1, b2].items():
                out[pair(c1, c2)] = n1 * n2
        return out

    def dual_fn(lab):
        a, b = unpair[lab]
        return pair(r1.dual(a), r2.dual(b))

    def dim_fn(lab):
        a, b = unpair[lab]
        return r1.dim(a) * r2.dim(b)

    unit, name = pair(r1.unit, r2.unit), f"{r1.name}x{r2.name}"
    if r1.is_explicit and r2.is_explicit:
        labels = [pair(a, b) for a in r1.labels() for b in r2.labels()]
        return FusionRing.explicit(
            [BasisElement(l, dim_fn(l)) for l in labels], unit,
            {l: dual_fn(l) for l in labels},
            {(x, y): oracle(x, y) for x in labels for y in labels}, name=name)
    gens = [pair(g, r2.unit) for g in r1.generators]
    gens += [pair(r1.unit, g) for g in r2.generators]
    return FusionRing.generated(unit, gens, oracle, dual_fn=dual_fn,
                                dim_fn=dim_fn, name=name)


def free_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Free-product ring: alternating tagged words in nontrivial irreducibles.

    Fusion follows Wang's classification: letters from different factors
    concatenate; equal-factor boundary letters are fused in their factor,
    the trivial constituent recursing into the shorter words.  A letter
    whose label is itself a word is written `i:[word]`.
    """
    factors = (r1, r2)

    def letter(i: int, flab: str) -> str:
        return f"{i + 1}:[{flab}]" if "*" in flab else f"{i + 1}:{flab}"

    def label_of(word) -> str:
        return "*".join(letter(i, l) for i, l in word) or "e"

    def word_letters(lab: str) -> tuple[tuple[int, str], ...]:
        """The alternating letters of a word; UnknownLabel for anything else."""
        if lab == "e":
            return ()
        nested = "[" in lab or "(" in lab
        out = []
        for piece in split_outside_brackets(lab, "*") if nested else lab.split("*"):
            tag, _, flab = piece.partition(":")
            if tag not in ("1", "2"):
                raise UnknownLabel(lab)
            i = int(tag) - 1
            if flab[:1] == "[" and flab[-1:] == "]" and "*" in flab:
                flab = flab[1:-1]
            if (flab == factors[i].unit or (out and out[-1][0] == i)
                    or (nested and letter(i, flab) != piece)):
                raise UnknownLabel(lab)
            factors[i].dim(flab)  # raises UnknownLabel outside the factor
            out.append((i, flab))
        return tuple(out)

    letters_of = Memo(word_letters)

    def oracle(x, y):  # each constituent's label is built from the labels x and y
        s, t = letters_of[x], letters_of[y]
        if not (s and t) or s[-1][0] != t[0][0]:
            return {x if y == "e" else y if x == "e" else f"{x}*{y}": 1}
        (fi, sl), (_, tl) = s[-1], t[0]
        # x less its last letter and y less its first, each keeping its `*`
        head, tail = x[:len(x) - len(letter(fi, sl))], y[len(letter(fi, tl)):]
        fac, out = factors[fi], {}
        for c, m in fac.fusion[sl, tl].items():
            if c == fac.unit:  # from this ring's own table; these words are the shorter ones
                rec = fusion[head[:-1] or "e", tail[1:] or "e"]
                out.update((w, m * k) for w, k in rec.items())
            else:
                out[head + letter(fi, c) + tail] = m
        return out

    def dual_fn(lab):
        return label_of((i, factors[i].dual(l)) for i, l in reversed(letters_of[lab]))

    def dim_fn(lab):
        d = 1
        for i, l in letters_of[lab]:
            d *= factors[i].dim(l)
        return d

    gens = [letter(i, g) for i, fac in enumerate(factors)
            for g in fac.generators if g != fac.unit]
    ring = FusionRing.generated("e", gens, oracle, dual_fn=dual_fn,
                                dim_fn=dim_fn, name=f"{r1.name}*{r2.name}")
    fusion = weakref.proxy(ring.fusion)  # so neither the ring nor its table holds a cycle
    return ring


def split_outside_brackets(text: str, sep: str) -> list[str]:
    """`text` split at each `sep` outside brackets and parentheses."""
    out, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(text[start:k])
            start = k + 1
    out.append(text[start:])
    return out


# ----------------------------------------------------------------- file I/O


def save_ring(ring: FusionRing, path, depth: int = 6):
    """Write a ring as canonical JSON; generated rings are truncated at
    `depth` and stamped with "truncated_at"."""
    labels = ring.elements(depth)
    truncated = ring.checked_depth(depth)
    in_scope = set(labels)
    doc = {
        "basis": [{"label": l, "dim": ring.dim(l)} for l in labels],
        "unit": ring.unit,
        "dual": {l: ring.dual(l) for l in labels},
        "fusion": [],
    }
    for a in labels:
        for b in labels:
            try:
                supp = ring.fusion[a, b]
            except DepthExceeded:
                continue
            if not set(supp) <= in_scope:
                continue  # escapes the truncation; omitted, hence the stamp
            for c in sorted(supp, key=ring.order_key):
                doc["fusion"].append({"a": a, "b": b, "c": c, "n": supp[c]})
    if truncated is not None:
        doc["truncated_at"] = truncated
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")


def load_ring(path, validate: bool = True) -> FusionRing:
    """Load an explicit ring from the JSON schema; validates the axioms
    unless `validate` is False (callers that report violations themselves)."""
    doc = read_object(path, ("basis", "unit", "dual", "fusion"))
    truncated = doc.get("truncated_at")
    if truncated is not None and (type(truncated) is not int or truncated < 0):
        raise MalformedFile(f"truncated_at must be a non-negative integer, not {truncated!r}")
    if not isinstance(doc["dual"], dict):
        raise MalformedFile("dual must be a map of labels")
    basis = [BasisElement(*b) for b in _entries(doc["basis"], ("label", "dim"), "basis")]
    require_labels(doc["unit"], *doc["dual"].values(), *(b.label for b in basis))
    fusion: dict[tuple[str, str], Support] = {}
    for a, b, c, n in _entries(doc["fusion"], ("a", "b", "c", "n"), "fusion"):
        require_labels(a, b, c)
        supp = fusion.setdefault((a, b), {})
        if c in supp:
            raise MalformedFile(f"duplicate fusion entry {dict(a=a, b=b, c=c, n=n)}")
        supp[c] = n
    ring = FusionRing.explicit(basis, doc["unit"], doc["dual"], fusion,
                               name=Path(path).stem, truncated_at=truncated)
    if validate:
        report = validate_ring(ring)
        if not report.ok:
            raise AxiomViolation(report)
    return ring


def load_group(path) -> GroupTable:
    """Load a finite group: {"elements", "identity", "table"}, where table is
    a nested map row-label -> col-label -> product.  The file must name one
    element per label, the identity among them, and an element per product."""
    doc = read_object(path, ("elements", "identity", "table"))
    elements, identity, rows = doc["elements"], doc["identity"], doc["table"]
    if not isinstance(elements, list):
        raise MalformedFile("elements must be a list of labels")
    require_labels(identity, *elements)
    table = [_fields(row, elements, f"table row {a!r}")
             for a, row in zip(elements, _fields(rows, elements, "table"))]
    require_labels(*(p for row in table for p in row))
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise NotAGroup("duplicate element labels")
    if identity not in index:
        raise NotAGroup(f"identity {identity!r} not among elements")
    for a, row in zip(elements, table):
        for b, p in zip(elements, row):
            if p not in index:
                raise NotAGroup(f"table not total at ({a!r},{b!r})")
    return GroupTable(tuple(tuple(map(index.get, row)) for row in table), index[identity],
                      tuple(elements))


def read_object(path, keys=()) -> dict:
    """The JSON object held by the file at `path`, which must have `keys`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise MalformedFile(str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedFile(f"{path} does not hold a JSON object")
    for key in keys:
        if key not in doc:
            raise MalformedFile(f"missing key {key!r}")
    return doc


def _fields(obj, keys, what):
    """The values of `keys` in `obj`, or MalformedFile naming `what`, the
    shape it must have and the value it has."""
    if isinstance(obj, dict) and all(k in obj for k in keys):
        return [obj[k] for k in keys]
    raise MalformedFile(f"{what} must be an object with keys {', '.join(keys)}, got {obj!r}")


def _entries(items, keys, what):
    """The `_fields` of each entry of `items`, which must be a list."""
    if not isinstance(items, list):
        raise MalformedFile(f"{what} must be a list of objects")
    return [_fields(x, keys, f"{what} entry") for x in items]


def require_labels(*values):
    """Raise MalformedFile unless every value is a label, a string."""
    for v in values:
        if not isinstance(v, str):
            raise MalformedFile(f"label {v!r} is not a string")
