"""Builders for the rings the package ships with, ring constructors
(direct and free products) and the JSON ring-file loader."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .ring import BasisElement, FusionRing, Support, validate_ring


# -------------------------------------------------------------- group rings


@dataclass(frozen=True)
class GroupPresentationInput:
    """A finite group given by elements and a full multiplication table."""

    elements: tuple[str, ...]
    table: Mapping[tuple[str, str], str]
    identity: str

    def check(self):
        """Raise NotAGroup unless the table is a total group law."""
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise NotAGroup("duplicate element labels")
        if self.identity not in index:
            raise NotAGroup(f"identity {self.identity!r} not among elements")
        for a in self.elements:
            for b in self.elements:
                if self.table.get((a, b)) not in index:
                    raise NotAGroup(f"table not total at ({a!r},{b!r})")
        GroupTable(tuple(tuple(index[self.table[(a, b)]] for b in self.elements)
                         for a in self.elements),
                   index[self.identity], self.elements).verify()


def group_ring(g: GroupPresentationInput) -> FusionRing:
    """The fusion ring of C*(Gamma): all dims 1, singleton group-law fusion."""
    g.check()
    basis = [BasisElement(e, 1) for e in g.elements]
    dual = {a: b for a in g.elements for b in g.elements
            if g.table[(a, b)] == g.identity}
    fusion = {(a, b): {g.table[(a, b)]: 1} for a in g.elements for b in g.elements}
    return FusionRing.explicit(basis, g.identity, dual, fusion, name="group-ring")


def cyclic_group(n: int) -> GroupPresentationInput:
    elems = tuple("e" if k == 0 else f"g{k}" for k in range(n))
    table = {(elems[i], elems[j]): elems[(i + j) % n] for i in range(n) for j in range(n)}
    return GroupPresentationInput(elems, table, "e")


def klein_group() -> GroupPresentationInput:
    elems = ("e", "a", "b", "ab")
    idx = {e: i for i, e in enumerate(elems)}
    # Klein four = Z2 x Z2 via bitwise xor on indices
    table = {(x, y): elems[idx[x] ^ idx[y]] for x in elems for y in elems}
    return GroupPresentationInput(elems, table, "e")


def s3_group() -> GroupPresentationInput:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    lookup = {p: n for p, n in zip(perms, names)}

    def compose(p, q):  # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(3))

    table = {(lookup[p], lookup[q]): lookup[compose(p, q)] for p in perms for q in perms}
    return GroupPresentationInput(tuple(names), table, "e")


# ------------------------------------------------------- finite rep rings


def rep_ring_char_table(irreps: Sequence[tuple[str, int]], unit: str,
                        fusion: Mapping[tuple[str, str], Support],
                        dual: Mapping[str, str] | None = None,
                        name="rep-ring") -> FusionRing:
    """Ingest the representation ring of a finite group as data.

    `dual` defaults to the unique partner with the unit in the product;
    the result is validated and rejected on any axiom failure.
    """
    labels = [lab for lab, _ in irreps]
    if dual is None:
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
# Each family's label parser raises UnknownLabel for a label outside the
# family.  Oracles parse their arguments, so a product checks its labels
# whenever the ring's product memo misses.


def _index_parser(prefix: str, signed: bool = False):
    """Parser of the labels prefix + str(n), n >= 0 unless `signed`."""

    def parse(lab: str) -> int:
        try:
            n = int(lab[len(prefix):])
        except ValueError:
            raise UnknownLabel(lab) from None
        if f"{prefix}{n}" != lab or (n < 0 and not signed):
            raise UnknownLabel(lab)
        return n

    return parse


def su2_ring() -> FusionRing:
    """SU(2) fusion: V_a x V_b = V_|a-b| + V_|a-b|+2 + ... + V_a+b.

    The same ring serves SU_q(2) and B_u(Q), which share these fusion rules.
    """
    parse = _index_parser("V")

    def oracle(a, b):
        x, y = parse(a), parse(b)
        return {f"V{c}": 1 for c in range(abs(x - y), x + y + 1, 2)}

    return FusionRing.generated("V0", ["V1"], oracle,
                                dual_fn=lambda l: f"V{parse(l)}",
                                dim_fn=lambda l: parse(l) + 1,
                                name="su2")


def so3_ring() -> FusionRing:
    """SO(3) fusion (integer spins); also serves A_aut(B, tau)."""
    parse = _index_parser("W")

    def oracle(a, b):
        x, y = parse(a), parse(b)
        return {f"W{c}": 1 for c in range(abs(x - y), x + y + 1)}

    return FusionRing.generated("W0", ["W1"], oracle,
                                dual_fn=lambda l: f"W{parse(l)}",
                                dim_fn=lambda l: 2 * parse(l) + 1,
                                name="so3")


def z_group_ring() -> FusionRing:
    """Group ring of Z (dual of the circle group), as a generated ring."""
    parse = _index_parser("z", signed=True)

    def oracle(a, b):
        return {f"z{parse(a) + parse(b)}": 1}

    def dim(lab):
        parse(lab)
        return 1

    return FusionRing.generated("z0", ["z1", "z-1"], oracle,
                                dual_fn=lambda l: f"z{-parse(l)}",
                                dim_fn=dim,
                                name="z-group-ring")


_AU_BAR = {"u": "v", "v": "u"}


def au_word_ring(n: int = 2) -> FusionRing:
    """The free-unitary word ring: basis = words over {u, v} with v = dual u.

    Fusion of x and y sums over all cancelling factorizations x = a.g,
    y = dual(g).b, contributing the concatenation a.b.  Dims are defined
    recursively so the dimension homomorphism holds with dim(u) = n.
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

    dims: dict[str, int] = {"": 1, "u": n, "v": n}

    def dim(lab):
        w = word(lab)
        if w in dims:
            return dims[w]
        p, c = w[:-1], w[-1]
        d = dim(p if p else "e") * n
        if p and p[-1] == _AU_BAR[c]:
            d -= dim(p[:-1] if p[:-1] else "e")
        dims[w] = d
        return d

    return FusionRing.generated("e", ["u", "v"], oracle,
                                dual_fn=lambda l: bar(word(l)) or "e",
                                dim_fn=dim,
                                name=f"au-word-ring(n={n})")


# --------------------------------------------------------------- products


def direct_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Componentwise product ring on pair labels '(a,b)'; a complete
    table when both factors are explicit, generated otherwise."""

    def pair(a, b):
        return f"({a},{b})"

    def unpair(lab):
        if lab[:1] != "(" or lab[-1:] != ")":
            raise UnknownLabel(lab)
        inner = lab[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return inner[:i], inner[i + 1:]
        raise UnknownLabel(lab)

    def oracle(x, y):
        a1, b1 = unpair(x)
        a2, b2 = unpair(y)
        out = {}
        for c1, n1 in r1.product(a1, a2).items():
            for c2, n2 in r2.product(b1, b2).items():
                out[pair(c1, c2)] = n1 * n2
        return out

    def dual_fn(lab):
        a, b = unpair(lab)
        return pair(r1.dual(a), r2.dual(b))

    def dim_fn(lab):
        a, b = unpair(lab)
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

    def letters_of(lab: str) -> tuple[tuple[int, str], ...]:
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

    def oracle(x, y):
        s, t = letters_of(x), letters_of(y)
        if not (s and t) or s[-1][0] != t[0][0]:
            return {label_of(s + t): 1}
        (fi, sl), (_, tl) = s[-1], t[0]
        fac, out = factors[fi], {}
        for c, m in fac.product(sl, tl).items():
            if c == fac.unit:  # from this ring's own memo; these words are the shorter ones
                rec = ring._support(label_of(s[:-1]), label_of(t[1:]))
                out.update((w, m * k) for w, k in rec.items())
            else:
                out[label_of(s[:-1] + ((fi, c),) + t[1:])] = m
        return out

    def dual_fn(lab):
        return label_of((i, factors[i].dual(l)) for i, l in reversed(letters_of(lab)))

    def dim_fn(lab):
        d = 1
        for i, l in letters_of(lab):
            d *= factors[i].dim(l)
        return d

    gens = [letter(i, g) for i, fac in enumerate(factors)
            for g in fac.generators if g != fac.unit]
    ring = FusionRing.generated("e", gens, oracle, dual_fn=dual_fn,
                                dim_fn=dim_fn, name=f"{r1.name}*{r2.name}")
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
                supp = ring.product(a, b)
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
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFile(str(exc)) from exc
    for key in ("basis", "unit", "dual", "fusion"):
        if key not in doc:
            raise MalformedFile(f"missing key {key!r}")
    try:
        if not isinstance(doc["unit"], str) or not isinstance(doc["dual"], dict):
            raise MalformedFile("unit must be a label and dual a map of labels")
        basis = [BasisElement(b["label"], int(b["dim"])) for b in doc["basis"]]
        dual = {str(k): str(v) for k, v in doc["dual"].items()}
        fusion: dict[tuple[str, str], Support] = {}
        for entry in doc["fusion"]:
            key = (entry["a"], entry["b"])
            supp = fusion.setdefault(key, {})
            if entry["c"] in supp:
                raise MalformedFile(f"duplicate fusion entry {entry}")
            supp[entry["c"]] = int(entry["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(str(exc)) from exc
    truncated = doc.get("truncated_at")
    ring = FusionRing.explicit(basis, doc["unit"], dual, fusion,
                               name=Path(path).stem, truncated_at=truncated)
    if validate:
        report = validate_ring(ring)
        if not report.ok:
            raise AxiomViolation(report)
    return ring


def load_group(path) -> GroupPresentationInput:
    """Load a finite group presentation: {"elements", "identity", "table"}
    where table is a nested map row-label -> col-label -> product."""
    try:
        doc = json.loads(Path(path).read_text())
        elements = tuple(doc["elements"])
        table = {(a, b): doc["table"][a][b] for a in elements for b in elements}
        g = GroupPresentationInput(elements, table, doc["identity"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedFile(str(exc)) from exc
    g.check()
    return g
