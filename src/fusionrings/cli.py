"""Fusion-ring computations: chain groups, centers, cosets, subgroups, automorphisms.

Exit codes: 0 success, 1 domain negative (invalid ring, NotNormal,
NotCentral -- the witness is printed), 2 input/usage error, 3 oracle
cross-validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as cat
from .automorph import automorphism_group, automorphisms
from .central import (
    _schreier,
    chain_group,
    chain_oracle,
    enumerate_central_subobjects,
    center_subobject,
    sigma_cosets,
)
from .errors import FusionRingError, MalformedFile
from .ring import FusionRing, Subobject, validate_ring
from .serialize import canonical_json, merge_graph_dot, partition_table
from .subgroups import (
    RestrictionData,
    grouplikes_group,
    identity_restriction,
    is_central_subgroup,
    is_normal,
    su2_parity_restriction,
    su2_weight_restriction,
    trivial_restriction,
)

EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_ORACLE = 3


class UsageError(FusionRingError):
    """A malformed command line or option value."""


def _int_param(name: str) -> int:
    """The integer after the colon of a catalog name such as zn:N."""
    text = name.split(":", 1)[1]
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"catalog name {name!r}: {text!r} is not an integer")
    return int(text)


def resolve_catalog(name: str) -> FusionRing:
    if name == "su2":
        return cat.su2_ring()
    if name == "so3":
        return cat.so3_ring()
    if name == "au" or name.startswith("au:"):
        return cat.au_word_ring(_int_param(name) if ":" in name else 2)
    if name == "z":
        return cat.z_group_ring()
    if name.startswith("zn:"):
        return cat.group_ring(cat.cyclic_group(_int_param(name)))
    if name == "s3":
        return cat.group_ring(cat.s3_group())
    if name == "klein":
        return cat.group_ring(cat.klein_group())
    if name == "reps3":
        return cat.rep_s3_ring()
    if name == "repz4":
        return cat.rep_z4_ring()
    if name.startswith("group:"):
        return cat.group_ring(cat.load_group(name.split(":", 1)[1]))
    if name.startswith("repring:"):
        return cat.load_ring(name.split(":", 1)[1])
    for prefix, ctor in (("free:", cat.free_product), ("prod:", cat.direct_product)):
        if name.startswith(prefix):
            # a factor that is itself a product is parenthesized: free:(A)+B
            body = name[len(prefix):]
            for opening, closing in ("()", "[]"):  # as split_outside_brackets counts them
                depth = 0
                for ch in body:
                    if (depth := depth + (ch == opening) - (ch == closing)) < 0:
                        break
                if depth:
                    raise UsageError(f"catalog name {name!r} has an unmatched "
                                     f"{opening if depth > 0 else closing!r}")
            left, *rest = cat.split_outside_brackets(body, "+")
            right = "+".join(rest)  # split at the first top-level +
            if not (left and right):
                raise UsageError(f"catalog name {name!r} needs two factors, {prefix}NAME+NAME: "
                                 f"its {'second' if left else 'first'} factor is missing")
            left, right = (p[1:-1] if p[:1] == "(" and p[-1:] == ")" else p for p in (left, right))
            return ctor(resolve_catalog(left), resolve_catalog(right))
    raise UsageError(f"unknown catalog name {name!r}")


CATALOG_HELP = ("su2 | so3 | au[:n] | z | zn:N | s3 | klein | reps3 | repz4 | "
                "group:FILE | repring:FILE | free:NAME+NAME | prod:NAME+NAME")


def resolve_ring(ring_file, catalog_name, validate=True) -> FusionRing:
    if (ring_file is None) == (catalog_name is None):
        raise UsageError("exactly one of --ring/--catalog is required")
    if catalog_name is not None:
        return resolve_catalog(catalog_name)
    return cat.load_ring(ring_file, validate=validate)


_RESTRICTION_RULES = {
    "su2_parity": su2_parity_restriction,
    "su2_weights": su2_weight_restriction,
    "identity": lambda src, tgt: identity_restriction(src),
    "trivial": trivial_restriction,
}


def _same_ring(r1: FusionRing, r2: FusionRing, depth: int) -> bool:
    """Whether two rings have the same unit, generators and window
    `elements(depth)`, with the same dimensions, duals and products on it."""
    window = r1.elements(depth)
    if ((r1.kind, r1.unit, set(r1.generators), set(window), r1.checked_depth(depth))
            != (r2.kind, r2.unit, set(r2.generators), set(r2.elements(depth)),
                r2.checked_depth(depth))):
        return False
    return (all(r1.dim(a) == r2.dim(a) and r1.dual(a) == r2.dual(a) for a in window)
            and all(r1.fusion[a, b] == r2.fusion[a, b] for a in window for b in window))


def load_restriction(path, ring_file=None, catalog_name=None, depth=6) -> RestrictionData:
    """The restriction data in the file at `path`.  A ring given by
    `--ring` or `--catalog` must be the file's source on the window
    `elements(depth)`."""
    given = (None if ring_file is None and catalog_name is None
             else resolve_ring(ring_file, catalog_name))
    doc = cat.read_object(path, ("source", "target"))

    def named(text):  # a ring file beside the restriction file, else a catalog name
        file = Path(path).parent / text
        return cat.load_ring(file) if file.exists() else resolve_catalog(text)

    for key in ("source", "target"):
        if not isinstance(doc[key], str):
            raise MalformedFile(f"{key} must be a ring file or catalog name, got {doc[key]!r}")
    source = named(doc["source"])
    if given is not None and not _same_ring(given, source, depth):
        option = (f"--ring {ring_file!r}" if ring_file is not None
                  else f"--catalog {catalog_name!r}")
        raise UsageError(f"{option} is not the restriction's source {doc['source']!r}")
    target = named(doc["target"])
    if "rule" in doc:
        make = _RESTRICTION_RULES.get(doc["rule"]) if isinstance(doc["rule"], str) else None
        if make is None:
            raise MalformedFile(f"unknown rule {doc['rule']!r}; the rules are "
                                + ", ".join(_RESTRICTION_RULES))
        return make(source, target)
    mapping = {}
    for label, to in cat._entries(doc.get("map"), ("from", "to"), "map"):
        pairs = cat._entries(to, ("label", "n"), "to")
        cat.require_labels(label, *(l for l, _ in pairs))
        mapping[label] = dict(pairs)
    return RestrictionData.from_dict(source, target, mapping,
                                     name=Path(path).stem)


def emit(payload, fmt, table_text, dot=None):
    """Print the payload in `fmt`; `dot` renders the DOT text on demand."""
    if fmt == "json":
        sys.stdout.write(canonical_json(payload))
    elif fmt == "table":
        print(table_text)
    elif dot is None:
        raise UsageError("dot format not available for this command")
    else:
        sys.stdout.write(dot())


def run_oracle_check(ring: FusionRing, depth: int):
    fast = _schreier(ring, depth)[0].block_of  # the partition chain_group reads
    slow = chain_oracle(ring, max_len=6).block_of
    # minimized counterexample: the first label pair the two partitions disagree on
    labels = ring.labels()
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            in_fast, in_slow = fast[a] == fast[b], slow[a] == slow[b]
            if in_fast != in_slow:
                print(f"oracle-check failed: ({a}, {b}) merged={in_fast} "
                      f"brute-force={in_slow}", file=sys.stderr)
                sys.exit(EXIT_ORACLE)


def parse_sigma(sigma, sigma_file) -> Subobject:
    """The labels given for sigma; `sigma_cosets` checks that they form a
    subobject."""
    if (sigma is None) == (sigma_file is None):
        raise UsageError("exactly one of --sigma/--sigma-file is required")
    if sigma is not None:
        members = [s.strip() for s in cat.split_outside_brackets(sigma, ",") if s.strip()]
    else:
        try:
            members = json.loads(Path(sigma_file).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"unreadable sigma file: {exc}")
        if not (isinstance(members, list) and all(isinstance(m, str) for m in members)):
            raise UsageError("sigma file must hold a JSON list of labels")
    return Subobject(frozenset(members))


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises `UsageError` instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    """An option value that is an integer of at least 0, in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


RING_OPTIONS = _Parser(add_help=False)
RING_OPTIONS.add_argument("--ring", dest="ring_file", help="Ring JSON file.")
RING_OPTIONS.add_argument("--catalog", dest="catalog_name", help=f"Catalog ring: {CATALOG_HELP}")
RING_OPTIONS.add_argument("--depth", type=non_negative_int, default=6,
                          help="Exploration depth for generated rings (default: 6).")
RING_OPTIONS.add_argument("--format", dest="fmt", choices=["json", "table", "dot"],
                          default="json", help="Output format (default: json).")

# argparse would take an option prefix such as --cat for --catalog
PARSER = _Parser(prog="fusionrings", allow_abbrev=False, description=__doc__)
COMMANDS = PARSER.add_subparsers(metavar="COMMAND", required=True)


def command(name, *arguments, ring=lambda *given: resolve_ring(*given)):
    """Register the decorated function as the command `name`, to be called
    with the values of `arguments`, each a name or flag and the keywords of
    its `add_argument` call.  Unless `ring` is None the command takes the
    ring options too: first `ring(ring_file, catalog_name)`, by default the
    ring they name, then depth and fmt."""
    def register(fn):
        sub = COMMANDS.add_parser(name, parents=[RING_OPTIONS] if ring else [],
                                  allow_abbrev=False, help=fn.__doc__, description=fn.__doc__)
        for flag, kw in arguments:
            sub.add_argument(flag, **kw)
        sub.set_defaults(run=fn if ring is None else lambda ring_file, catalog_name, **rest:
                         fn(ring(ring_file, catalog_name), **rest))
        return fn
    return register


@command("validate", ring=lambda *given: resolve_ring(*given, validate=False))
def validate(ring, depth, fmt):
    """Check the fusion-ring axioms; nonempty report exits 1."""
    report = validate_ring(ring, depth)
    payload = {"valid": report.ok,
               "checked_depth": report.checked_depth,
               "violations": [{"axiom": v.axiom, "witness": list(v.witness),
                               "detail": v.detail} for v in report.violations]}
    emit(payload, fmt, table_text=str(report))
    if not report.ok:
        sys.exit(EXIT_NEGATIVE)


@command("info")
def info(ring, depth, fmt):
    """Basis summary of a ring (explored part for generated rings)."""
    labels = ring.elements(depth)
    payload = {"name": ring.name, "kind": ring.kind, "unit": ring.unit,
               "size": len(labels),
               "basis": [{"label": l, "dim": ring.dim(l), "dual": ring.dual(l)}
                         for l in labels]}
    text = "\n".join(f"{l} dim={ring.dim(l)} dual={ring.dual(l)}" for l in labels)
    emit(payload, fmt, table_text=text)


@command("product", ("a", {}), ("b", {}))
def product(ring, depth, fmt, a, b):
    """Fusion product a x b with multiplicities."""
    supp = ring.product(a, b)
    ordered = sorted(supp.items(), key=lambda kv: kv[0])
    emit({"a": a, "b": b, "support": dict(ordered)}, fmt,
         table_text=" + ".join(f"{n}*{c}" if n > 1 else c for c, n in ordered))


@command("chain-group", ("--oracle-check", {"action": "store_true"}))
def chain_group_cmd(ring, depth, fmt, oracle_check):
    """Chain group of the ring (dual of the center)."""
    if oracle_check:
        run_oracle_check(ring, depth)
    _, desc = chain_group(ring, depth)
    payload = desc.to_json()
    text = (f"order: {desc.order}  abelian: {desc.is_abelian}  "
            f"invariants: {desc.abelian_invariants}  flag: {desc.flag}"
            + (f"  name: {desc.name}" if desc.name else ""))
    emit(payload, fmt, table_text=text, dot=lambda: merge_graph_dot(ring, depth))


@command("center", ("--oracle-check", {"action": "store_true"}))
def center(ring, depth, fmt, oracle_check):
    """Center subobject and center group."""
    if oracle_check:
        run_oracle_check(ring, depth)
    _, desc = chain_group(ring, depth)
    # the merge graph lists labels in discovery order: draw it before
    # center_subobject explores the 2 * depth window
    dot = merge_graph_dot(ring, depth) if fmt == "dot" else None
    sub = center_subobject(ring, depth)
    explored = ring.elements(depth)
    members = sub.sorted_in(ring)
    whole = set(explored) <= set(members)
    payload = {"center_subobject": members, "whole_basis": whole,
               "center_group": desc.to_json()}
    group_name = desc.name or (f"order {desc.order}" if desc.order else "infinite")
    text = ("center subobject = entire explored basis; " if whole
            else f"center subobject = {{{', '.join(members)}}}; ")
    text += f"center group: {group_name}"
    emit(payload, fmt, table_text=text, dot=lambda: dot)


@command("cosets", ("--sigma", {"help": "Comma-separated subobject labels."}),
         ("--sigma-file", {"help": "JSON list of labels."}))
def cosets(ring, depth, fmt, sigma, sigma_file):
    """Sigma-coset partition for a given subobject."""
    sub = parse_sigma(sigma, sigma_file)
    part = sigma_cosets(ring, sub, depth)
    emit(part.to_json(), fmt, table_text=partition_table(part),
         dot=lambda: merge_graph_dot(ring, depth))


@command("central-subobjects")
def central_subobjects_cmd(ring, depth, fmt):
    """All central subobjects of a finite explicit ring, sorted by size."""
    subs = enumerate_central_subobjects(ring)
    payload = [sub.sorted_in(ring) for sub in subs]
    text = "\n".join("{" + ", ".join(m) + "}" for m in payload)
    emit(payload, fmt, table_text=text)


@command("is-normal", ("--restriction", {"dest": "restriction_file", "required": True}),
         ring=lambda *given: given)
def is_normal_cmd(given, depth, fmt, restriction_file):
    """Normality of a quantum subgroup given as restriction data."""
    r = load_restriction(restriction_file, *given, depth)
    res = is_normal(r, depth)
    payload = {"normal": res.normal, "checked_depth": res.checked_depth,
               "witness": list(res.witness) if res.witness else None}
    text = ("normal" if res.normal
            else f"not normal; witness {res.witness[0]} has trivial-multiplicity "
                 f"{res.witness[1]} of dimension {res.witness[2]}")
    if res.checked_depth is not None:
        text += f" (to depth {res.checked_depth})"
    emit(payload, fmt, table_text=text)
    if not res.normal:
        sys.exit(EXIT_NEGATIVE)


@command("is-central", ("--restriction", {"dest": "restriction_file", "required": True}),
         ring=lambda *given: given)
def is_central_cmd(given, depth, fmt, restriction_file):
    """Centrality of a quantum subgroup given as restriction data."""
    r = load_restriction(restriction_file, *given, depth)
    res = is_central_subgroup(r, depth)
    payload = {"central": res.central, "checked_depth": res.checked_depth,
               "witness": [res.witness[0], res.witness[1]] if res.witness else None,
               "assignment": res.assignment}
    text = ("central" if res.central
            else f"not central; witness {res.witness[0]} restricts to {res.witness[1]}")
    if res.checked_depth is not None:
        text += f" (to depth {res.checked_depth})"
    emit(payload, fmt, table_text=text)
    if not res.central:
        sys.exit(EXIT_NEGATIVE)


@command("grouplikes")
def grouplikes_cmd(ring, depth, fmt):
    """Group of dimension-1 basis elements (dual of the abelianization)."""
    table, desc = grouplikes_group(ring, depth)
    payload = {"elements": list(table.labels), "table": table.to_json(),
               "group": desc.to_json()}
    emit(payload, fmt,
         table_text=f"grouplikes: {{{', '.join(table.labels)}}} = {desc.name}")


def _map_line(auto) -> str:
    return ("identity" if auto.is_identity
            else " ".join(f"{x}->{y}" for x, y in auto.mapping if x != y))


@command("automorphisms")
def automorphisms_cmd(ring, depth, fmt):
    """Fusion-ring automorphisms (generator-level for generated rings)."""
    autos = automorphisms(ring, depth)
    payload = {"count": len(autos),
               "automorphisms": [a.to_json() for a in autos],
               "depth": ring.checked_depth(depth)}
    emit(payload, fmt, table_text="\n".join(map(_map_line, autos)))


@command("automorphism-group")
def automorphism_group_cmd(ring, depth, fmt):
    """Order, transversal sizes and generators of the automorphism group."""
    group = automorphism_group(ring, depth)
    payload = {"order": group.order, "transversal_sizes": list(group.transversal_sizes),
               "generators": [g.to_json() for g in group.generators], "depth": group.depth}
    emit(payload, fmt, table_text="\n".join([f"order: {group.order}",
                                              *map(_map_line, group.generators)]))


@command("catalog", ring=None)
def catalog_cmd():
    """List the built-in catalog names."""
    print(CATALOG_HELP)


def _main():
    try:
        args = vars(PARSER.parse_args())
        args.pop("run")(**args)
    except FusionRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


if __name__ == "__main__":
    _main()
