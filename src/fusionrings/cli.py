"""Command-line front end.

Exit codes: 0 success, 1 domain negative (invalid ring, NotNormal,
NotCentral -- the witness is printed), 2 input/usage error, 3 oracle
cross-validation failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import catalog as cat
from .automorph import automorphisms
from .central import (
    chain_group,
    chain_oracle,
    enumerate_central_subobjects,
    center_subobject,
    merge_closure,
    sigma_cosets,
)
from .errors import FusionRingError
from .ring import FusionRing, Subobject, validate_ring
from .serialize import canonical_json, merge_graph_dot, partition_table
from .subgroups import (
    RestrictionData,
    grouplikes,
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


def _int_param(name: str) -> int:
    """The integer after the colon of a catalog name such as zn:N."""
    text = name.split(":", 1)[1]
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(f"catalog name {name!r}: {text!r} is not an integer") from None


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
            left, *rest = cat.split_outside_brackets(name[len(prefix):], "+")
            right = "+".join(rest)  # split at the first top-level +
            if not (left and right):
                raise click.UsageError(f"catalog name {name!r} needs two factors, {prefix}NAME+NAME: "
                                       f"its {'second' if left else 'first'} factor is missing")
            left, right = (p[1:-1] if p[:1] == "(" and p[-1:] == ")" else p for p in (left, right))
            return ctor(resolve_catalog(left), resolve_catalog(right))
    raise click.UsageError(f"unknown catalog name {name!r}")


CATALOG_HELP = ("su2 | so3 | au[:n] | z | zn:N | s3 | klein | reps3 | repz4 | "
                "group:FILE | repring:FILE | free:NAME+NAME | prod:NAME+NAME")


def resolve_ring(ring_file, catalog_name, validate=True) -> FusionRing:
    if (ring_file is None) == (catalog_name is None):
        raise click.UsageError("exactly one of --ring/--catalog is required")
    if catalog_name is not None:
        return resolve_catalog(catalog_name)
    if Path(ring_file).exists():
        return cat.load_ring(ring_file, validate=validate)
    # leniency: accept a catalog name through --ring as well
    return resolve_catalog(ring_file)


_RESTRICTION_RULES = {
    "su2_parity": lambda src, tgt: su2_parity_restriction(src, tgt),
    "su2_weights": lambda src, tgt: su2_weight_restriction(src, tgt),
    "identity": lambda src, tgt: identity_restriction(src),
    "trivial": lambda src, tgt: trivial_restriction(src, tgt),
}


def load_restriction(path) -> RestrictionData:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"unreadable restriction file: {exc}")
    try:
        source = resolve_ring(doc["source"], None)
        target = resolve_ring(doc["target"], None)
        if "rule" in doc:
            make = _RESTRICTION_RULES[doc["rule"]]
            return make(source, target)
        mapping = {entry["from"]: {t["label"]: int(t["n"]) for t in entry["to"]}
                   for entry in doc["map"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad restriction file: {exc}")
    return RestrictionData.from_dict(source, target, mapping,
                                     name=Path(path).stem)


def ring_options(f):
    f = click.option("--ring", "ring_file", default=None,
                     help="Ring JSON file (or a catalog name).")(f)
    f = click.option("--catalog", "catalog_name", default=None,
                     help=f"Catalog ring: {CATALOG_HELP}")(f)
    f = click.option("--depth", default=6, show_default=True,
                     type=click.IntRange(min=0),
                     help="Exploration depth for generated rings.")(f)
    f = click.option("--format", "fmt", default="json", show_default=True,
                     type=click.Choice(["json", "table", "dot"]))(f)
    return f


def emit(payload, fmt, table_text=None, dot=None):
    """Print the payload in `fmt`; `dot` renders the DOT text on demand."""
    if fmt == "json":
        click.echo(canonical_json(payload), nl=False)
    elif fmt == "table":
        click.echo(table_text if table_text is not None else str(payload))
    else:
        if dot is None:
            raise click.UsageError("dot format not available for this command")
        click.echo(dot(), nl=False)


def run_oracle_check(ring: FusionRing, depth: int):
    fast = merge_closure(ring, depth)
    slow = chain_oracle(ring, max_len=6)
    if fast.same_partition(slow):
        return
    # minimized counterexample: first label pair the two partitions disagree on
    labels = ring.labels()
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            in_fast = fast.block_of[a] == fast.block_of[b]
            in_slow = slow.block_of[a] == slow.block_of[b]
            if in_fast != in_slow:
                click.echo(f"oracle-check failed: ({a}, {b}) merged={in_fast} "
                           f"brute-force={in_slow}", err=True)
                sys.exit(EXIT_ORACLE)
    sys.exit(EXIT_ORACLE)


def parse_sigma(ring, sigma, sigma_file, depth) -> Subobject:
    from .ring import check_subobject

    if (sigma is None) == (sigma_file is None):
        raise click.UsageError("exactly one of --sigma/--sigma-file is required")
    if sigma is not None:
        members = [s.strip() for s in sigma.split(",") if s.strip()]
    else:
        try:
            members = json.loads(Path(sigma_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"unreadable sigma file: {exc}")
        if not (isinstance(members, list) and all(isinstance(m, str) for m in members)):
            raise click.UsageError("sigma file must hold a JSON list of labels")
    return check_subobject(ring, members, depth=depth)


@click.group()
def main():
    """Fusion-ring computations: chain groups, centers, cosets, subgroup
    tests and automorphisms."""


@main.command()
@ring_options
def validate(ring_file, catalog_name, depth, fmt):
    """Check the fusion-ring axioms; nonempty report exits 1."""
    ring = resolve_ring(ring_file, catalog_name, validate=False)
    report = validate_ring(ring, depth)
    payload = {"valid": report.ok,
               "checked_depth": report.checked_depth,
               "violations": [{"axiom": v.axiom, "witness": list(v.witness),
                               "detail": v.detail} for v in report.violations]}
    emit(payload, fmt, table_text=str(report))
    if not report.ok:
        sys.exit(EXIT_NEGATIVE)


@main.command()
@ring_options
def info(ring_file, catalog_name, depth, fmt):
    """Basis summary of a ring (explored part for generated rings)."""
    ring = resolve_ring(ring_file, catalog_name)
    labels = ring.elements(depth)
    payload = {"name": ring.name, "kind": ring.kind, "unit": ring.unit,
               "size": len(labels),
               "basis": [{"label": l, "dim": ring.dim(l), "dual": ring.dual(l)}
                         for l in labels]}
    text = "\n".join(f"{l} dim={ring.dim(l)} dual={ring.dual(l)}" for l in labels)
    emit(payload, fmt, table_text=text)


@main.command()
@ring_options
@click.argument("a")
@click.argument("b")
def product(ring_file, catalog_name, depth, fmt, a, b):
    """Fusion product a x b with multiplicities."""
    ring = resolve_ring(ring_file, catalog_name)
    supp = ring.product(a, b)
    ordered = sorted(supp.items(), key=lambda kv: kv[0])
    emit({"a": a, "b": b, "support": dict(ordered)}, fmt,
         table_text=" + ".join(f"{n}*{c}" if n > 1 else c for c, n in ordered))


@main.command(name="chain-group")
@ring_options
@click.option("--oracle-check", is_flag=True)
def chain_group_cmd(ring_file, catalog_name, depth, fmt, oracle_check):
    """Chain group of the ring (dual of the center)."""
    ring = resolve_ring(ring_file, catalog_name)
    if oracle_check:
        run_oracle_check(ring, depth)
    _, desc = chain_group(ring, depth)
    payload = desc.to_json()
    text = (f"order: {desc.order}  abelian: {desc.is_abelian}  "
            f"invariants: {desc.abelian_invariants}  flag: {desc.flag}"
            + (f"  name: {desc.name}" if desc.name else ""))
    emit(payload, fmt, table_text=text, dot=lambda: merge_graph_dot(ring, depth))


@main.command()
@ring_options
@click.option("--oracle-check", is_flag=True)
def center(ring_file, catalog_name, depth, fmt, oracle_check):
    """Center subobject and center group."""
    ring = resolve_ring(ring_file, catalog_name)
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


@main.command()
@ring_options
@click.option("--sigma", default=None, help="Comma-separated subobject labels.")
@click.option("--sigma-file", default=None, help="JSON list of labels.")
def cosets(ring_file, catalog_name, depth, fmt, sigma, sigma_file):
    """Sigma-coset partition for a given subobject."""
    ring = resolve_ring(ring_file, catalog_name)
    sub = parse_sigma(ring, sigma, sigma_file, depth)
    part = sigma_cosets(ring, sub, depth)
    emit(part.to_json(), fmt, table_text=partition_table(part),
         dot=lambda: merge_graph_dot(ring, depth))


@main.command(name="central-subobjects")
@ring_options
def central_subobjects_cmd(ring_file, catalog_name, depth, fmt):
    """All central subobjects of a finite explicit ring, sorted by size."""
    ring = resolve_ring(ring_file, catalog_name)
    subs = enumerate_central_subobjects(ring)
    payload = [sub.sorted_in(ring) for sub in subs]
    text = "\n".join("{" + ", ".join(m) + "}" for m in payload)
    emit(payload, fmt, table_text=text)


@main.command(name="is-normal")
@ring_options
@click.option("--restriction", "restriction_file", required=True)
def is_normal_cmd(ring_file, catalog_name, depth, fmt, restriction_file):
    """Normality of a quantum subgroup given as restriction data."""
    r = load_restriction(restriction_file)
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


@main.command(name="is-central")
@ring_options
@click.option("--restriction", "restriction_file", required=True)
def is_central_cmd(ring_file, catalog_name, depth, fmt, restriction_file):
    """Centrality of a quantum subgroup given as restriction data."""
    r = load_restriction(restriction_file)
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


@main.command(name="grouplikes")
@ring_options
def grouplikes_cmd(ring_file, catalog_name, depth, fmt):
    """Group of dimension-1 basis elements (dual of the abelianization)."""
    from .central import identify_group

    ring = resolve_ring(ring_file, catalog_name)
    table = grouplikes(ring, depth)
    desc = identify_group(table)
    payload = {"elements": list(table.labels), "table": table.to_json(),
               "group": desc.to_json()}
    emit(payload, fmt,
         table_text=f"grouplikes: {{{', '.join(table.labels)}}} = {desc.name}")


@main.command(name="automorphisms")
@ring_options
def automorphisms_cmd(ring_file, catalog_name, depth, fmt):
    """Fusion-ring automorphisms (generator-level for generated rings)."""
    ring = resolve_ring(ring_file, catalog_name)
    autos = automorphisms(ring, depth)
    payload = {"count": len(autos),
               "automorphisms": [a.to_json() for a in autos],
               "depth": ring.checked_depth(depth)}
    text = "\n".join(
        "identity" if a.is_identity else
        " ".join(f"{x}->{y}" for x, y in a.mapping if x != y)
        for a in autos)
    emit(payload, fmt, table_text=text)


@main.command(name="catalog")
def catalog_cmd():
    """List the built-in catalog names."""
    click.echo(CATALOG_HELP)


def _main():
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INPUT)
    except click.exceptions.Abort:
        sys.exit(EXIT_INPUT)
    except FusionRingError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)


if __name__ == "__main__":
    _main()
