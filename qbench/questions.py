"""The four workloads: their set-up, their questions and each question's
hand-written reference (see reference.py).

A question is one call into the library (or one CLI invocation) whose
answer is reduced to a small dict of facts and compared with the
reference.  Every fact of the reference must be present and equal.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import fusionrings as fr

import reference as ref


@dataclass(frozen=True)
class Question:
    qid: str
    ask: Callable[[dict], Any]        # the timed call; gets the workload context
    facts: Callable[[Any], dict]      # answer -> facts, computed untimed
    expect: dict                      # the reference: facts that must match


def mismatches(facts: dict, expect: dict) -> list[str]:
    """Keys of the reference the answer misses or disagrees on."""
    out = []
    for key, want in expect.items():
        if key not in facts:
            out.append(f"{key}: missing")
        elif facts[key] != want:
            out.append(f"{key}: got {facts[key]!r}, want {want!r}")
    return out


def digest(facts: dict) -> str:
    return hashlib.sha256(json.dumps(facts, sort_keys=True, default=repr)
                          .encode()).hexdigest()[:16]


# ------------------------------------------------------------ fact readers


def chain_facts(answer) -> dict:
    _, desc = answer
    doc = desc.to_json()
    pres = doc.get("presentation")
    return {"order": doc["order"], "abelian": doc["abelian"],
            "invariants": doc["invariants"], "flag": doc["flag"],
            "name": doc.get("name"),
            "generators": len(pres["generators"]) if pres else None,
            "relations": pres["relations"] if pres else None}


def finite_chain(order, abelian, invariants, flag="exact", name=None) -> dict:
    out = {"order": order, "abelian": abelian, "invariants": invariants, "flag": flag}
    if name is not None:
        out["name"] = name
    return out


def infinite_cyclic(flag) -> dict:
    return {"order": None, "generators": 1, "relations": [], "flag": flag}


def members_facts(sub) -> dict:
    return {"members": sorted(sub.members)}


def window_members(window):
    def facts(sub):
        return {"members_in_window": sorted(set(sub.members) & set(window))}
    return facts


def blocks_facts(part) -> dict:
    return {"blocks": sorted(sorted(b) for b in part.blocks)}


def count_facts(answer) -> dict:
    return {"count": len(answer)}


def valid_facts(report) -> dict:
    return {"valid": report.ok, "violations": len(report.violations)}


def stable(d):
    return f"stable_at_depth({d})"


def group_table(cayley):
    mult, identity = cayley
    return fr.GroupTable(mult, identity, tuple(str(i) for i in range(len(mult))))


# ------------------------------------------------------ generated-chain
# Each question builds its ring afresh, so the product memo starts cold.


def z2_ring():
    return fr.group_ring(fr.cyclic_group(2))


GENERATED = {
    "su2": fr.su2_ring,
    "so3": fr.so3_ring,
    "z": fr.z_group_ring,
    "au2": lambda: fr.au_word_ring(2),
    "su2*z2": lambda: fr.free_product(fr.su2_ring(), z2_ring()),
    "su2xsu2": lambda: fr.direct_product(fr.su2_ring(), fr.su2_ring()),
    "su2xso3": lambda: fr.direct_product(fr.su2_ring(), fr.so3_ring()),
}


def _fresh_chain(ring, depth, expect):
    return Question(f"chain_group:{ring}:d{depth}",
                    lambda ctx: fr.chain_group(GENERATED[ring](), depth),
                    chain_facts, expect)


def _fresh_center(ring, depth, window, grade):
    return Question(f"center_subobject:{ring}:d{depth}",
                    lambda ctx: fr.center_subobject(GENERATED[ring](), depth),
                    window_members(window),
                    {"members_in_window": sorted(x for x in window if grade(x) == 0)})


def generated_chain_questions() -> list[Question]:
    qs = [_fresh_chain("au2", d, infinite_cyclic(stable(d))) for d in (5, 6)]
    qs += [_fresh_chain("su2", d, finite_chain(2, True, [2], stable(d)))
           for d in (40, 50, 60, 70, 80)]
    qs += [_fresh_chain("so3", 40, finite_chain(1, True, [], stable(40))),
           _fresh_chain("z", 40, infinite_cyclic(stable(40))),
           # Z/2 * Z/2: infinite, generated by the two factor classes
           _fresh_chain("su2*z2", 6, {"order": None, "generators": 2, "flag": stable(6)})]
    qs += [_fresh_chain("su2xsu2", d, finite_chain(4, True, [2, 2], stable(d)))
           for d in (8, 10, 12)]
    qs.append(_fresh_chain("su2xso3", 8, finite_chain(2, True, [2], stable(8))))
    qs += [_fresh_center("su2", d, ref.su2_window(d), ref.su2_grade) for d in (40, 60)]
    qs += [_fresh_center("so3", 40, ref.so3_window(40), lambda x: 0),
           _fresh_center("z", 40, ref.z_window(40), lambda x: int(x[1:])),
           _fresh_center("au2", 5, ref.au_window(5), ref.au_grade)]
    return qs


def generated_chain_setup() -> dict:
    for make in GENERATED.values():
        make()
    return {}


# --------------------------------------------------- explicit-structure

ZN = (16, 24, 32, 40, 48)
S3 = ["e", "r", "r2", "s", "sr", "sr2"]
KLEIN = ["e", "a", "b", "ab"]
REPS3 = ["1", "sgn", "rho"]
REPZ4 = ["chi0", "chi1", "chi2", "chi3"]


def zn_labels(n):
    return ["e"] + [f"g{k}" for k in range(1, n)]


def pair(a, b):
    return f"({a},{b})"


def explicit_setup() -> dict:
    ctx = {f"Z/{n}": fr.group_ring(fr.cyclic_group(n)) for n in ZN}
    ctx["s3"] = fr.group_ring(fr.s3_group())
    ctx["klein"] = fr.group_ring(fr.klein_group())
    ctx["reps3"] = fr.rep_s3_ring()
    ctx["repz4"] = fr.rep_z4_ring()
    ctx["reps3^3"] = fr.direct_product(fr.direct_product(ctx["reps3"], ctx["reps3"]),
                                       ctx["reps3"])
    ctx["kleinxz2"] = fr.direct_product(ctx["klein"], z2_ring())
    ctx["s3xreps3"] = fr.direct_product(ctx["s3"], ctx["reps3"])
    return ctx


def _explicit_reference() -> dict:
    """Per ring: labels, chain group, center subobject, number of central
    subobjects (normal subgroups of the chain group), automorphism count
    and the chain classes (fibres of the universal grading)."""
    reps3_all = [pair(pair(a, b), c) for a in REPS3 for b in REPS3 for c in REPS3]
    klein_z2 = [pair(a, b) for a in KLEIN for b in ("e", "g1")]
    s3_reps3 = [pair(g, x) for g in S3 for x in REPS3]
    out = {}
    for n in ZN:
        out[f"Z/{n}"] = dict(labels=zn_labels(n),
                             chain=finite_chain(n, True, [n], name=f"C{n}"),
                             candidates={f"C{n}": ref.cyclic_cayley(n)},
                             center=["e"], centrals=ref.num_divisors(n),
                             autos=ref.euler_phi(n),
                             classes=ref.singletons(zn_labels(n)))
    out["s3"] = dict(labels=S3, chain=finite_chain(6, False, None, name="S3"),
                     candidates={"C6": ref.cyclic_cayley(6), "S3": ref.s3_cayley()},
                     center=["e"], centrals=3, autos=6, classes=ref.singletons(S3))
    out["klein"] = dict(labels=KLEIN, chain=finite_chain(4, True, [2, 2], name="V4"),
                        candidates={"C4": ref.cyclic_cayley(4),
                                    "V4": ref.elementary_abelian_cayley(2)},
                        center=["e"], centrals=5, autos=6, classes=ref.singletons(KLEIN))
    # Rep(S3): the universal grading group is the dual of Z(S3) = 1
    out["reps3"] = dict(labels=REPS3, chain=finite_chain(1, True, []), candidates=None,
                        center=sorted(REPS3), centrals=1, autos=1, classes=[sorted(REPS3)])
    # Rep(Z4): grading group dual of Z4, chi_k in class k
    out["repz4"] = dict(labels=REPZ4, chain=finite_chain(4, True, [4], name="C4"),
                        candidates={"C4": ref.cyclic_cayley(4)},
                        center=["chi0"], centrals=3, autos=2,
                        classes=ref.singletons(REPZ4))
    # three commuting copies of Rep(S3): trivial grading; the only
    # automorphisms permute the factors (3! = 6)
    out["reps3^3"] = dict(labels=reps3_all, chain=finite_chain(1, True, []),
                          candidates=None, center=sorted(reps3_all), centrals=1,
                          autos=6, classes=[sorted(reps3_all)])
    # (Z/2)^3: 16 subgroups, |GL(3,2)| = 168 automorphisms
    out["kleinxz2"] = dict(labels=klein_z2,
                           chain=finite_chain(8, True, [2, 2, 2], name="Z2^3"),
                           candidates={"C8": ref.cyclic_cayley(8),
                                       "Z2^3": ref.elementary_abelian_cayley(3)},
                           center=[pair("e", "e")], centrals=16, autos=168,
                           classes=ref.singletons(klein_z2))
    # S3 x Rep(S3): grading group S3; the grouplikes S3 x Z/2 have
    # |Aut(S3)| * |Hom(S3, Z/2)| = 12 automorphisms, all fixing (e, rho)
    out["s3xreps3"] = dict(labels=s3_reps3, chain=finite_chain(6, False, None, name="S3"),
                           candidates={"C6": ref.cyclic_cayley(6), "S3": ref.s3_cayley()},
                           center=sorted(pair("e", x) for x in REPS3), centrals=3,
                           autos=12,
                           classes=ref.partition_by(s3_reps3, lambda l: l[1:l.index(",")]))
    return out


def _twisted_chain(ctx, name, qid):
    """chain_group after reassigning every dimension at random (seeded):
    the chain relation ignores dimensions."""
    ring = ctx[name]
    rng = random.Random(f"{ctx['seed']}:{qid}")
    labels = ring.labels()
    basis = [fr.BasisElement(l, rng.randint(1, 9)) for l in labels]
    fusion = {(a, b): ring.product(a, b) for a in labels for b in labels}
    dual = {a: ring.dual(a) for a in labels}
    return fr.chain_group(fr.FusionRing.explicit(basis, ring.unit, dual, fusion))


def explicit_questions() -> list[Question]:
    R = _explicit_reference()
    small = ["s3", "klein", "reps3", "repz4", "kleinxz2", "s3xreps3"]
    qs = []
    for name in [f"Z/{n}" for n in ZN] + small + ["reps3^3"]:
        qs.append(Question(f"validate_ring:{name}",
                           lambda ctx, name=name: fr.validate_ring(ctx[name]),
                           valid_facts, {"valid": True, "violations": 0}))
    for name in ["Z/16", "Z/24"] + small + ["reps3^3"]:
        qs.append(Question(f"center_subobject:{name}",
                           lambda ctx, name=name: fr.center_subobject(ctx[name]),
                           members_facts, {"members": R[name]["center"]}))
    for name in ["Z/16", "Z/24"] + small:
        qs.append(Question(f"enumerate_central_subobjects:{name}",
                           lambda ctx, name=name: fr.enumerate_central_subobjects(ctx[name]),
                           count_facts, {"count": R[name]["centrals"]}))
    for name in ["Z/16", "Z/24", "Z/32"] + small + ["reps3^3"]:
        qs.append(Question(f"automorphisms:{name}",
                           lambda ctx, name=name: fr.automorphisms(ctx[name]),
                           count_facts, {"count": R[name]["autos"]}))
    for name in [f"Z/{n}" for n in ZN] + small + ["reps3^3"]:
        cands = R[name]["candidates"]
        tables = ({k: group_table(v) for k, v in cands.items()} if cands else None)
        qs.append(Question(f"chain_group+identify:{name}",
                           lambda ctx, name=name, tables=tables:
                           fr.chain_group(ctx[name], candidates=tables),
                           chain_facts, R[name]["chain"]))
    for name in ["Z/16"] + small + ["reps3^3"]:
        qs.append(Question(f"chain_oracle:{name}",
                           lambda ctx, name=name: fr.chain_oracle(ctx[name]),
                           blocks_facts, {"blocks": R[name]["classes"]}))
    for name in ["Z/16", "s3", "klein", "repz4", "s3xreps3", "reps3^3"]:
        want = {k: v for k, v in R[name]["chain"].items() if k != "name"}
        qid = f"chain_group:twisted-dims:{name}"
        qs.append(Question(qid, lambda ctx, name=name, qid=qid: _twisted_chain(ctx, name, qid),
                           chain_facts, want))
    return qs


# ------------------------------------------------------ session-queries
# One set of rings, built once; questions share their product memos.

SESSION_DEPTH = 30


def session_setup() -> dict:
    su2, so3, au2, z2, z = (fr.su2_ring(), fr.so3_ring(), fr.au_word_ring(2),
                            z2_ring(), fr.z_group_ring())
    ctx = {"su2": su2, "so3": so3, "au2": au2, "z": z,
           "su2*z2": fr.free_product(su2, z2),
           "parity": fr.su2_parity_restriction(su2, z2),
           "weights": fr.su2_weight_restriction(su2, z)}
    # explore each window the questions use
    for name, depth in (("su2", SESSION_DEPTH + 1), ("so3", SESSION_DEPTH + 1),
                        ("au2", 7), ("su2*z2", 7), ("z", SESSION_DEPTH)):
        ctx[name].elements(depth)
    return ctx


def _sub(labels):
    return fr.Subobject(frozenset(labels))


def _restriction_q(kind, name, expect):
    d = SESSION_DEPTH
    if kind == "is_normal":
        ask = lambda ctx: fr.is_normal(ctx[name], d)
        facts = lambda r: {"normal": r.normal, "witness": r.witness[0] if r.witness else None}
    elif kind == "is_central_subgroup":
        ask = lambda ctx: fr.is_central_subgroup(ctx[name], d)
        facts = lambda r: {"central": r.central,
                           "witness": r.witness[0] if r.witness else None}
    else:
        ask = lambda ctx: fr.central_subgroup_cross_check(ctx[name], d)
        facts = lambda r: {"central": r}
    return Question(f"{kind}:{name}:d{d}", ask, facts, expect)


def _central_facts(res):
    return {"central": res.central,
            "table_order": res.table.size if res.table is not None else None}


def session_questions() -> list[Question]:
    d = SESSION_DEPTH
    qs = [
        _restriction_q("is_normal", "parity", {"normal": True, "witness": None}),
        _restriction_q("is_normal", "weights", {"normal": False, "witness": "V2"}),
        _restriction_q("is_central_subgroup", "parity", {"central": True, "witness": None}),
        _restriction_q("is_central_subgroup", "weights", {"central": False, "witness": "V1"}),
        _restriction_q("cross_check", "parity", {"central": True}),
        _restriction_q("cross_check", "weights", {"central": False}),
    ]
    su2w, so3w, auw, zw = (ref.su2_window(d), ref.so3_window(20), ref.au_window(4),
                           ref.z_window(d))
    # (ring, depth, subobject, its cosets, central?, order of the coset group
    # when the explored blocks close up)
    subobjects = [
        ("su2", d, "unit", ["V0"], ref.singletons(su2w), False, None),
        ("su2", d, "even", [x for x in su2w if ref.su2_grade(x) == 0],
         ref.partition_by(su2w, ref.su2_grade), True, 2),
        ("so3", 20, "unit", ["W0"], ref.singletons(so3w), False, None),
        ("so3", 20, "whole", so3w, [sorted(so3w)], True, 1),
        ("au2", 4, "unit", ["e"], ref.singletons(auw), False, None),
        # the balanced words up to length 8: every constituent a x dual(b)
        # of two window elements can meet
        ("au2", 4, "balanced", [x for x in ref.au_window(8) if ref.au_grade(x) == 0],
         ref.partition_by(auw, ref.au_grade), True, None),
        ("z", d, "unit", ["z0"], ref.singletons(zw), True, None),
    ]
    for ring, depth, tag, members, blocks, central, order in subobjects:
        sub = _sub(members)
        qs.append(Question(f"sigma_cosets:{ring}:{tag}:d{depth}",
                           lambda ctx, ring=ring, sub=sub, depth=depth:
                           fr.sigma_cosets(ctx[ring], sub, depth),
                           blocks_facts, {"blocks": blocks}))
        qs.append(Question(f"is_central_subobject:{ring}:{tag}:d{depth}",
                           lambda ctx, ring=ring, sub=sub, depth=depth:
                           fr.is_central_subobject(ctx[ring], sub, depth),
                           _central_facts, {"central": central, "table_order": order}))
    grouplike = [("su2*z2", 6, ["2:g1", "e"]), ("su2", d, ["V0"]), ("so3", d, ["W0"]),
                 ("au2", 5, ["e"])]
    for ring, depth, elems in grouplike:
        qs.append(Question(f"grouplikes:{ring}:d{depth}",
                           lambda ctx, ring=ring, depth=depth: fr.grouplikes(ctx[ring], depth),
                           lambda t: {"elements": sorted(t.labels), "order": t.size},
                           {"elements": elems, "order": len(elems)}))
    for depth in (3, 4):  # identity and u <-> v
        qs.append(Question(f"automorphisms:au2:d{depth}",
                           lambda ctx, depth=depth: fr.automorphisms(ctx["au2"], depth),
                           count_facts, {"count": 2}))
    words = [("su2", ["V1"] * 8, ref.su2_tensor_power(8)),
             ("so3", ["W1"] * 6, ref.so3_tensor_power(6)),
             ("z", ["z1", "z1", "z-1", "z1"], {"z2": 1}),
             # u x v = uv + e, then (uv) x u = uvu + u and e x u = u
             ("au2", ["u", "v", "u"], {"uvu": 1, "u": 2})]
    for ring, word, support in words:
        qs.append(Question(f"product_word:{ring}:{'.'.join(word)}",
                           lambda ctx, ring=ring, word=word: ctx[ring].product_word(word),
                           lambda s: {"support": dict(sorted(s.items()))},
                           {"support": dict(sorted(support.items()))}))
    warm = [("au2", 6, infinite_cyclic(stable(6))),
            ("su2", d, finite_chain(2, True, [2], stable(d))),
            ("so3", d, finite_chain(1, True, [], stable(d))),
            ("su2*z2", 5, {"order": None, "generators": 2, "flag": stable(5)}),
            ("z", d, infinite_cyclic(stable(d)))]
    for ring, depth, expect in warm:
        qs.append(Question(f"chain_group:{ring}:d{depth}:warm",
                           lambda ctx, ring=ring, depth=depth: fr.chain_group(ctx[ring], depth),
                           chain_facts, expect))
    return qs


# ------------------------------------------------------------------ cli
# One fresh process per question; ctx["cli"] runs an argument list and
# returns (exit code, stdout, stderr).

INPUT_ERROR = {"rc": 2, "error_line": True, "traceback": False}

# Invocations that break the exit-code contract at the time the benchmark
# was written; they stay in the mix and count as failures.
KNOWN_DEFECTS = frozenset({
    "cli:chain-group --catalog zn:abc",
    "cli:cosets --catalog repz4 --sigma-file {missing}",
    "cli:product --catalog su2 V1 X3",
})


def cli_facts(pick):
    def facts(out):
        rc, stdout, stderr = out
        doc = {"rc": rc, "traceback": "Traceback" in stderr,
               "error_line": any(l.startswith("error:") for l in stderr.splitlines()),
               "stdout_sha": hashlib.sha256(stdout.encode()).hexdigest()[:16]}
        if pick is not None and rc in (0, 1):
            try:
                doc.update(pick(stdout))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                doc["unreadable_output"] = repr(exc)
        return doc
    return facts


def _chain_pick(stdout):
    doc = json.loads(stdout)
    pres = doc.get("presentation")
    return {"order": doc["order"], "invariants": doc["invariants"],
            "abelian": doc["abelian"], "flag": doc["flag"],
            "generators": len(pres["generators"]) if pres else None}


def _dot_pick(stdout):
    nodes, edges = [], []
    for line in stdout.splitlines():
        line = line.strip()
        if " -- " in line:
            a, b = line.rstrip(";").split(" -- ")
            edges.append((a.strip('"'), b.strip('"')))
        elif "[label=" in line:
            nodes.append(line.split('"')[1])
    return {"nodes": nodes, "edges_nonempty": bool(edges),
            "edges_within_parity": all(ref.su2_grade(a) == ref.su2_grade(b)
                                       for a, b in edges)}


def _center_pick(window):
    def pick(stdout):
        doc = json.loads(stdout)
        members = doc["center_subobject"]
        return {"center_in_window": sorted(set(members) & set(window)),
                "center_group_order": doc["center_group"]["order"]}
    return pick


def _cli(argv, pick, expect):
    return Question("cli:" + " ".join(argv), lambda ctx: ctx["cli"](argv),
                    cli_facts(pick), expect)


def cli_questions() -> list[Question]:
    ok = {"rc": 0, "traceback": False}
    su2_30 = ref.su2_window(30)
    return [
        _cli(["chain-group", "--catalog", "su2"], _chain_pick,
             dict(ok, order=2, invariants=[2], flag=stable(6))),
        _cli(["chain-group", "--catalog", "au", "--depth", "4"], _chain_pick,
             dict(ok, order=None, generators=1, flag=stable(4))),
        _cli(["center", "--catalog", "repz4"], _center_pick(REPZ4),
             dict(ok, center_in_window=["chi0"], center_group_order=4)),
        _cli(["cosets", "--catalog", "repz4", "--sigma", "chi0,chi2"],
             lambda s: {"blocks": sorted(sorted(b) for b in json.loads(s)["blocks"])},
             dict(ok, blocks=[["chi0", "chi2"], ["chi1", "chi3"]])),
        _cli(["central-subobjects", "--catalog", "reps3"],
             lambda s: {"subobjects": [sorted(m) for m in json.loads(s)]},
             dict(ok, subobjects=[sorted(REPS3)])),
        _cli(["grouplikes", "--catalog", "free:su2+zn:2", "--depth", "4"],
             lambda s: {"elements": sorted(json.loads(s)["elements"]),
                        "order": json.loads(s)["group"]["order"]},
             dict(ok, elements=["2:g1", "e"], order=2)),
        _cli(["automorphisms", "--catalog", "klein"],
             lambda s: {"count": json.loads(s)["count"]}, dict(ok, count=6)),
        _cli(["validate", "--catalog", "zn:32"],
             lambda s: {"valid": json.loads(s)["valid"]}, dict(ok, valid=True)),
        _cli(["validate", "--catalog", "au", "--depth", "4"],
             lambda s: {"valid": json.loads(s)["valid"],
                        "checked_depth": json.loads(s)["checked_depth"]},
             dict(ok, valid=True, checked_depth=4)),
        _cli(["is-normal", "--catalog", "su2", "--restriction", "{parity}"],
             lambda s: {"normal": json.loads(s)["normal"]}, dict(ok, normal=True)),
        _cli(["is-normal", "--catalog", "su2", "--restriction", "{weights}", "--depth", "10"],
             lambda s: {"normal": json.loads(s)["normal"],
                        "witness": json.loads(s)["witness"][0]},
             {"rc": 1, "traceback": False, "normal": False, "witness": "V2"}),
        _cli(["chain-group", "--catalog", "su2", "--format", "dot"], _dot_pick,
             dict(ok, nodes=ref.su2_window(6), edges_nonempty=True,
                  edges_within_parity=True)),
        _cli(["chain-group", "--catalog", "au", "--depth", "6"], _chain_pick,
             dict(ok, order=None, generators=1, flag=stable(6))),
        _cli(["center", "--catalog", "su2", "--depth", "30"], _center_pick(su2_30),
             dict(ok, center_in_window=sorted(x for x in su2_30 if ref.su2_grade(x) == 0),
                  center_group_order=2)),
        _cli(["chain-group", "--catalog", "s3", "--oracle-check"], _chain_pick,
             dict(ok, order=6, abelian=False, flag="exact")),
        # malformed invocations: exit 2 with an "error:" line, no traceback
        _cli(["chain-group", "--catalog", "zn:abc"], None, INPUT_ERROR),
        _cli(["cosets", "--catalog", "repz4", "--sigma-file", "{missing}"], None, INPUT_ERROR),
        _cli(["product", "--catalog", "su2", "V1", "X3"], None, INPUT_ERROR),
        _cli(["chain-group"], None, INPUT_ERROR),
        _cli(["chain-group", "--catalog", "nope"], None, INPUT_ERROR),
        _cli(["chain-group", "--catalog", "su2", "--depth", "abc"], None, INPUT_ERROR),
    ]


RESTRICTIONS = {
    "parity": {"source": "su2", "target": "zn:2", "rule": "su2_parity"},
    "weights": {"source": "su2", "target": "z", "rule": "su2_weights"},
}


# ------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict] | None   # None: the CLI, which has no in-process set-up
    questions: Callable[[], list[Question]]
    # Seconds of --seconds per round: rounds = max(3, round(seconds / round_s)).
    # At the default 25 s this gives 4 rounds, and 3 on the CLI.  Neither 5
    # nor 10 rounds: then the tail sample (ten from the top) would sit on the
    # boundary between two question kinds.
    round_s: float


WORKLOADS = {
    "generated-chain": Workload("generated-chain", generated_chain_setup,
                                generated_chain_questions, 6.5),
    "explicit-structure": Workload("explicit-structure", explicit_setup,
                                   explicit_questions, 6.5),
    "session-queries": Workload("session-queries", session_setup, session_questions, 6.5),
    "cli": Workload("cli", None, cli_questions, 9.0),
}


def order(questions: list[Question], seed: int, round_no: int) -> list[Question]:
    """The seed only permutes a fixed multiset of questions."""
    qs = sorted(questions, key=lambda q: q.qid)
    random.Random(f"{seed}/{round_no}").shuffle(qs)
    return qs


# --------------------------------------------------------------- census
# Run once in every traced run, whatever the workload: the size ladders
# that give the scaling exponents, and one small probe per layer, so that
# each per-layer metric is measured even where a workload's own questions
# never reach that layer.  Entries are (question, ladder, basis size).


def census() -> list[tuple[Question, str | None, int | None]]:
    out = [(_fresh_chain("au2", d, infinite_cyclic(stable(d))), "merge", 2 ** (d + 1) - 1)
           for d in (4, 5, 6)]
    out += [(_fresh_chain("su2", d, finite_chain(2, True, [2], stable(d))), "product", d + 1)
            for d in (20, 40, 60, 80)]
    for n in ZN:
        out.append((Question(f"validate_ring:fresh Z/{n}",
                             lambda ctx, n=n: fr.validate_ring(fr.group_ring(fr.cyclic_group(n))),
                             valid_facts, {"valid": True, "violations": 0}), "validate", n))
    probes = [
        Question("enumerate_central_subobjects:fresh Z/16",
                 lambda ctx: fr.enumerate_central_subobjects(fr.group_ring(fr.cyclic_group(16))),
                 count_facts, {"count": ref.num_divisors(16)}),
        Question("automorphisms:fresh Z/16",
                 lambda ctx: fr.automorphisms(fr.group_ring(fr.cyclic_group(16))),
                 count_facts, {"count": ref.euler_phi(16)}),
        Question("chain_oracle:fresh s3",
                 lambda ctx: fr.chain_oracle(fr.group_ring(fr.s3_group())),
                 blocks_facts, {"blocks": ref.singletons(S3)}),
        Question("grouplikes:fresh su2*z2:d4",
                 lambda ctx: fr.grouplikes(GENERATED["su2*z2"](), 4),
                 lambda t: {"elements": sorted(t.labels)}, {"elements": ["2:g1", "e"]}),
        Question("is_normal:fresh parity:d10",
                 lambda ctx: fr.is_normal(fr.su2_parity_restriction(fr.su2_ring(), z2_ring()), 10),
                 lambda r: {"normal": r.normal}, {"normal": True}),
        _cli(["chain-group", "--catalog", "su2"], _chain_pick,
             {"rc": 0, "order": 2, "flag": stable(6)}),
        _cli(["cosets", "--catalog", "repz4", "--sigma", "chi0,chi2", "--format", "table"],
             lambda s: {"blocks": sum(l.startswith("block ") for l in s.splitlines())},
             {"rc": 0, "blocks": 2}),
    ]
    return out + [(q, None, None) for q in probes]
