"""Command line front end.

    quivkit run FILE --command CMD [--out report.json] [--emit-dot FILE]
    quivkit check FILE
    quivkit fmt FILE [--out FILE]

Commands for `run`: gq, cpa, psi, phi, counit, factor-delta, check-suite.
Exit codes: 0 all checks pass, 1 a check failed, 2 input error.  The
environment variable QUIVKIT_SEED seeds the randomized property suites
(fixed default, so reports are reproducible).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QuivkitError
from . import jsonio
from .adjunction import counit, counit_factorization, factor_delta, phi, psi, unit_map
from .algebra import trace_form_radical
from .dsl import Document, format_text, parse
from .gabriel import check_sim, check_sim_n, gq
from .generators import random_padm_morphism, random_vqmap_to_gq, seeded_rng
from .pathalg import build_kvq, cpa as cpa_build
from .vquiver import VQuiver


def _default_level(vq: VQuiver) -> int:
    """2 plus the longest simple directed path (edge count), capped at 8.

    A path of 6 edges reaches the cap, so the search goes no deeper and
    ends at the first such path; this bounds it on dense quivers.
    """
    adj = {v: [] for v in vq.vertices}
    for (src, tgt) in vq.arrow_pairs():
        adj[src].append(tgt)
    longest = 6
    best = 0

    def walk(v, seen, length):
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if best == longest:
                return
            if w not in seen:
                walk(w, seen | {w}, length + 1)

    for v in vq.vertices:
        walk(v, {v}, 0)
    return 2 + best


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_gq(doc: Document):
    results = []
    ok = True
    for kind, name in doc.order:
        if kind != "algebra":
            continue
        entry = doc.algebras[name]
        g = gq(entry.algebra)
        results.append({
            "algebra": name,
            "vquiver": jsonio.vquiver_to_json(g.vquiver),
            "vertex_count": len(g.vquiver.vertices),
            "arrow_dim_total": g.vquiver.total_arrow_dim(),
        })
    return results, ok


def _cmd_cpa(doc: Document):
    results = []
    for kind, name in doc.order:
        if kind != "quiver":
            continue
        q = doc.quivers[name]
        from .vquiver import v_of_quiver

        level = _default_level(v_of_quiver(q))
        t = cpa_build(doc.field, q, level)
        results.append({
            "quiver": name,
            "level": level,
            "dim": t.dim,
            "basis": list(t.carrier.basis_labels),
        })
    return results, True


def _adjunction_roundtrip(doc: Document, vq_name: str, alg_name: str,
                          rng, samples: int = 25):
    vq = doc.vquivers[vq_name]
    entry = doc.algebras[alg_name]
    a = entry.algebra
    g = gq(a)
    level = max(2, a.truncation_level)
    t = build_kvq(doc.field, vq, level)
    phis = 0
    psis = 0
    failures = []
    for i in range(samples):
        rho = random_vqmap_to_gq(rng, vq, g, doc.field)
        if rho is None:
            break
        alpha = psi(t, rho, g)
        if phi(t, alpha, g) != rho:
            failures.append({"kind": "phi_psi", "sample": i})
        psis += 1
        alpha2 = random_padm_morphism(rng, t, g)
        if alpha2 is not None:
            back = psi(t, phi(t, alpha2, g), g)
            if not check_sim(back, alpha2, 1):
                failures.append({"kind": "psi_phi", "sample": i})
            phis += 1
    return {
        "vquiver": vq_name,
        "algebra": alg_name,
        "phi_psi_samples": psis,
        "psi_phi_samples": phis,
        "failures": failures,
        "pass": not failures,
    }


def _cmd_psi_phi(doc: Document, rng):
    results = []
    ok = True
    for stmt in doc.checks:
        if stmt.name != "adjunction":
            continue
        res = _adjunction_roundtrip(doc, stmt.args[0], stmt.args[1], rng)
        ok = ok and res["pass"]
        results.append(res)
    return results, ok


def _cmd_counit(doc: Document):
    results = []
    ok = True
    for kind, name in doc.order:
        if kind != "algebra":
            continue
        entry = doc.algebras[name]
        a = entry.algebra
        cu = counit(a)
        rel = cu.kernel_ideal.parent.radical_power(2).contains_subspace(
            cu.kernel_ideal.space)
        try:
            counit_factorization(cu)
            inv_ok = True
        except QuivkitError:
            inv_ok = False
        good = cu.morphism.surjective and rel and inv_ok
        ok = ok and good
        results.append({
            "algebra": name,
            "surjective": cu.morphism.surjective,
            "kernel_dim": cu.kernel_ideal.dim,
            "kernel_in_J2": rel,
            "pass": good,
        })
    return results, ok


def _cmd_factor_delta(doc: Document):
    results = []
    ok = True
    for stmt in doc.checks:
        if stmt.name != "factor_delta":
            continue
        f_entry = doc.morphisms[stmt.args[0]]
        g_entry = doc.morphisms[stmt.args[1]]
        src_entry = doc.algebras[f_entry.source_name]
        res = {"alpha": stmt.args[0], "beta": stmt.args[1]}
        if src_entry.tensor is None or src_entry.ideal is not None:
            res["error"] = "SOURCE_NOT_PATH_ALGEBRA"
            res["pass"] = False
            ok = False
            results.append(res)
            continue
        try:
            delta = factor_delta(src_entry.tensor, f_entry.morphism,
                                 g_entry.morphism)
            exact = g_entry.morphism.compose(delta).matrix == \
                f_entry.morphism.matrix
            res["delta"] = jsonio.morphism_to_json(delta)
            res["identity_holds"] = exact
            res["pass"] = exact
            ok = ok and exact
        except QuivkitError as exc:
            res["refused"] = exc.code
            res["pass"] = exc.code in ("NOT_SURJECTIVE", "NOT_SIM1")
            ok = ok and res["pass"]
        results.append(res)
    return results, ok


def _run_check(doc: Document, stmt, rng):
    name = stmt.name
    if name in ("sim0", "sim1"):
        level = 0 if name == "sim0" else 1
        f_m = doc.morphisms[stmt.args[0]].morphism
        g_m = doc.morphisms[stmt.args[1]].morphism
        val = check_sim(f_m, g_m, level)
        return {"check": name, "args": list(stmt.args), "result": val,
                "pass": True}
    if name == "simn":
        f_m = doc.morphisms[stmt.args[0]].morphism
        g_m = doc.morphisms[stmt.args[1]].morphism
        val = check_sim_n(f_m, g_m, stmt.args[2])
        return {"check": name, "args": list(stmt.args), "result": val,
                "pass": True}
    if name == "adjunction":
        res = _adjunction_roundtrip(doc, stmt.args[0], stmt.args[1], rng)
        return {"check": name, "args": list(stmt.args), **res}
    if name == "factor_delta":
        results, ok = _cmd_factor_delta(doc)
        match = [r for r in results
                 if r.get("alpha") == stmt.args[0] and r.get("beta") == stmt.args[1]]
        out = match[0] if match else {"pass": False}
        return {"check": name, "args": list(stmt.args), **out}
    if name == "counit":
        a = doc.algebras[stmt.args[0]].algebra
        cu = counit(a)
        rel = cu.kernel_ideal.parent.radical_power(2).contains_subspace(
            cu.kernel_ideal.space)
        good = cu.morphism.surjective and rel
        return {"check": name, "args": list(stmt.args),
                "surjective": cu.morphism.surjective,
                "kernel_dim": cu.kernel_ideal.dim,
                "kernel_in_J2": rel, "pass": good}
    if name == "unit":
        vq = doc.vquivers[stmt.args[0]]
        t = build_kvq(doc.field, vq, stmt.args[1])
        eta, _ = unit_map(t)
        return {"check": name, "args": list(stmt.args),
                "isomorphism": eta.is_isomorphism(), "pass": eta.is_isomorphism()}
    if name == "gq_dims":
        a = doc.algebras[stmt.args[0]].algebra
        g = gq(a)
        v_ok = len(g.vquiver.vertices) == a.dim - a.radical.dim
        a_ok = g.vquiver.total_arrow_dim() == \
            a.radical.dim - a.radical_power(2).dim
        return {"check": name, "args": list(stmt.args),
                "vertex_count_ok": v_ok, "arrow_dim_ok": a_ok,
                "pass": v_ok and a_ok}
    return {"check": name, "pass": False, "error": "UNKNOWN_CHECK"}


def _cmd_check_suite(doc: Document, rng):
    results = []
    ok = True
    # built-in invariants per algebra declaration
    for kind, name in doc.order:
        if kind != "algebra":
            continue
        entry = doc.algebras[name]
        a = entry.algebra
        g = gq(a)
        v_ok = len(g.vquiver.vertices) == a.dim - a.radical.dim
        arr_ok = g.vquiver.total_arrow_dim() == \
            a.radical.dim - a.radical_power(2).dim
        rad_ok = True
        if doc.field.char == 0 or doc.field.char > a.dim:
            rad_ok = trace_form_radical(a) == a.radical
        good = v_ok and arr_ok and rad_ok
        ok = ok and good
        results.append({"invariant": "algebra", "name": name,
                        "gq_vertex_count_ok": v_ok, "gq_arrow_dim_ok": arr_ok,
                        "radical_crosscheck_ok": rad_ok, "pass": good})
    for stmt in doc.checks:
        res = _run_check(doc, stmt, rng)
        ok = ok and bool(res.get("pass"))
        results.append(res)
    return results, ok


def _emit_dot(doc: Document, path: str):
    lines = []
    for kind, name in doc.order:
        if kind == "quiver":
            q = doc.quivers[name]
            lines.append(f"digraph {name} {{")
            for v in q.vertices:
                lines.append(f'  "{v}";')
            for lab, src, tgt in q.arrows:
                lines.append(f'  "{src}" -> "{tgt}" [label="{lab}"];')
            lines.append("}")
        elif kind == "vquiver":
            vq = doc.vquivers[name]
            lines.append(f"digraph {name} {{")
            for v in vq.vertices:
                lines.append(f'  "{v}";')
            for (src, tgt), labels in vq.spaces.items():
                lines.append(
                    f'  "{src}" -> "{tgt}" [label="{",".join(labels)}"];')
            lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_COMMANDS = ("gq", "cpa", "psi", "phi", "counit", "factor-delta", "check-suite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quivkit")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run a command over a document")
    p_run.add_argument("file")
    p_run.add_argument("--command", required=True, choices=_COMMANDS)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--emit-dot", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_check = sub.add_parser("check", help="parse, validate and run all checks")
    p_check.add_argument("file")
    p_check.add_argument("--seed", type=int, default=None)
    p_fmt = sub.add_parser("fmt", help="canonical formatting")
    p_fmt.add_argument("file")
    p_fmt.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "fmt":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = format_text(fh.read())
        except (QuivkitError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    try:
        doc = _load(args.file)
    except (QuivkitError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    rng = seeded_rng(getattr(args, "seed", None))

    if args.mode == "check":
        results, ok = _cmd_check_suite(doc, rng)
        out = jsonio.report("check-suite", doc.field, results, ok)
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0 if ok else 1

    command = args.command
    try:
        if command == "gq":
            results, ok = _cmd_gq(doc)
        elif command == "cpa":
            results, ok = _cmd_cpa(doc)
        elif command in ("psi", "phi"):
            results, ok = _cmd_psi_phi(doc, rng)
        elif command == "counit":
            results, ok = _cmd_counit(doc)
        elif command == "factor-delta":
            results, ok = _cmd_factor_delta(doc)
        else:
            results, ok = _cmd_check_suite(doc, rng)
    except QuivkitError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    out = jsonio.report(command, doc.field, results, ok)
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.emit_dot:
        _emit_dot(doc, args.emit_dot)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
