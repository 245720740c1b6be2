"""Command line front end.

    quivkit run FILE --command CMD [--out report.json] [--emit-dot FILE]
    quivkit check FILE              (same as run FILE --command check-suite)
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
from .adjunction import counit, factor_delta, phi, psi, unit_map
from .algebra import is_relation_ideal, trace_form_radical
from .dsl import Document, _at, format_text, parse
from .gabriel import check_sim, check_sim_n, gq
from .generators import random_padm_morphism, random_vqmap_to_gq, seeded_rng
from .pathalg import MAX_KVQ_DIM, build_kvq, cpa as cpa_build
from .vquiver import VQuiver, v_of_quiver


def _default_level(vq: VQuiver) -> int:
    """2 plus the longest simple directed path (edge count), capped at 8.

    The search ends at the first path of 6 edges, which reaches the cap.
    Every path it visits is a basis path at the level it returns, so past
    MAX_KVQ_DIM of them it refuses TOO_LARGE, as build_kvq would.
    """
    adj = {v: [] for v in vq.vertices}
    for (src, tgt) in vq.arrow_pairs():
        adj[src].append(tgt)
    best, visited = 0, 0

    def walk(v, seen, length):
        nonlocal best, visited
        best, visited = max(best, length), visited + 1
        if visited > MAX_KVQ_DIM:
            raise QuivkitError("TOO_LARGE", "the path algebra at the default level has "
                                            f"more than {MAX_KVQ_DIM} basis paths")
        for w in adj[v]:
            if best < 6 and w not in seen:
                walk(w, seen | {w}, length + 1)

    for v in vq.vertices:
        walk(v, {v}, 0)
    return 2 + best


def _read(path: str) -> str:
    """The file's text with universal newlines; IO_ERROR if it cannot be
    read, PARSE_ERROR if it is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise QuivkitError("IO_ERROR", f"cannot read {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise QuivkitError("PARSE_ERROR",
                           f"file is not UTF-8: invalid byte at offset {exc.start}") from None


def _cmd_gq(doc: Document, rng):
    results = []
    for kind, name in doc.order:
        if kind != "algebra":
            continue
        g = gq(doc.algebras[name].algebra)
        results.append({
            "algebra": name,
            "vquiver": jsonio.vquiver_to_json(g.vquiver),
            "vertex_count": len(g.vquiver.vertices),
            "arrow_dim_total": g.vquiver.total_arrow_dim(),
        })
    return results, True


def _cmd_cpa(doc: Document, rng):
    results = []
    for kind, name in doc.order:
        if kind != "quiver":
            continue
        q = doc.quivers[name]
        level = _default_level(v_of_quiver(q))
        t = cpa_build(doc.field, q, level)
        results.append({
            "quiver": name,
            "level": level,
            "dim": t.dim,
            "basis": list(t.carrier.basis_labels),
        })
    return results, True


def _adjunction_roundtrip(doc: Document, stmt, rng, samples: int = 25):
    vq_name, alg_name = stmt.args[0], stmt.args[1]
    vq = doc.vquivers[vq_name]
    entry = doc.algebras[alg_name]
    a = entry.algebra
    g = gq(a)
    level = max(2, a.truncation_level)
    t = _at(stmt, build_kvq, doc.field, vq, level)
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
    results = [_adjunction_roundtrip(doc, stmt, rng)
               for stmt in doc.checks if stmt.name == "adjunction"]
    return results, all(r["pass"] for r in results)


def _counit_check(a):
    """The counit passes when it is onto and its kernel lies in J^2.

    Then k[[gq(A)]]/K -> A is an isomorphism, so counit_factorization
    would add nothing to the verdict.
    """
    cu = counit(a)
    onto, rel = cu.morphism.surjective, is_relation_ideal(cu.kernel_ideal)
    return {"surjective": onto,
            "kernel_dim": cu.kernel_ideal.dim,
            "kernel_in_J2": rel,
            "pass": onto and rel}


def _cmd_counit(doc: Document, rng):
    results = []
    for kind, name in doc.order:
        if kind == "algebra":
            results.append({"algebra": name,
                            **_counit_check(doc.algebras[name].algebra)})
    return results, all(r["pass"] for r in results)


def _factor_delta_check(doc: Document, alpha_name: str, beta_name: str):
    f_entry = doc.morphisms[alpha_name]
    g_entry = doc.morphisms[beta_name]
    src_entry = doc.algebras[f_entry.source_name]
    res = {"alpha": alpha_name, "beta": beta_name}
    if src_entry.tensor is None or src_entry.relations is not None:
        res["error"] = "SOURCE_NOT_PATH_ALGEBRA"
        res["pass"] = False
        return res
    try:
        delta = factor_delta(src_entry.tensor, f_entry.morphism,
                             g_entry.morphism)
    except QuivkitError as exc:
        res["refused"] = exc.code
        res["pass"] = exc.code in ("NOT_SURJECTIVE", "NOT_SIM1")
        return res
    exact = g_entry.morphism.compose(delta) == f_entry.morphism
    res["delta"] = jsonio.morphism_to_json(delta)
    res["identity_holds"] = exact
    res["pass"] = exact
    return res


def _cmd_factor_delta(doc: Document, rng):
    results = [_factor_delta_check(doc, *stmt.args)
               for stmt in doc.checks if stmt.name == "factor_delta"]
    return results, all(r["pass"] for r in results)


def _gq_dims_check(a):
    """(vertex count == dim A/J, total arrow dim == dim J/J^2) for gq(A)."""
    g = gq(a)
    return (len(g.vquiver.vertices) == a.dim - a.radical.dim,
            g.vquiver.total_arrow_dim() == a.radical.dim - a.radical_power(2).dim)


def _run_check(doc: Document, stmt, rng):
    name = stmt.name
    head = {"check": name, "args": list(stmt.args)}
    if name in ("sim0", "sim1", "simn"):
        level = stmt.args[2] if name == "simn" else int(name == "sim1")
        val = check_sim_n(doc.morphisms[stmt.args[0]].morphism,
                          doc.morphisms[stmt.args[1]].morphism, level)
        return {**head, "result": val, "pass": True}
    if name == "adjunction":
        return {**head, **_adjunction_roundtrip(doc, stmt, rng)}
    if name == "factor_delta":
        return {**head, **_factor_delta_check(doc, *stmt.args)}
    if name == "counit":
        return {**head, **_counit_check(doc.algebras[stmt.args[0]].algebra)}
    if name == "unit":
        vq = doc.vquivers[stmt.args[0]]
        eta, _ = unit_map(_at(stmt, build_kvq, doc.field, vq, stmt.args[1]))
        iso = eta.is_isomorphism()
        return {**head, "isomorphism": iso, "pass": iso}
    if name == "gq_dims":
        v_ok, a_ok = _gq_dims_check(doc.algebras[stmt.args[0]].algebra)
        return {**head, "vertex_count_ok": v_ok, "arrow_dim_ok": a_ok,
                "pass": v_ok and a_ok}
    return {"check": name, "pass": False, "error": "UNKNOWN_CHECK"}


def _cmd_check_suite(doc: Document, rng):
    results = []
    # built-in invariants per algebra declaration
    for kind, name in doc.order:
        if kind != "algebra":
            continue
        a = doc.algebras[name].algebra
        v_ok, arr_ok = _gq_dims_check(a)
        rad_ok = True
        if doc.field.char == 0 or doc.field.char > a.dim:
            rad_ok = trace_form_radical(a) == a.radical
        results.append({"invariant": "algebra", "name": name,
                        "gq_vertex_count_ok": v_ok, "gq_arrow_dim_ok": arr_ok,
                        "radical_crosscheck_ok": rad_ok,
                        "pass": v_ok and arr_ok and rad_ok})
    results.extend(_run_check(doc, stmt, rng) for stmt in doc.checks)
    return results, all(bool(r.get("pass")) for r in results)


def _write(path: str, text: str) -> int:
    """Write `text` to `path`: 0, or 2 with the message when it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(QuivkitError("IO_ERROR", f"cannot write {path}: {exc.strerror}"), file=sys.stderr)
        return 2
    return 0


def _dot_text(doc: Document) -> str:
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
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "gq": _cmd_gq,
    "cpa": _cmd_cpa,
    "psi": _cmd_psi_phi,
    "phi": _cmd_psi_phi,
    "counit": _cmd_counit,
    "factor-delta": _cmd_factor_delta,
    "check-suite": _cmd_check_suite,
}


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
    # `check FILE` is `run FILE --command check-suite`
    p_check.set_defaults(command="check-suite", out=None, emit_dot=None)
    p_fmt = sub.add_parser("fmt", help="canonical formatting")
    p_fmt.add_argument("file")
    p_fmt.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "fmt":
        try:
            text = format_text(_read(args.file))
        except QuivkitError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.out:
            return _write(args.out, text)
        sys.stdout.write(text)
        return 0

    try:
        doc = parse(_read(args.file))
    except QuivkitError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    command = args.command
    try:
        results, ok = _COMMANDS[command](doc, seeded_rng(args.seed))
    except QuivkitError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    out = jsonio.report(command, doc.field, results, ok)
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        if _write(args.out, text):
            return 2
    else:
        sys.stdout.write(text)
    if args.emit_dot and _write(args.emit_dot, _dot_text(doc)):
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
