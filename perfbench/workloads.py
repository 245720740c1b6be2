"""The benchmark's workloads: seeded inputs, the op that is timed, and the
check of every answer, which runs outside the timed section.

Each workload's `setup()` builds one pass of ops from the seed, fills the
caches a user's second call would find warm, and returns the ops.  An op's
`run()` is the timed call into quivkit; its `check(result)` returns None
for a right answer and a short reason otherwise.  quivkit functions are
looked up on their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

from quivkit import adjunction, algebra, cli, exactlin, gabriel, pathalg, splittings, vquiver

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "cli_reference.json")

# (vertices, arrows as (label, source, target)); all arrow labels are one
# letter, so path labels are the reversed words ("cb" = b, then c).
QUIVERS = {
    # ROADMAP's 2-vertex quiver: loop x, parallel a, b: 1 -> 2, back arrow c.
    "TWO": (("1", "2"), (("x", "1", "1"), ("a", "1", "2"), ("b", "1", "2"),
                         ("c", "2", "1"))),
    "TWO3": (("1", "2", "3"), (("x", "1", "1"), ("a", "1", "2"), ("b", "1", "2"),
                               ("c", "2", "1"), ("d", "2", "3"))),
    "TRI": (("1", "2", "3"), (("a", "1", "2"), ("b", "1", "3"), ("c", "3", "2"))),
    "LINE": (("1", "2", "3"), (("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"))),
    "C3": (("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"))),
    "LOOP": (("1",), (("x", "1", "1"),)),
}


class Workload:
    """A workload's seed, checkout root, and whether the CLI runs in process."""

    setup_repeats = 3
    children_rss = False   # peak_rss_mb of the children instead of the process

    def __init__(self, seed, root, in_process=False):
        self.seed = seed
        self.root = root
        self.in_process = in_process


class Op:
    """One timed call: `field` is "Q" or "Fp", `size` the dimension it scales
    with (selects the counting subset)."""

    __slots__ = ("name", "field", "size", "run", "check")

    def __init__(self, name, field, size, run, check):
        self.name = name
        self.field = field
        self.size = size
        self.run = run
        self.check = check


def _field_kind(field):
    return "Q" if field.char == 0 else "Fp"


def _vquiver(name):
    vertices, arrows = QUIVERS[name]
    spaces = {}
    for lab, src, tgt in arrows:
        spaces.setdefault((src, tgt), []).append(lab)
    return vquiver.VQuiver(list(vertices), spaces)


def _coefficient(rng, p):
    # over Q only +-1, so that no seed grows the entries' denominators
    return rng.randrange(1, p) if p else rng.choice((1, -1))


def _top_relations(rng, quiver, level, count, p):
    """`count` relation generators in the top path layer (length level-1).

    Each generator combines one or two paths of a single Peirce block, and
    no two generators share a block, so the ideal is their span: the
    quotient loses exactly `count` dimensions and keeps its grading."""
    if not count:
        return []
    vertices, arrows = QUIVERS[quiver]
    blocks = {}
    for start, end, word in oracle.paths(vertices, arrows, level):
        if len(word) == level - 1 >= 2:
            blocks.setdefault((start, end), []).append(word)
    keys = sorted(blocks)
    rng.shuffle(keys)
    if count > len(keys) or count >= sum(len(w) for w in blocks.values()):
        raise ValueError(f"{quiver} level {level} has no room for {count} relations")
    rels = []
    for key in keys[:count]:
        words = sorted(blocks[key])
        rng.shuffle(words)
        k = min(len(words), rng.choice((1, 2)))
        rels.append([(word, _coefficient(rng, p)) for word in words[:k]])
    return rels


def _path_element(a, word):
    """Product of arrow elements along a path (first arrow applied first)."""
    acc = a.element(word[0])
    for lab in word[1:]:
        acc = a.mul(a.element(lab), acc)
    return acc


def _relation_element(a, relation):
    f = a.field
    out = [f.zero] * a.dim
    for word, coef in relation:
        vec = _path_element(a, word)
        c = f.of(coef)
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, vec)]
    return out


def _present(field, quiver, level, relations):
    """k[[quiver]] at `level`, divided by the relation ideal when there is one."""
    t = pathalg.build_kvq(field, _vquiver(quiver), level)
    a = t.carrier
    if relations:
        gens = [_relation_element(a, rel) for rel in relations]
        a, _pi = algebra.quotient_algebra(a, algebra.ideal_generated_by(a, gens))
    return t, a


def _expected_shape(quiver, level, n_relations):
    """(dim, truncation level) of the presented algebra, by construction."""
    vertices, arrows = QUIVERS[quiver]
    ps = oracle.paths(vertices, arrows, level)
    return len(ps) - n_relations, 1 + max(len(word) for _s, _e, word in ps)


# ---------------------------------------------------------------------------
# counit_scaled: presentation -> build_kvq (+ quotient) -> gq -> counit
# ---------------------------------------------------------------------------

# (field, quiver, level, relation count, copies).  Dims 7..62; the dim-62
# item is over F5.  The dim-62 Q counit is not timed: it takes 15-25 s on
# a 2-core VM, most of a run, and would leave the other ops a few seconds
# of a machine whose speed drifts by 20-40% over seconds to minutes, so
# their rates and ranks would spread past the bounds.  A pass takes about
# 5 s, so a run times every op in several passes spread over the run.
COUNIT_CORPUS = (
    # about a second each: dims 39 over Q and 62 over F5
    ("Q", "TWO", 4, 0, 1), ("F5", "TWO", 5, 0, 1),
    # 100-200 ms
    ("Q", "TWO", 3, 0, 4), ("F5", "TWO", 4, 0, 3), ("Q", "C3", 4, 0, 1),
    # 20-60 ms
    ("Q", "LINE", 3, 0, 1), ("Q", "LINE", 3, 1, 1), ("F5", "TWO", 3, 1, 5),
    ("F5", "TWO", 3, 2, 5), ("F5", "TWO", 3, 0, 2), ("F5", "C3", 5, 0, 2),
    ("Q", "TRI", 3, 0, 2),
    # under 15 ms
    ("F5", "TRI", 3, 0, 1), ("F5", "TRI", 4, 0, 1), ("F5", "LINE", 3, 0, 1),
    ("F5", "LINE", 4, 0, 1), ("F5", "LINE", 3, 1, 1), ("F5", "C3", 3, 0, 1),
    ("F5", "C3", 4, 1, 1),
)


def check_counit(quiver, level, n_relations, result):
    """gq matches the presenting quiver, the counit is onto, and its kernel
    has the counted dimension and lies in J^2."""
    a, g, cu = result
    vertices, arrows = QUIVERS[quiver]
    dim, trunc = _expected_shape(quiver, level, n_relations)
    if a.dim != dim or a.truncation_level != trunc:
        return f"algebra has dim {a.dim}, level {a.truncation_level}; expected {dim}, {trunc}"
    gvq = g.vquiver
    garrows = [(lab, s, t) for (s, t), labs in gvq.spaces.items() for lab in labs]
    if not oracle.same_quiver_shape(vertices, arrows, gvq.vertices, garrows):
        return "gq(A) does not match the presenting quiver"
    n_src = len(oracle.paths(gvq.vertices, garrows, max(2, trunc)))
    p = a.field.char
    m = cu.morphism.matrix
    if (m.rows, m.cols) != (dim, n_src):
        return f"counit matrix is {m.rows}x{m.cols}, expected {dim}x{n_src}"
    if oracle.rank(m.data, p) != dim:
        return "counit is not surjective"
    kernel = cu.kernel_ideal.space.basis
    if len(kernel) != n_src - dim:
        return f"kernel dim {len(kernel)}, expected {n_src - dim}"
    labels = cu.source_algebra.carrier.basis_labels
    garrow_labels = {lab for lab, _s, _t in garrows}
    low = [i for i, lab in enumerate(labels)
           if oracle.label_length(lab, gvq.vertices, garrow_labels) < 2]
    for v in kernel:
        if any(not oracle.is_zero(v[i], p) for i in low):
            return "kernel vector outside J^2"
        if any(not oracle.is_zero(x, p) for x in oracle.matvec(m.data, v, p)):
            return "kernel vector not killed by the counit"
    if kernel and oracle.rank(kernel, p) != len(kernel):
        return "kernel basis is dependent"
    return None


class CounitScaled(Workload):
    name = "counit_scaled"
    setup_repeats = 9

    def _op(self, field_name, quiver, level, relations):
        field = exactlin.field_by_name(field_name)
        n_rel = len(relations)
        dim, _trunc = _expected_shape(quiver, level, n_rel)

        def run():
            _t, a = _present(field, quiver, level, relations)
            return a, gabriel.gq(a), adjunction.counit(a)

        return Op(f"{quiver}/L{level}/{field_name}/r{n_rel}", _field_kind(field), dim,
                  run, lambda res: check_counit(quiver, level, n_rel, res))

    def setup(self):
        rng = random.Random(f"counit_scaled:{self.seed}")
        ops = []
        for field_name, quiver, level, n_rel, copies in COUNIT_CORPUS:
            p = exactlin.field_by_name(field_name).char
            for _ in range(copies):
                rels = _top_relations(rng, quiver, level, n_rel, p)
                ops.append(self._op(field_name, quiver, level, rels))
        _warm_up(op.run for op in ops if op.size <= 9)
        # The largest op runs first, on a fresh heap, so that peak_rss_mb
        # does not depend on how earlier ops left the allocator's arenas;
        # the rest run in a seeded order.
        ops.sort(key=lambda op: -op.size)
        rest = ops[1:]
        rng.shuffle(rest)
        return ops[:1] + rest

    def counting_ops(self, ops):
        return [op for op in ops if op.size <= 30]


def _warm_up(calls):
    """Run each call once before timing.  Its outcome is not judged here: the
    timed pass runs and checks the same ops and counts any failure."""
    for call in calls:
        try:
            call()
        except Exception:  # counted when the timed pass runs the same op
            pass


# ---------------------------------------------------------------------------
# roundtrip: phi(psi(rho)) == rho and psi(phi(alpha)) ~1 alpha
# ---------------------------------------------------------------------------

# (target quiver, level, relation count, source quiver, source level,
# fields).  Targets A have dims 7..17, sources k[[VQ]] 7..38; the dim-38
# source runs over F5 only, as over Q its set-up alone takes seconds.
ROUNDTRIP_COMBOS = (
    ("TRI", 3, 0, "TRI", 3, ("Q", "F5")),
    ("LINE", 3, 0, "LINE", 3, ("Q", "F5")),
    ("C3", 4, 0, "C3", 4, ("Q", "F5")),
    ("TWO", 3, 0, "TWO", 3, ("Q", "F5")),
    ("TWO", 3, 2, "TWO3", 3, ("Q", "F5")),
    ("C3", 6, 1, "C3", 6, ("Q", "F5")),
    ("TWO", 3, 1, "TWO3", 4, ("F5",)),
)
ROUNDTRIP_PAIRS = 2      # pre-generated (rho, alpha) pairs per combo and field


# quivkit.generators draws rationals such as -3/2 and zeros, whose products
# and sparsity make set-up and op costs vary with the seed; these draw
# small nonzero integers instead, so that seeds differ in inputs more than
# in cost.
def _scalar(rng, field):
    return field.of(rng.randrange(1, field.char) if field.char else rng.choice((-1, 1, 2)))


def _random_rho(rng, t, g):
    """A Vquiver map VQ -> gq(A): a seeded bijection from some vertices of VQ
    onto gq's (the rest go to the point) and random arrow blocks."""
    src, tgt, field = t.vq, g.vquiver, t.field
    kept = sorted(rng.sample(range(len(src.vertices)), len(tgt.vertices)))
    image = list(tgt.vertices)
    rng.shuffle(image)
    vmap = {v: vquiver.POINT for v in src.vertices}
    for idx, w in zip(kept, image):
        vmap[src.vertices[idx]] = w
    mats = {}
    for s, e in src.arrow_pairs():
        ws, we = vmap[s], vmap[e]
        if vquiver.POINT in (ws, we) or not tgt.dim(ws, we):
            continue
        rows, cols = tgt.dim(ws, we), src.dim(s, e)
        mats[(s, e)] = exactlin.Mat(field, rows, cols, [[_scalar(rng, field) for _ in range(cols)]
                                                        for _ in range(rows)])
    return vquiver.VQuiverMap(field, src, tgt, vmap, mats)


def _random_alpha(rng, t, g):
    """An admissible morphism k[[VQ]] -> A: psi of a random rho, conjugated
    by 1 + w for a random w in J(A)."""
    a, field = g.algebra, t.field
    alpha = adjunction.psi(t, _random_rho(rng, t, g), g)
    w = [field.zero] * a.dim
    for v in a.radical.basis:
        c = field.of(rng.choice((-1, 1)))
        w = [field.add(x, field.mul(c, y)) for x, y in zip(w, v)]
    cols = [splittings.conjugate_element(a, w, col) for col in alpha.matrix.columns()]
    return algebra.validate_morphism(t.carrier, a, exactlin.Mat.from_cols(field, cols, rows=a.dim))


def _lengths(labels, quiver):
    vertices, arrows = QUIVERS[quiver]
    names = {lab for lab, _s, _t in arrows}
    return [oracle.label_length(lab, vertices, names) for lab in labels]


def check_roundtrip(pair, result):
    """rho comes back entry for entry; psi(phi(alpha)) - alpha maps A into J
    and J into J^2, read off the graded bases of source and target."""
    rho_back, alpha_back, same, sim = result
    if not same:
        return "phi(psi(rho)) != rho"
    if not sim:
        return "psi(phi(alpha)) is not ~1 alpha"
    rho = pair["rho"]
    if rho_back.vertex_map != rho.vertex_map or \
            sorted(rho_back.arrow_mats) != sorted(rho.arrow_mats) or \
            any(rho_back.arrow_mats[k].data != m.data for k, m in rho.arrow_mats.items()):
        return "phi(psi(rho)) differs from rho entry-wise"
    p = pair["p"]
    back, alpha = alpha_back.matrix.data, pair["alpha"].matrix.data
    for r, (row_b, row_a) in enumerate(zip(back, alpha)):
        for i, (x, y) in enumerate(zip(row_b, row_a)):
            if oracle.is_zero(x - y, p):
                continue
            if pair["len_a"][r] < 1 or (pair["len_src"][i] >= 1 and pair["len_a"][r] < 2):
                return "psi(phi(alpha)) - alpha escapes J or J^2"
    return None


class Roundtrip(Workload):
    name = "roundtrip"

    def setup(self):
        rng = random.Random(f"roundtrip:{self.seed}")
        pairs = []
        for field_name in ("Q", "F5"):
            field = exactlin.field_by_name(field_name)
            for quiver, level, n_rel, src_quiver, src_level, fields in ROUNDTRIP_COMBOS:
                if field_name not in fields:
                    continue
                rels = _top_relations(rng, quiver, level, n_rel, field.char)
                _t, a = _present(field, quiver, level, rels)
                g = gabriel.gq(a)
                t = pathalg.build_kvq(field, _vquiver(src_quiver), src_level)
                common = {"t": t, "g": g, "p": field.char,
                          "len_a": _lengths(a.basis_labels, quiver),
                          "len_src": _lengths(t.carrier.basis_labels, src_quiver),
                          "name": f"{quiver}{a.dim}<-{src_quiver}{t.dim}/{field_name}",
                          "kind": _field_kind(field), "size": t.dim}
                for _ in range(ROUNDTRIP_PAIRS):
                    rho = _random_rho(rng, t, g)
                    alpha = _random_alpha(rng, t, g)
                    pairs.append(dict(common, rho=rho, alpha=alpha))
        # one phi per combo fills its Gabriel quiver's cached class solvers
        _warm_up(lambda p=pair: adjunction.phi(p["t"], p["alpha"], p["g"])
                 for pair in pairs[::ROUNDTRIP_PAIRS])
        ops = [self._op(pair) for pair in pairs]
        rng.shuffle(ops)
        return ops

    def _op(self, pair):
        t, g, rho, alpha = pair["t"], pair["g"], pair["rho"], pair["alpha"]

        def run():
            rho_back = adjunction.phi(t, adjunction.psi(t, rho, g), g)
            alpha_back = adjunction.psi(t, adjunction.phi(t, alpha, g), g)
            return (rho_back, alpha_back, rho_back == rho,
                    gabriel.check_sim(alpha_back, alpha, 1))

        return Op(pair["name"], pair["kind"], pair["size"], run,
                  lambda res: check_roundtrip(pair, res))

    def counting_ops(self, ops):
        first = {}
        for op in ops:
            first.setdefault(op.name, op)
        return sorted(first.values(), key=lambda op: op.name)


# ---------------------------------------------------------------------------
# cli_docs: one `quivkit check FILE` per document
# ---------------------------------------------------------------------------

CLI_TABLES = ("T3", "T4", "T5", "T6")
CLI_KVQ = {
    # quiver: (level, [(arrow, shift of it)], [ideal generators], adjunction?)
    # The adjunction check draws random round-trips and is the costliest
    # check over Q, so only the small quivers carry it.
    "TRI": (3, [("a", "c*b")], ["c*b"], True),
    "LOOP": (4, [("x", "x*x"), ("x", "x*x*x")], ["x*x*x", "x*x"], True),
    "TWO": (3, [("x", "x*x"), ("x", "c*a"), ("a", "a*x"), ("c", "x*c")],
            ["x*x", "c*a", "a*x", "b*x", "a*c"], False),
    "C3": (5, [("a", "a*c*b*a"), ("b", "b*a*c*b"), ("c", "c*b*a*c")],
           ["b*a", "c*b*a", "a*c"], False),
    # No J^2 shift exists for a: a -> a + b makes sim1 false and
    # factor_delta refuse with NOT_SIM1.
    "LINE": (3, [("a", "b")], ["c*a", "c*a - c*b"], False),
}
# (family, field, variant) of each generated document.  A pass takes about
# 6 s on a 2-core VM.  Over Q only T3 is a table: sympy's eigen-splitting
# takes 1-2.5 s on T5 and T6, which would leave a run too few passes, so
# T4-T6 run over F101.  The five kvq families run over F101 in both
# variants, which are cheap, so that a run has about 100 ops; over Q, the
# triangle, loop and line.
CLI_DOCS = (
    ("T3", "Q", 0), ("TRI", "Q", 0), ("LOOP", "Q", 1), ("LINE", "Q", 0),
    ("T3", "F101", 1), ("T4", "F101", 0), ("T5", "F101", 1), ("T6", "F101", 0),
) + tuple((fam, "F101", v) for fam in ("TRI", "LOOP", "TWO", "C3", "LINE")
          for v in (0, 1))


def _table_doc(n, field, variant):
    """Upper triangular n x n matrices as a `table`, and k[[A_n]] onto it."""
    labels = [f"E{i}{j}" for i in range(1, n + 1) for j in range(i, n + 1)]
    if variant:
        random.Random(f"T{n}").shuffle(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    products = sorted(((f"E{i}{j}", f"E{j}{k}", f"E{i}{k}")
                       for i in range(1, n + 1) for j in range(i, n + 1)
                       for k in range(j, n + 1)),
                      key=lambda t: (pos[t[0]], pos[t[1]]))
    verts = [str(i) for i in range(1, n + 1)]
    scale = ("", "2*")[variant]
    lines = [f"# Upper triangular {n}x{n} matrices over {field} (variant {variant}).",
             f"field {field};", "",
             "vquiver LIN {", f"  vertices: {', '.join(verts)};"]
    lines += [f"  space {i + 1} -> {i} = [a{i}];" for i in range(1, n)]
    lines += ["}", "", "algebra T = table {", f"  basis: {', '.join(labels)};",
              f"  unit: {' + '.join(f'E{i}{i}' for i in range(1, n + 1))};"]
    lines += [f"  {x}*{y} = {z};" for x, y, z in products]
    lines += ["};", "", f"algebra P = kvq(LIN, level={n});", "",
              "morphism inc: P -> T {"]
    lines += [f"  e{i} -> E{i}{i};" for i in range(1, n + 1)]
    lines += [f"  a{i} -> {scale}E{i}{i + 1};" for i in range(1, n)]
    lines += ["}", "", "check gq_dims(T);", "check counit(T);", "check sim0(inc, inc);"]
    return "\n".join(lines) + "\n"


def _kvq_doc(quiver, field, variant):
    """A path algebra, a quotient, a J^2 shift of one arrow and every check."""
    level, shifts, rels, adjunction_check = CLI_KVQ[quiver]
    vertices, arrows = QUIVERS[quiver]
    rng = random.Random(f"{quiver}:{field}:{variant}")
    arrow, longer = rng.choice(shifts)
    coef = rng.choice(("2", "3", "1/2") if field == "Q" else ("2", "3", "50"))
    spaces = {}
    for lab, src, tgt in arrows:
        spaces.setdefault((src, tgt), []).append(lab)
    lines = [f"# {quiver} path algebra at level {level} over {field} (variant {variant}).",
             f"field {field};", "", "vquiver V {", f"  vertices: {', '.join(vertices)};"]
    lines += [f"  space {s} -> {t} = [{', '.join(labs)}];" for (s, t), labs in spaces.items()]
    lines += ["}", "", f"algebra A = kvq(V, level={level});",
              f"algebra B = kvq(V, level={level}) / ideal({rng.choice(rels)});", ""]
    for name, shifted in (("aut", True), ("ident", False)):
        lines.append(f"morphism {name}: A -> A {{")
        lines += [f"  e{v} -> e{v};" for v in vertices]
        for lab, _s, _t in arrows:
            image = f"{lab} + {coef}*{longer}" if shifted and lab == arrow else lab
            lines.append(f"  {lab} -> {image};")
        lines.append("}")
    lines += ["", "check sim0(aut, ident);", "check sim1(aut, ident);",
              "check simn(aut, ident, 2);", "check gq_dims(A);", "check gq_dims(B);",
              "check counit(A);", "check counit(B);", f"check unit(V, {level});",
              "check factor_delta(aut, ident);"]
    if adjunction_check:
        lines.append("check adjunction(V, A);")
    return "\n".join(lines) + "\n"


def cli_universe_ids():
    return ["demo_triangle"] + [f"{fam}_{field}_v{v}" for fam, field, v in CLI_DOCS]


def cli_universe(root):
    """Every document, as {doc_id: (field kind, text)}."""
    docs = {}
    with open(os.path.join(root, "demo", "triangle.quiv"), encoding="utf-8") as fh:
        docs["demo_triangle"] = ("Q", fh.read())
    for fam, field, v in CLI_DOCS:
        kind = "Q" if field == "Q" else "Fp"
        text = _table_doc(int(fam[1:]), field, v) if fam in CLI_TABLES else \
            _kvq_doc(fam, field, v)
        docs[f"{fam}_{field}_v{v}"] = (kind, text)
    return docs


def cli_pick(seed):
    """Every document of the universe, in the seed's order.  The set is fixed
    (its reports are recorded) and costs the same for every seed."""
    ids = sorted(cli_universe_ids())
    random.Random(f"cli_docs:{seed}").shuffle(ids)
    return ids


def cli_env(root):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "QUIVKIT_SEED"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_subprocess(root, path):
    proc = subprocess.run([sys.executable, "-m", "quivkit.cli", "check", path],
                          cwd=root, env=cli_env(root), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60, check=False)
    return proc.returncode, proc.stdout


def run_cli_in_process(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", path])
    return code, buf.getvalue().encode("utf-8")


def check_cli(reference, result):
    """Exit code 0, "pass": true, and the reference report bytes."""
    code, out = result
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if report.get("pass") is not True:
        return "report does not pass"
    if reference is None:
        return "no reference report recorded"
    if hashlib.sha256(out).hexdigest() != reference["sha256"]:
        return "report bytes differ from the reference"
    return None


class CliDocs(Workload):
    name = "cli_docs"
    setup_repeats = 5
    children_rss = True

    def __init__(self, seed, root, in_process=False):
        super().__init__(seed, root, in_process)
        self.workdir = os.path.join(root, ".bench_build", "perfbench", "cli_docs")

    def setup(self):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)
        universe = cli_universe(self.root)
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for doc_id in cli_pick(self.seed):
            kind, text = universe[doc_id]
            path = os.path.join(self.workdir, f"{doc_id}.quiv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            ops.append(self._op(doc_id, kind, path, reference.get(doc_id)))
        # interpreter start-up, bytecode and sympy's import, as users see them
        _warm_up([next(op for op in ops if op.name.startswith("demo")).run,
                  next(op for op in ops if op.name.startswith("T3_")).run])
        return ops

    def _op(self, doc_id, kind, path, reference):
        if self.in_process:
            def run():
                return run_cli_in_process(path)
        else:
            def run():
                return run_cli_subprocess(self.root, path)
        return Op(doc_id, kind, 0, run, lambda res: check_cli(reference, res))

    def counting_ops(self, ops):
        return [op for op in ops if op.name.startswith(("demo", "T3_", "TRI_"))]


def record_reference(root):
    """Write the reference report hash of every document in the universe."""
    out = {}
    for doc_id, (_kind, text) in sorted(cli_universe(root).items()):
        path = os.path.join(root, ".bench_build", "perfbench", "record.quiv")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, stdout = run_cli_subprocess(root, path)
        if code != 0 or json.loads(stdout).get("pass") is not True:
            raise RuntimeError(f"{doc_id}: exit {code}, report does not pass")
        out[doc_id] = {"sha256": hashlib.sha256(stdout).hexdigest(),
                       "bytes": len(stdout)}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


WORKLOADS = {w.name: w for w in (CounitScaled, Roundtrip, CliDocs)}
