"""JSON forms of the core objects (schema 1).

Field coefficients are serialized as strings ("3/7", "2 mod 5") so exactness
survives the trip; reports built from these forms are byte-stable across
runs."""

from __future__ import annotations

SCHEMA = 1


def vector_to_json(field, vec):
    return [field.fmt(c) for c in vec]


def matrix_to_json(mat):
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [vector_to_json(mat.field, row) for row in mat.data],
    }


def vquiver_to_json(vq):
    return {
        "vertices": list(vq.vertices),
        "spaces": [{"source": src, "target": tgt, "basis": list(labels)}
                   for (src, tgt), labels in vq.spaces.items()],
    }


def morphism_to_json(m):
    return {
        "source_dim": m.source.dim,
        "target_dim": m.target.dim,
        "surjective": m.surjective,
        "matrix": matrix_to_json(m.matrix),
    }


def report(command: str, field, results, ok: bool):
    return {
        "schema": SCHEMA,
        "command": command,
        "field": field.name,
        "pass": ok,
        "results": results,
    }
