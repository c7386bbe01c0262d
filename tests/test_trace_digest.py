"""One exhaustive digest of every constructive map on S_4 at genus <= 1.

Every record of S_4 at g <= 1 is listed: stars at every root, monotone
records under each order of ``order_panel(4)``, and (full cycle, monotone
tail) records.  The class transport runs from root n to every member of
the target's class.  Each is sent through the maps that apply to it, with a
trace, and the record, each output's ``repr`` and each rendered
``TraceStep`` line are hashed in order.  The pinned value was computed
before the rewrite core was last optimised, so any change to an output or
to a single recorded move changes the digest.  The golden files pin a few
single calls in readable form; this pins them all.
"""

import hashlib

from starfact.bijections import (
    centrality_witness,
    delta,
    gamma,
    gamma_inverse,
    lambda_j,
    lambda_j_inverse,
    lambda_order,
    lambda_order_inverse,
    reroot_all,
    theta,
)
from starfact.factorisations import enumerate_monotone, enumerate_monotone_double, enumerate_star
from starfact.perms import TotalOrder, conjugacy_classes, symmetric_group
from starfact.verify import order_panel

PINNED = "d23aa9e2fb32124291750762c6203f51942962682382c9078a7b3104ad58e3ac"


def trace_digest(n: int = 4, gmax: int = 1) -> str:
    sha = hashlib.sha256()

    def emit(label: str, call) -> None:
        trace: list = []
        out = call(trace)
        sha.update(f"{label} -> {out!r}\n".encode())
        for step in trace:
            sha.update(f"  {step}\n".encode())

    group = list(symmetric_group(n))
    natural = TotalOrder.natural(n)
    for g in range(gmax + 1):
        for w in group:
            members = next(m for m in conjugacy_classes(n).values() if w in m)
            for root in range(1, n + 1):
                for f in enumerate_star(w, g, root):
                    sha.update(f"star {f!r}\n".encode())
                    emit("gamma", lambda tr: gamma(f, tr))
                    emit("reroot_all", lambda tr: reroot_all(f))
                    if root == n:
                        for other in members:
                            emit(f"witness {other}", lambda tr: centrality_witness(f, other, tr))
            for order in order_panel(n):
                for f in enumerate_monotone(w, g, order):
                    sha.update(f"monotone {f!r}\n".encode())
                    for j in range(1, n):
                        emit(f"lambda_j {j}", lambda tr: lambda_j(f, j, tr))
                        emit(f"lambda_j_inverse {j}", lambda tr: lambda_j_inverse(f, j, tr))
                    emit("lambda_order", lambda tr: lambda_order(f, tr))
                    if order == natural:
                        for back in order_panel(n):
                            emit(f"lambda_order_inverse {back}",
                                 lambda tr: lambda_order_inverse(f, back, tr))
                        for d in group:
                            emit(f"delta {d}", lambda tr: delta(f, d, tr))
            for md in enumerate_monotone_double(w, g):
                sha.update(f"md {md!r}\n".encode())
                emit("gamma_inverse", lambda tr: gamma_inverse(md, tr))
                for d in group:
                    emit(f"theta {d}", lambda tr: theta(md, d, tr))
    return sha.hexdigest()


def test_every_map_on_s4_matches_its_pinned_digest():
    assert trace_digest() == PINNED
