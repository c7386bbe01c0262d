"""How much of the centre do transitive images of elementary functions fill?

The transitivity operator T keeps the transposition tuples that connect
all of {1..n}; Theorem 1.7 says T of any symmetric function in the slot
elements is central.  This demo takes every e_lambda with parts at most
n - 1 and weight at most n + 4, writes T(e_lambda) in the class-sum basis
of the centre of the group algebra of S_n, and prints the rank of those
vectors next to the dimension of the centre (the number of partitions of n).

Run:  python3 demos/span_dimension.py
"""

from fractions import Fraction

from starfact.algebra import e, transitive_evaluate
from starfact.perms import partitions_of


def rank(vectors):
    """Rank over the rationals, by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        lead = rows[done]
        for r in range(done + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], lead)]
        done += 1
    return done


for n in range(2, 6):
    lams = [lam for w in range(n + 5) for lam in partitions_of(w)
            if all(part <= n - 1 for part in lam)]
    classes = partitions_of(n)
    vectors = []
    for lam in lams:
        decomp = transitive_evaluate(e(*lam.parts), n).decompose()
        vectors.append([decomp.get(cls, 0) for cls in classes])
    print(f"n={n} functions={len(lams)} span_dimension={rank(vectors)} "
          f"centre_dimension={len(classes)}")
