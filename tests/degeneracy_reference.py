"""Reference degeneracy search: independence by `rank(chosen + [v])`.

This is the construction that `etv.degeneracy` replaced by one incremental
echelon form (`etv.linalg.EchelonBasis`): every independence test
eliminates all of the chosen vectors again.  The search order is the same,
so the tests require equal verdicts and equal witnesses.
"""

from etv.degeneracy import DegeneracyWitness
from etv.linalg import rank, rref


def _extend_transversal(sets, chosen):
    if not sets:
        return []
    head, tail = sets[0], sets[1:]
    for v in head:
        if rank(chosen + [v]) > len(chosen):
            rest = _extend_transversal(tail, chosen + [v])
            if rest is not None:
                return [v] + rest
    return None


def _subfamily_transversal(family, indices):
    return _extend_transversal([family.sets[i] for i in indices], [])


def is_nondegenerate(family) -> bool:
    if family.k > family.n:
        return False
    return _subfamily_transversal(family, range(family.k)) is not None


def _span_contains_set(basis, vectors) -> bool:
    r = len(basis)
    return all(rank(list(basis) + [v]) == r for v in vectors)


def _validates(witness, family) -> bool:
    basis = list(witness.subspace_basis)
    return (len(rref(basis)[0]) == witness.p - 1
            and len(witness.set_indices) == witness.p
            and all(rank(basis + [v]) <= witness.p - 1
                    for i in witness.set_indices for v in family.sets[i]))


def degeneracy_witness(family) -> DegeneracyWitness:
    """Greedy maximal nondegenerate subfamily, then narrowing by spans."""
    if is_nondegenerate(family):
        raise ValueError("family is nondegenerate; no witness exists")
    chosen, reps = [], []
    for i in range(family.k):
        transversal = _subfamily_transversal(family, chosen + [i])
        if transversal is not None:
            chosen.append(i)
            reps = transversal
    outside = next(i for i in range(family.k) if i not in chosen)
    rep_of = dict(zip(chosen, reps))
    current = list(chosen)
    while True:
        basis = rref([rep_of[i] for i in current])[0]
        inside = [i for i in current
                  if _span_contains_set(basis, family.sets[i])]
        if len(inside) == len(current):
            witness = DegeneracyWitness(
                p=len(current) + 1,
                set_indices=tuple(sorted(current + [outside])),
                subspace_basis=tuple(basis))
            assert _validates(witness, family)
            return witness
        assert inside, "narrowing emptied the subfamily"
        current = inside
