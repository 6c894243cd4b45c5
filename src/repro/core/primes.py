"""Prime cubes of GRM forms (Section 3.3).

A cube ``p`` is *prime* in ``f`` when the Boolean difference of ``f``
with respect to all variables of ``p`` is the constant 1.  Primality
depends only on the variable *set* ``S(p)``, every prime cube occurs in
every GRM form of ``f`` (Csanky et al.), and within one form ``p`` is
prime iff it is the only cube whose support contains ``S(p)``.

This module provides the exact set-based test, the direct
Boolean-difference verification, and the paper's iterative
"longest-cubes-first" detection ladder.  The set-based test
(:meth:`Grm.prime_cubes`) runs as two superset-closure sweeps over the
packed coefficient vector — the FPRM butterfly's shape — which mark
every cube with a strictly larger cube of the form; the unmarked cubes
are prime.  The ladder and :func:`prime_cubes_exact` are the references
the tests hold it to.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from repro.boolfunc.truthtable import TruthTable
from repro.grm.forms import Grm
from repro.utils import bitops


def is_prime_support(f: TruthTable, var_mask: int) -> bool:
    """Direct definition: ``∂f/∂S ≡ 1`` for the variable set ``var_mask``."""
    return f.boolean_difference_set(var_mask) == TruthTable.one(f.n)


def prime_cubes(grm: Grm) -> FrozenSet[int]:
    """Prime cubes of the form (no other cube's support is a superset)."""
    return grm.prime_cubes()


def prime_cubes_exact(f: TruthTable) -> FrozenSet[int]:
    """Prime variable sets of ``f`` computed from the definition.

    Candidates are drawn from an arbitrary GRM form (primes occur in every
    form) and each is verified with the Boolean difference; used as ground
    truth against :func:`prime_cubes` in the tests.
    """
    grm = Grm.from_truthtable(f, (1 << f.n) - 1)
    return frozenset(c for c in grm.cubes if is_prime_support(f, c))


def csanky_ladder(grm: Grm) -> FrozenSet[int]:
    """The paper's iterative detection procedure.

    Repeatedly: take the longest remaining cubes (always prime), then
    discard every cube whose support is a subset of a found prime's
    support; whatever remains is examined again.
    """
    remaining: Set[int] = set(grm.cubes)
    primes: Set[int] = set()
    while remaining:
        longest = max(bitops.popcount(c) for c in remaining)
        layer = {c for c in remaining if bitops.popcount(c) == longest}
        primes |= layer
        survivors = set()
        for c in remaining - layer:
            if any((c & p) == c for p in layer):
                continue  # support is a subset of a new prime's support
            survivors.add(c)
        remaining = survivors
    return frozenset(primes)


def prime_count_vector(grm: Grm) -> List[int]:
    """The paper's PCV array: per variable, the number of prime cubes
    containing it."""
    primes = grm.prime_cubes()
    pcv = [0] * grm.n
    for p in primes:
        for i in bitops.iter_bits(p):
            pcv[i] += 1
    return pcv


def prime_vic(grm: Grm):
    """The paper's PCvic matrix: VIC restricted to prime cubes
    (entry ``[k][j]`` counts prime cubes of length ``k`` containing ``x_j``)."""
    primes = grm.prime_cubes()
    vic = [[0] * grm.n for _ in range(grm.n + 1)]
    for p in primes:
        k = bitops.popcount(p)
        for j in bitops.iter_bits(p):
            vic[k][j] += 1
    return tuple(tuple(row) for row in vic)


def prime_inc(grm: Grm):
    """The paper's PCinc matrix: INC restricted to prime cubes."""
    primes = grm.prime_cubes()
    inc = [[0] * grm.n for _ in range(grm.n)]
    for p in primes:
        vars_in = bitops.bits_of(p)
        if len(vars_in) == 1:
            inc[vars_in[0]][vars_in[0]] = 1
        for a in range(len(vars_in)):
            for b in range(a + 1, len(vars_in)):
                inc[vars_in[a]][vars_in[b]] += 1
                inc[vars_in[b]][vars_in[a]] += 1
    return tuple(tuple(row) for row in inc)
