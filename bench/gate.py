"""Correctness gate for every keygen, checked outside the timed region.

The primality check is written here on purpose, independent of
mprsa.numtheory, so a defect there cannot vouch for its own output.
"""

import random
from collections import defaultdict

from mprsa import assert_counts

# Miller-Rabin with these bases is exact below 3.3e24 (about 2**81), which
# covers every factor the workloads produce; larger inputs also get
# random bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_EXTRA_ROUNDS = 32


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = list(_BASES)
    if n >= _EXACT_BELOW:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def keygen_failures(keygen, reference: list | None) -> list[str]:
    """Names of the checks this keygen fails; empty when it is correct.

    `reference` is the workload's recorded [modulus, attempts] per keygen
    index, or None while it is being recorded.
    """
    failed = []
    moduli = set(keygen.moduli.values())
    if len(keygen.moduli) != keygen.config.parties or len(moduli) != 1:
        return ["moduli_agree"]
    (modulus,) = moduli
    p, q = keygen.p, keygen.q
    if p is None or q is None:
        failed.append("reconstruct")
    else:
        if p * q != modulus:
            failed.append("product")
        if p % 4 != 3 or q % 4 != 3:
            failed.append("mod4")
        if not (is_prime(p) and is_prime(q)):
            failed.append("miller_rabin")
    by_attempt = defaultdict(list)
    for record in keygen.records:
        by_attempt[record.attempt].append(record)
    if sorted(by_attempt) != list(range(1, keygen.attempts + 1)):
        failed.append("counts")
    elif not all(assert_counts(rs, keygen.config).ok for rs in by_attempt.values()):
        failed.append("counts")
    if reference is not None and reference[keygen.index:keygen.index + 1] != [
        [modulus, keygen.attempts]
    ]:
        failed.append("reference")
    return failed

