"""A small DDH group for tests: the protocol runs as in the 2048-bit default
group, with far cheaper exponentiations."""

from twosfgl.psi import PsiBackend


def ddh_small() -> PsiBackend:
    """The 62-bit group of the safe prime p = 2q + 1, q prime."""
    return PsiBackend(modulus=4611686018427377339, order=2305843009213688669)
