"""A small DDH group for tests: the protocol runs as in the 2048-bit default
group, with far cheaper exponentiations."""

from twosfgl.psi import PsiBackend


class PowBackend(PsiBackend):
    """A group OpenSSL cannot work in (it refuses moduli under 512 bits), so
    its blinding map is Python's ``pow``, the reference OpenSSL's powers are
    tested against."""

    def exponentiator(self, secret: int):
        p = self.modulus
        return lambda elements: [pow(e, secret, p) for e in elements]


def ddh_small() -> PsiBackend:
    """The 62-bit group of the safe prime p = 2q + 1, q prime."""
    return PowBackend(modulus=4611686018427377339, order=2305843009213688669)
