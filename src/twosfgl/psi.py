"""Private set intersection over vertex identifiers.

A backend is a DDH group, or the plain oracle when ``FusionConfig.psi`` is
None:

* ``psi_plain`` — a trusted-oracle set intersection, used as the reference
  in tests and for trusted-setup simulation runs.
* ``psi_ddh`` with a ``PsiBackend`` — the two-round blind-exponentiation
  protocol of Meadows and of Huberman, Franklin and Hogg, in the subgroup of
  prime order q of Z_p* for a safe prime p = 2q + 1.  Each party hashes its
  ids into the group, blinds them with a secret exponent, and exchanges
  them; the peer re-blinds with its own secret.  Double-blinded values
  H(x)^(ab) coincide exactly for common ids, so each party learns which of
  its own ids are shared and nothing else (honest-but-curious model).

Hash to group: RFC 9380 ``expand_message_xmd`` over SHA-256 stretches an
id's encoding to bitlen(p) + 128 bits.  Reduced mod p that is within 2^-128
of uniform, and squaring it lands in the subgroup with one multiplication,
with no known discrete-log relation between hashed points.

Exponentiation: OpenSSL performs every blinding modexp, through the
``cryptography`` package's Diffie-Hellman exchange: an exchange whose peer
"public key" is e yields exactly e^secret mod p, by Montgomery
multiplication, about a tenth of the cost of Python's ``pow`` on a 2048-bit
modulus.  The default group must be one OpenSSL knows by name (RFC 3526's
2048-bit MODP group is): OpenSSL refuses moduli under 512 bits, and it
checks an unnamed group's parameters each time a peer value is loaded,
which made each element of a 768-bit safe-prime group cost 15 ms, six
times ``pow`` on the 2048-bit group.

Subgroup test: for a safe prime the order-q subgroup is exactly the
quadratic residues, so by Euler's criterion ``e^q = 1 (mod p)`` holds iff
the Jacobi symbol (e | p) is 1.  The Jacobi symbol is a gcd-like loop, far
cheaper than the full-width modexp; it is why a backend rejects a group
whose modulus is not 2 * order + 1.  With the modexps in OpenSSL, these
checks (one per received element, in Python) are now the protocol's main
cost.  The identity 1 is a quadratic residue, but a list holding it is
refused: it is no blinded id, and OpenSSL refuses it as a peer value.

Secrets: blinding exponents are uniform in [1, min(2^256, q) - 1], at least
twice the 112-bit strength of the 2048-bit group (RFC 7919 §5.2).  A seeded
secret stretches its seed with the same ``expand_message_xmd``; seeded runs
are reproducible by design, so their secrets carry only the seed's entropy.
"""

import hashlib
import secrets as _secrets
from dataclasses import dataclass, field

import numpy as np

from .data import id_array
from .seeding import derive_seed

__all__ = [
    "PsiBackend",
    "PsiTranscript",
    "PsiResult",
    "PsiProtocolError",
    "psi_plain",
    "psi_ddh",
    "encode_id",
]

# RFC 3526 2048-bit MODP group: a safe prime, (p-1)/2 is prime.
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF", 16)

_HASH_DST = b"TWOSFGL-PSI-V01-hash-to-group-XMD:SHA-256"
_SECRET_DST = b"TWOSFGL-PSI-V01-secret-XMD:SHA-256"
_SECRET_BITS = 256


class PsiProtocolError(RuntimeError):
    """Protocol abort: a received message violates the group contract."""


@dataclass(frozen=True)
class PsiBackend:
    """The DDH group the intersection protocol works in.

    ``modulus`` is a safe prime p = 2q + 1 and ``order`` is the prime q, the
    order of the subgroup of quadratic residues.  The default is the 2048-bit
    group, whose order >= 2^255 is as recommended for real use.
    """

    modulus: int = _MODP_2048_P
    order: int = (_MODP_2048_P - 1) // 2

    def __post_init__(self):
        if self.modulus != 2 * self.order + 1:
            raise ValueError("a ddh group needs a safe prime: modulus == 2 * order + 1")

    @property
    def element_bytes(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def hash_to_group(self, ident: int) -> int:
        p = self.modulus
        width = (p.bit_length() + 128 + 7) // 8
        wide = int.from_bytes(_expand_xmd(encode_id(ident), _HASH_DST, width), "big")
        return pow(wide % p, 2, p)

    def exponentiator(self, secret: int):
        """One party's blinding map: a list of subgroup elements e to the
        list of e^secret mod p, in order.

        OpenSSL computes each power as a Diffie-Hellman exchange with peer
        value e; the party's key is built once, here.  ``secret`` must lie
        in [1, order - 1], as ``random_secret``'s output does, and callers
        check first that each element is a subgroup element other than 1:
        OpenSSL refuses 0, 1, p - 1 and p as peer values, and a secret of
        ``order`` makes it panic with an error that ``except Exception``
        does not catch.
        """
        from cryptography.hazmat.primitives.asymmetric import dh

        p = self.modulus
        group = dh.DHParameterNumbers(p, 2)
        key = dh.DHPrivateNumbers(
            secret, dh.DHPublicNumbers(pow(2, secret, p), group)).private_key()

        def power(elements) -> list:
            return [int.from_bytes(key.exchange(
                        dh.DHPublicNumbers(e, group).public_key()), "big")
                    for e in elements]
        return power

    def in_subgroup(self, element: int) -> bool:
        return 1 <= element < self.modulus and _jacobi(element, self.modulus) == 1

    def random_secret(self, seed=None) -> int:
        span = min(1 << _SECRET_BITS, self.order) - 1
        if seed is None:
            return 1 + _secrets.randbelow(span)
        # 128 spare bits keep the reduction mod span within 2^-128 of uniform
        wide = _expand_xmd(int(seed).to_bytes(16, "big", signed=True),
                           _SECRET_DST, _SECRET_BITS // 8 + 16)
        return 1 + int.from_bytes(wide, "big") % span


def _expand_xmd(msg: bytes, dst: bytes, length: int) -> bytes:
    """RFC 9380 §5.3.1 ``expand_message_xmd`` with SHA-256."""
    blocks = -(-length // 32)
    if blocks > 255 or length > 65535 or len(dst) > 255:
        raise ValueError("expand_message_xmd: output or DST too long")
    dst_prime = dst + bytes([len(dst)])
    b0 = hashlib.sha256(bytes(64) + msg + length.to_bytes(2, "big") + b"\x00"
                        + dst_prime).digest()
    out = [hashlib.sha256(b0 + b"\x01" + dst_prime).digest()]
    for i in range(2, blocks + 1):
        mixed = bytes(x ^ y for x, y in zip(b0, out[-1]))
        out.append(hashlib.sha256(mixed + bytes([i]) + dst_prime).digest())
    return b"".join(out)[:length]


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def encode_id(ident: int) -> bytes:
    """Canonical byte encoding of a vertex id (8-byte big-endian)."""
    return int(ident).to_bytes(8, "big", signed=False)


@dataclass
class PsiTranscript:
    """Append-only record of every message, for audit and privacy tests."""

    records: list = field(default_factory=list)  # (sender, payload bytes)

    def append(self, sender: str, payload: bytes) -> None:
        self.records.append((sender, payload))

    def payload_bytes(self) -> bytes:
        return b"".join(payload for _, payload in self.records)


@dataclass(frozen=True, eq=False)
class PsiResult:
    """Each party's view of the intersection, an id array, and the messages."""

    intersection_a: np.ndarray
    intersection_b: np.ndarray
    transcript: PsiTranscript


def psi_plain(ids_a, ids_b) -> np.ndarray:
    """Trusted-oracle intersection of two id sets, as an id array."""
    return id_array(np.intersect1d(id_array(ids_a), id_array(ids_b),
                                   assume_unique=True))


def _pack(backend: PsiBackend, elements) -> bytes:
    size = backend.element_bytes
    return b"".join(e.to_bytes(size, "big") for e in elements)


def _check_received(backend: PsiBackend, elements, what: str) -> None:
    for e in elements:
        if e == 1:
            raise PsiProtocolError(f"{what}: identity element")
        if not backend.in_subgroup(e):
            raise PsiProtocolError(f"{what}: element not in the prime-order subgroup")
    if len(set(elements)) != len(elements):
        raise PsiProtocolError(
            f"{what}: duplicate blinded values (hash collision; "
            f"group order {backend.order} is too small for this id set)")


def psi_ddh(ids_a, ids_b, backend: PsiBackend, seed: int | None = None,
            name_a: str = "A", name_b: str = "B") -> PsiResult:
    """Run the two-round blind-exponentiation intersection protocol.

    Round 1: each party sends its blinded ids {H(x)^secret}.  Round 2: each
    party re-blinds the peer's list (order preserved) and returns it.  A
    party then matches its own double-blinded ids against the set it
    computed from the peer's list.

    Both in-memory parties are simulated here; every message is appended to
    the transcript exactly as it would cross the wire.  Each party's secret
    is ``backend.random_secret``'s: derived from ``seed`` and the party's
    name, or drawn from OS randomness when ``seed`` is None.
    """
    secret_a, secret_b = (
        backend.random_secret(None if seed is None else derive_seed(seed, name))
        for name in (name_a, name_b))

    power_a = backend.exponentiator(secret_a)
    power_b = backend.exponentiator(secret_b)
    ids_a = id_array(ids_a)
    ids_b = id_array(ids_b)
    transcript = PsiTranscript()

    # round 1: blinded own sets, in ascending id order
    blinded_a = power_a([backend.hash_to_group(x) for x in ids_a])
    blinded_b = power_b([backend.hash_to_group(y) for y in ids_b])
    _check_received(backend, blinded_a, f"{name_b} receiving from {name_a}")
    _check_received(backend, blinded_b, f"{name_a} receiving from {name_b}")
    transcript.append(name_a, _pack(backend, blinded_a))
    transcript.append(name_b, _pack(backend, blinded_b))

    # round 2: peer re-blinds, order preserved
    double_a = power_b(blinded_a)   # computed by B
    double_b = power_a(blinded_b)   # computed by A
    _check_received(backend, double_a, f"{name_a} receiving re-blinded list")
    _check_received(backend, double_b, f"{name_b} receiving re-blinded list")
    transcript.append(name_b, _pack(backend, double_a))
    transcript.append(name_a, _pack(backend, double_b))

    # each party keeps its ids whose double-blinded value the peer's list holds
    in_a, in_b = set(double_a), set(double_b)
    return PsiResult(intersection_a=id_array(ids_a[[d in in_b for d in double_a]]),
                     intersection_b=id_array(ids_b[[d in in_a for d in double_b]]),
                     transcript=transcript)
