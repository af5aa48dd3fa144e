"""
Private set intersection by blind exponentiation
================================================

Before two parties can compare edges they must agree on the vertices
they share — without revealing the vertices they don't.  Each side
blinds its hashed ids with a secret exponent, the other side re-blinds
them, and only doubly blinded values ever cross the wire.
"""

import numpy as np

from twosfgl.psi import PsiBackend, encode_id, psi_ddh, psi_plain

# Id sets are ascending id arrays; any sequence of ids is normalized.
bank_a = [512, 101, 205, 317, 428, 699]
bank_b = [205, 317, 512, 888, 941]

# The trusted-oracle answer, for comparison.
print("plain intersection:", psi_plain(bank_a, bank_b).tolist())

# The protocol run over the 2048-bit safe-prime group (1.5 ms per id traced).
backend = PsiBackend()
result = psi_ddh(bank_a, bank_b, backend=backend, seed=7,
                 name_a="bank_a", name_b="bank_b")
print("protocol result:   ", result.intersection_a.tolist())
print("both sides agree:  ",
      np.array_equal(result.intersection_a, result.intersection_b))

# Four messages total: each party's blinded list, then each list
# re-blinded by the other party.
print("\ntranscript:")
for sender, payload in result.transcript.records:
    n_elements = len(payload) // backend.element_bytes
    print(f"  {sender} sent {n_elements} elements ({len(payload)} bytes)")

# Nothing outside the intersection appears in the traffic in the clear.
payload = result.transcript.payload_bytes()
exposed = [x for x in np.setxor1d(bank_a, bank_b).tolist()
           if encode_id(x) in payload]
print("\nnon-shared ids visible on the wire:", exposed or "none")
