"""
Stage 1: virtual fusion of private graphs
=========================================

Three parties hold different relations over the same customers.  None
will hand over raw edge weights, so each sends *normalized* shares —
every weight divided by the total weight at its source vertex — and the
receiver re-scales them against its own totals.  A damping threshold
keeps any single remote claim from dominating.
"""

import math

from twosfgl.data import ClientGraph
from twosfgl.fusion import (FusionConfig, apply_dp, edge_origins,
                            normalize_edges, update_edge, virtual_fusion_round)


def graph(name, edges, n=6):
    """A party's graph from (u, v, weight) rows with u < v, in (u, v) order."""
    return ClientGraph(relation_name=name, vertices=range(n),
                       edges=edges)


def pairs(g):
    return set(zip(g.edges.u.tolist(), g.edges.v.tolist()))


# --- normalization: what actually leaves a party -------------------------

payments = graph("payments", [(0, 1, 2.0), (0, 2, 6.0), (1, 2, 2.0)])
print("payments holds:", {(u, v): w for u, v, w in payments.edges.tolist()})
shares = normalize_edges(payments, common=range(6))
print("it transmits only shares:")
for s in shares:
    print(f"  {s.src} -> {s.dst}: {s.value:.4f}")

# Vertex 0 spends 2 of its 8 total on the edge to 1, hence 0.25; the
# absolute scale never leaves the building.

# --- the threshold update ------------------------------------------------

# A receiver turns a share N back into a weight against its own incident
# total.  Shares at or above lambda are capped: a remote party can raise
# an edge, but only so far.
for n_value in (0.1, 0.25, 0.49, 0.5, 0.9):
    print(f"share {n_value:.2f} against local total 4.0 ->",
          f"{update_edge(n_value, 4.0, lam=0.5):.3f}")

# --- optional differential privacy ---------------------------------------

noisy = apply_dp(shares, epsilon=2.0, seed=1)
print("\nwith Laplace noise (epsilon=2):")
for before, after in zip(shares, noisy):
    print(f"  {before.src} -> {before.dst}: "
          f"{before.value:.4f} becomes {after.value:.4f}")

# --- a full fusion round --------------------------------------------------

clients = [
    payments,
    graph("messages", [(1, 2, 3.0), (2, 3, 1.0)]),
    graph("devices", [(3, 4, 2.0)]),
]
config = FusionConfig(lam=0.5, hops=2, dp_epsilon=math.inf)
fused, traffic = virtual_fusion_round(clients, config, seed=0)

print("\nafter one fusion round:")
for before, after in zip(clients, fused):
    gained = pairs(after) - pairs(before)
    print(f"  {before.relation_name}: {len(before.edges)} -> "
          f"{len(after.edges)} edges, gained {sorted(gained)}")

# Where each fused edge came from follows from the local graph and the
# share batches the party received, one per sender.
devices = fused[2]
inbox = [traffic[sender, "devices"] for sender in ("payments", "messages")]
origins = edge_origins(clients[2], devices, inbox)
for (u, v, w), origin in zip(devices.edges.tolist(), origins.tolist()):
    print(f"  devices {(u, v)}: weight {w:.3f} ({origin})")
