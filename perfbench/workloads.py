"""The benchmark's workloads.  Each is a cycle of ``twosfgl`` commands (steps),
each step with a generated config.

A run repeats the cycle, one process at a time, so every timed sample covers
two commands.  That gives each workload a longer run within the time all runs
may take together, which is what keeps its medians steady on a shared
machine; the reasons for each step and for what was left out are in
design.json.
"""

from dataclasses import dataclass

__all__ = ["Step", "Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Step:
    name: str
    command: str             # twosfgl subcommand: "run" or "fuse"
    body: str                # config text without the seeds line

    @property
    def trains(self) -> bool:
        return self.command == "run"

    def config(self, seed: int) -> str:
        """Config text whose single experiment seed is the benchmark seed."""
        return (f"# perfbench step {self.name}, benchmark seed {seed}\n"
                f"seeds = {seed}\n{self.body}")


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple             # Steps, run in this order once per cycle


_SYNTHETIC = "synth.nodes = 1000\n"

WORKLOADS = {w.name: w for w in [
    Workload("train", (
        Step("gcn_headline", "run", _SYNTHETIC + (
            "arms = 2sfgl, fedavg_only, local\n"
            "arch = gcn\n"
            "federation.rounds = 100\n"
            "report.window_lo = 60\n"
            "report.window_hi = 100\n")),
        Step("sage_fused", "run", _SYNTHETIC + (
            "arms = 2sfgl, fedavg_only\n"
            "arch = sage\n"
            "federation.rounds = 12\n"
            "report.window_lo = 7\n"
            "report.window_hi = 12\n")),
    )),
    Workload("stage1", (
        Step("fusion_khop", "fuse", (
            "synth.nodes = 800\n"
            "fusion.hops = 2\n"
            "fusion.dp_epsilon = 1\n")),
        Step("psi_ddh", "fuse", (
            "synth.nodes = 10\n"
            "synth.relations = 2\n"
            "synth.inter_p = 0.2\n"
            "fusion.psi = ddh\n")),
    )),
]}
