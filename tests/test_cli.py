import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosfgl
from twosfgl import fusion as fusion_module
from twosfgl.cli import main

TINY = """
synth.nodes = 40
synth.relations = 2
synth.intra_p = 0.4
synth.inter_p = 0.05
synth.features = 4
synth.class_sep = 1.0
federation.rounds = 2
report.window_lo = 1
report.window_hi = 2
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_single_seed_writes_into_out(cfg_path, tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen", "--config", cfg_path, "--out", out) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [p.rsplit("/", 1)[-1] for p in printed] == \
        ["nodes.csv", "rel0.csv", "rel1.csv"]
    for name in ("nodes.csv", "rel0.csv", "rel1.csv"):
        assert (out / name).is_file()


def test_gen_multiple_seeds_use_subdirectories(cfg_path, tmp_path):
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(TINY + "seeds = 0, 1\n", encoding="utf-8")
    out = tmp_path / "data"
    assert run_cli("gen", "--config", cfg, "--out", out) == 0
    assert (out / "seed0" / "nodes.csv").is_file()
    assert (out / "seed1" / "rel1.csv").is_file()


def test_gen_requires_synth_keys(tmp_path, capsys):
    (tmp_path / "n.csv").write_text("0,0,1.0\n1,1,2.0\n")
    (tmp_path / "r.csv").write_text("0,1\n")
    cfg = tmp_path / "data.cfg"
    cfg.write_text("data.nodes = n.csv\ndata.relation.r = r.csv\n")
    assert run_cli("gen", "--config", cfg) == 1
    assert "twosfgl gen: error:" in capsys.readouterr().err


def test_fuse_dumps_fused_graphs_and_shares(cfg_path, tmp_path, capsys):
    out = tmp_path / "fused"
    assert run_cli("fuse", "--config", cfg_path, "--out", out) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [p.rsplit("/", 1)[-1] for p in printed] == \
        ["fused_rel0.csv", "fused_rel1.csv"]
    names = {p.name for p in out.iterdir() if p.is_file()}
    assert {"fused_rel0.csv", "fused_rel1.csv",
            "shares_rel0_rel1.csv", "shares_rel1_rel0.csv"} <= names


def test_fuse_with_ddh_psi_writes_the_plain_csvs(tmp_path, monkeypatch):
    real_psi = fusion_module.psi_ddh
    groups = []

    def recording_psi(ids_a, ids_b, backend, **kwargs):
        groups.append(backend.modulus.bit_length())
        return real_psi(ids_a, ids_b, backend, **kwargs)

    monkeypatch.setattr(fusion_module, "psi_ddh", recording_psi)
    tiny = "synth.nodes = 10\nsynth.relations = 2\nsynth.inter_p = 0.2\n"
    outputs = {}
    for psi in ("plain", "ddh"):
        cfg = tmp_path / f"{psi}.cfg"
        cfg.write_text(tiny + f"fusion.psi = {psi}\n", encoding="utf-8")
        out = tmp_path / psi
        assert run_cli("fuse", "--config", cfg, "--out", out) == 0
        outputs[psi] = {f.relative_to(out): f.read_bytes()
                        for f in out.rglob("*.csv")}
    assert groups == [2048]
    assert len(outputs["plain"]) >= 7
    assert outputs["ddh"] == outputs["plain"]


def test_run_full_pipeline_prints_table(cfg_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg_path, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "arch=gcn" in stdout and "2sfgl" in stdout
    assert (out / "summary.csv").is_file()
    assert (out / "table.txt").is_file()
    assert (out / "history_2sfgl_0.csv").is_file()


def test_train_skips_fusion_and_fused_arm(cfg_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("train", "--config", cfg_path, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "fedavg_only" in stdout and "2sfgl" not in stdout
    assert not list(out.glob("fusion_seed*"))
    assert not list(out.glob("history_2sfgl_*"))


def test_train_with_only_fused_arm_fails(tmp_path, capsys):
    cfg = tmp_path / "only.cfg"
    cfg.write_text(TINY + "arms = 2sfgl\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg) == 1
    assert "twosfgl train: error:" in capsys.readouterr().err


def test_report_recomputes_from_histories(cfg_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg_path, "--out", out) == 0
    table_before = (out / "table.txt").read_bytes()
    (out / "summary.csv").unlink()
    (out / "table.txt").unlink()
    capsys.readouterr()
    assert run_cli("report", "--config", cfg_path, "--out", out) == 0
    assert (out / "table.txt").read_bytes() == table_before
    assert "arch=gcn" in capsys.readouterr().out


def test_report_reads_a_negative_seed(cfg_path, tmp_path):
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg_path, "--out", out,
                   "--seed", -1) == 0
    assert (out / "history_2sfgl_-1.csv").is_file()
    before = {name: (out / name).read_bytes()
              for name in ("summary.csv", "table.txt")}
    (out / "table.txt").unlink()
    assert run_cli("report", "--config", cfg_path, "--out", out) == 0
    assert {name: (out / name).read_bytes() for name in before} == before
    assert b"seeds=-1\n" in before["table.txt"]


@pytest.mark.parametrize("command", ["gen", "fuse"])
def test_commands_without_training_still_check_arms(command, tmp_path, capsys):
    cfg = tmp_path / "arms.cfg"
    cfg.write_text(TINY + "arms = 2sfgl, local_missing\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 1
    assert "unknown arm 'local_missing'" in capsys.readouterr().err
    assert not out.exists()


def test_report_table_gives_the_rounds_the_histories_hold(tmp_path):
    smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
    out = tmp_path / "runs"
    assert run_cli("run", "--config", smoke, "--out", out) == 0
    assert "  rounds=40  " in (out / "table.txt").read_text()
    longer = tmp_path / "longer.cfg"
    longer.write_text(smoke.read_text(encoding="utf-8").replace(
        "federation.rounds = 40", "federation.rounds = 60"), encoding="utf-8")
    assert run_cli("report", "--config", longer, "--out", out) == 0
    header = (out / "table.txt").read_text().splitlines()[0]
    assert "  rounds=40  " in header


def test_seed_and_arch_overrides(cfg_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg_path, "--out", out,
                   "--seed", 7, "--arch", "sage") == 0
    stdout = capsys.readouterr().out
    assert "arch=sage" in stdout and "seeds=7" in stdout
    assert (out / "history_2sfgl_7.csv").is_file()
    assert not (out / "history_2sfgl_0.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("synth.nodes = 40\nwho = knows\n", encoding="utf-8")
    assert run_cli("run", "--config", bad) == 1
    err = capsys.readouterr().err
    assert "twosfgl run: error:" in err and "unknown key" in err
    assert run_cli("run", "--config", tmp_path / "ghost.cfg") == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_requires_subcommand_and_config(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["run"])
    capsys.readouterr()


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(twosfgl.__file__).parents[1]))
SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""
RUN_MAIN = "import sys; from twosfgl.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy costs 0.15-0.25 s and
    # about 15 MB per process
    probe = ("import sys, twosfgl.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command, config", [
    ("run", SMOKE.read_text(encoding="utf-8")),
    ("fuse", "synth.nodes = 10\nsynth.relations = 2\nsynth.inter_p = 0.2\n"
             "fusion.psi = ddh\n"),
], ids=["run-smoke", "fuse-ddh"])
def test_commands_run_without_scipy(command, config, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config, encoding="utf-8")
    outputs = {}
    for name, prelude in (("blocked", BLOCK_SCIPY), ("plain", "")):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-c", prelude + RUN_MAIN, command,
             "--config", str(cfg), "--out", str(out)],
            env=SRC_ENV, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs[name] = {f.relative_to(out): f.read_bytes()
                         for f in out.rglob("*.csv")}
    assert outputs["blocked"]
    assert outputs["blocked"] == outputs["plain"]


@pytest.mark.parametrize("command", ["gen", "fuse", "train", "run", "report"])
def test_smoke_commands_pass_under_dev_mode_with_warnings_as_errors(
        command, tmp_path):
    # -X dev reports unclosed files and other resource warnings, and -W error
    # turns them, and any numpy deprecation, into a failing exit status
    def strict(name, out):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", RUN_MAIN, name,
             "--config", str(SMOKE), "--out", str(out)],
            env=SRC_ENV, capture_output=True, text=True, timeout=300)

    out = tmp_path / "out"
    if command == "report":
        assert strict("run", out).returncode == 0
        (out / "summary.csv").unlink()
    result = strict(command, out)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    expected = {"gen": "nodes.csv",
                "fuse": "shares_rel0_rel1.csv"}.get(command, "summary.csv")
    assert (out / expected).is_file()
