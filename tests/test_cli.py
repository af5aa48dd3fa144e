import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosfgl
from twosfgl import fusion as fusion_module
from twosfgl import cli, harness
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


def reports(out):
    return {name: (out / name).read_bytes()
            for name in ("summary.csv", "table.txt")}


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


def test_fuse_prints_only_the_graphs_it_fused(cfg_path, tmp_path, capsys):
    # an earlier run's fused_rel2.csv and fused_rel3.csv stay, unprinted
    out = tmp_path / "fused"
    four = tmp_path / "four.cfg"
    four.write_text(TINY.replace("synth.relations = 2", "synth.relations = 4"),
                    encoding="utf-8")
    assert run_cli("fuse", "--config", four, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("fuse", "--config", cfg_path, "--out", out) == 0
    assert capsys.readouterr().out.splitlines() == [
        str(out / "fused_rel0.csv"), str(out / "fused_rel1.csv")]
    assert (out / "fused_rel3.csv").is_file()


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


def test_fuse_names_the_stage_that_failed(cfg_path, tmp_path, capsys,
                                          monkeypatch):
    # a bad input file fails the data stage, as it does under run
    (tmp_path / "nodes.csv").write_text("0,0,1.0\n1,7,2.0\n")
    (tmp_path / "r.csv").write_text("0,1\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data.nodes = nodes.csv\ndata.relation.r = r.csv\n")
    for command in ("fuse", "run"):
        out = tmp_path / command
        assert run_cli(command, "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"twosfgl {command}: error: seed 0, stage data: " in err
        assert "non-binary label 7 for node id 1" in err

    def broken_fusion(*args, **kwargs):
        raise ValueError("no round ran")

    monkeypatch.setattr(cli, "fusion_outputs", broken_fusion)
    assert run_cli("fuse", "--config", cfg_path, "--out", tmp_path / "f") == 1
    assert "seed 0, stage fusion: no round ran" in capsys.readouterr().err


def test_run_full_pipeline_prints_table(cfg_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg_path, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "arch=gcn" in stdout and "2sfgl" in stdout
    assert (out / "summary.csv").is_file()
    assert (out / "table.txt").is_file()
    assert (out / "history_2sfgl_0.csv").is_file()


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
    before = reports(out)
    (out / "table.txt").unlink()
    assert run_cli("report", "--config", cfg_path, "--out", out,
                   "--seed", -1) == 0
    assert reports(out) == before
    assert b"seeds=-1\n" in before["table.txt"]


def test_report_summarizes_exactly_the_config_seeds(cfg_path, tmp_path,
                                                     capsys):
    # two one-seed runs into one directory: each report covers the seeds of
    # its config, whatever other histories the directory holds
    out = tmp_path / "runs"
    for seed in (0, 1):
        assert run_cli("run", "--config", cfg_path, "--out", out,
                       "--seed", seed) == 0
    second_run = reports(out)
    assert run_cli("report", "--config", cfg_path, "--out", out,
                   "--seed", 1) == 0
    assert reports(out) == second_run

    both = tmp_path / "both.cfg"
    both.write_text(TINY + "seeds = 0, 1\n", encoding="utf-8")
    assert run_cli("report", "--config", both, "--out", out) == 0
    reported = reports(out)
    assert reported["table.txt"].splitlines()[0].endswith(b"  seeds=0,1")
    assert run_cli("run", "--config", both, "--out", tmp_path / "both") == 0
    assert reports(tmp_path / "both") == reported

    three = tmp_path / "three.cfg"
    three.write_text(TINY + "seeds = 0, 1, 2\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--config", three, "--out", out) == 1
    assert "history_2sfgl_2.csv" in capsys.readouterr().err
    assert reports(out) == reported


@pytest.mark.parametrize("command", ["gen", "fuse"])
def test_commands_without_training_still_check_arms(command, tmp_path, capsys):
    cfg = tmp_path / "arms.cfg"
    cfg.write_text(TINY + "arms = 2sfgl, local_missing\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 1
    assert "unknown arm 'local_missing'" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_histories_of_another_round_count(tmp_path, capsys):
    smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
    out = tmp_path / "runs"
    assert run_cli("run", "--config", smoke, "--out", out) == 0
    written = reports(out)
    assert b"  rounds=40  " in written["table.txt"]
    longer = tmp_path / "longer.cfg"
    longer.write_text(smoke.read_text(encoding="utf-8").replace(
        "federation.rounds = 40", "federation.rounds = 60"), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--config", longer, "--out", out) == 1
    err = capsys.readouterr().err
    assert "history_2sfgl_0.csv: history does not hold exactly 60 rounds" in err
    assert reports(out) == written


def test_seed_and_arch_overrides(tmp_path, capsys):
    # --seed replaces the config's seeds; the architecture is the config's
    cfg = tmp_path / "sage.cfg"
    cfg.write_text(TINY + "arch = sage\n", encoding="utf-8")
    out = tmp_path / "runs"
    assert run_cli("run", "--config", cfg, "--out", out, "--seed", 7) == 0
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


def test_cli_has_no_train_command_or_arch_option(cfg_path, capsys):
    # a run is what its config says: stage 2 alone is a config without the
    # 2sfgl arm, and the architecture is the config's arch key
    for argv in (["train", "--config", cfg_path],
                 ["run", "--config", cfg_path, "--arch", "sage"]):
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv)
        assert exit_.value.code == 2
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


@pytest.mark.parametrize("psi, loaded", [("plain", False), ("ddh", True)])
def test_only_ddh_psi_loads_cryptography(psi, loaded, tmp_path):
    # OpenSSL's modexp is needed by the DDH protocol alone
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("synth.nodes = 10\nsynth.relations = 2\nsynth.inter_p = 0.2\n"
                   f"fusion.psi = {psi}\n", encoding="utf-8")
    loaded_now = "print(any(m.split('.')[0] == 'cryptography' for m in sys.modules))"
    probe = (f"import sys; from twosfgl import cli, harness; {loaded_now}; "
             f"cli.main(['fuse', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}]); {loaded_now}")
    out = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.splitlines()  # the flags around fuse's file list
    assert [lines[0], lines[-1]] == ["False", str(loaded)]


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


@pytest.mark.parametrize("command", ["gen", "fuse", "run", "report"])
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


# sha256 of every CSV that `fuse` writes on configs/smoke.cfg.  A7 compares
# reruns of one tree; these digests hold the bytes across changes to the
# fusion code, which must not move them.
SMOKE_INPUT_DIGESTS = {
    "data/seed0/nodes.csv": "5f578944121057a35e36e5d1108f2f275e386f497ec4ac7dd98dcce0ca917d02",
    "data/seed0/rel0.csv": "9de40f9a0493c720f29cfc79cafeeeeab6a3b1c0e1b6bc3a13f6e82f9c4ebd04",
    "data/seed0/rel1.csv": "93d807433116c8c98131a07ad0b4019b220ebcb46f64d23079fd956f785189eb",
    "data/seed0/rel2.csv": "7397dff691a77cfcc2d358bc7e6fda72f5cc349f485bd6e0b7dc6ed8dc6bd0c6",
}
SMOKE_FUSE_DIGESTS = {
    "hops 2, epsilon 1": {
        "fused_rel0.csv": "9e355721b84ada4cbb0759ca478630120ff45f6600c75614c57d2cc113ab5902",
        "fused_rel1.csv": "c180ffb2a5797da38dcbf9c6f3052d979aead648ab325bb788f50a6ce9dd28ab",
        "fused_rel2.csv": "b0de233fc4beef0157a71a9fac6874abfcc6a1f0bfa79269e2abc9a31e788c04",
        "shares_rel0_rel1.csv": "3b143d50e9fa1f5649825ffe335c09dc3a550c724b3b998f725c37743677fd99",
        "shares_rel0_rel2.csv": "49d16518d880a2ca1f67b4a0e5870145f45ee90aa43126478d4bc3e71e9570a4",
        "shares_rel1_rel0.csv": "d55f0b802c310d63841385abb63af13a3e797a7052991b72628085544c204659",
        "shares_rel1_rel2.csv": "e3feb31354817b334969c353f48c13745e1df3f288982b364d5c616de8ba73c9",
        "shares_rel2_rel0.csv": "50e96b8baae83d6666e1f583be54158d50b597fb8bc25f0260ba6e4b3305d63c",
        "shares_rel2_rel1.csv": "afda41dbd9716c68cbf63284f480fff9e81540c598febf04d3f0a691b176421e",
        "tags_rel0.csv": "56d8eff366e697776e4a3b7e96ac2f9b66370489df1484c8b969bc276a1bf01b",
        "tags_rel1.csv": "e5139c8b287b11071f3a67cd065cd9b32d2faa99fc1260b80c955167480fe5d7",
        "tags_rel2.csv": "50cb0af14103c9baf6951c11dd163c69c001e682d381e936f05afb27efba40be",
    },
    # at epsilon inf a sender's two batches are one batch: it is formatted
    # once, and its second file is a copy
    "hops 1, epsilon inf": {
        "fused_rel0.csv": "a290a6ed89924ded7f6f645c1bd17c641025ee1d5884713539a1a1f70248924f",
        "fused_rel1.csv": "18a2ebf03b496e3dec82e5bc721102c75d9d7083850d62c3de4d89a511ac9348",
        "fused_rel2.csv": "318b871f69a6eddc66fb77e76f87706978c8beed566a270739c54c4b89d8e4c7",
        "shares_rel0_rel1.csv": "7723dd2df32fe7868681701e63abd2e19ab4d887ddc207563702acbac9afc37f",
        "shares_rel0_rel2.csv": "7723dd2df32fe7868681701e63abd2e19ab4d887ddc207563702acbac9afc37f",
        "shares_rel1_rel0.csv": "155213122f7500f4ba59af8c448665b1289b925ff3b19d68825f32dcf436b887",
        "shares_rel1_rel2.csv": "155213122f7500f4ba59af8c448665b1289b925ff3b19d68825f32dcf436b887",
        "shares_rel2_rel0.csv": "4cf3f1536b42c528b633697bae8226fc734fbb78a123241561c0e6f43bd98f77",
        "shares_rel2_rel1.csv": "4cf3f1536b42c528b633697bae8226fc734fbb78a123241561c0e6f43bd98f77",
        "tags_rel0.csv": "3343baee3085826c9096595daeafc67940e35a16fb6b78eb6192bb3c6a510e9b",
        "tags_rel1.csv": "b81e89aadaa783f0f6bde19ce6b2e3005fc936558a8219830a6c6c1b4a7c91a2",
        "tags_rel2.csv": "a2542a4e6793f9a6ebc8eda3ee185434b087b732c96932aba27fb15cbdfb2429",
    },
}


@pytest.mark.parametrize("setting", list(SMOKE_FUSE_DIGESTS))
def test_fuse_on_the_smoke_config_writes_the_pinned_bytes(setting, tmp_path,
                                                          capsys, monkeypatch):
    hops, epsilon = (part.split()[1] for part in setting.split(", "))
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(SMOKE.read_text(encoding="utf-8")
                   + f"fusion.hops = {hops}\nfusion.dp_epsilon = {epsilon}\n",
                   encoding="utf-8")
    formatted = []
    real_write_shares = harness.write_shares

    def counting(shares, path, sender):
        formatted.append(path.name)
        real_write_shares(shares, path, sender)

    monkeypatch.setattr(harness, "write_shares", counting)
    out = tmp_path / "out"
    assert run_cli("fuse", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    # one array per sender at epsilon inf, one per pair under noise
    assert len(formatted) == (3 if epsilon == "inf" else 6)
    digests = {f.relative_to(out).as_posix():
               hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.rglob("*.csv")}
    assert digests == {**SMOKE_INPUT_DIGESTS, **SMOKE_FUSE_DIGESTS[setting]}
