import math
from pathlib import Path

import pytest

from twosfgl.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config)
from twosfgl.fedavg import FederationConfig
from twosfgl.fusion import FusionConfig
from twosfgl.psi import PsiBackend
from twosfgl.synth import SyntheticSpec

MINIMAL = "synth.nodes = 40\n"
SMOKE = (Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
         ).read_text(encoding="utf-8")


def test_minimal_synth_config_uses_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.arch == "gcn"
    assert cfg.seeds == (0,)
    assert cfg.arms == ("2sfgl", "fedavg_only", "local_rel0", "local_rel1",
                        "local_rel2")
    assert cfg.synth.nodes == 40
    assert cfg.synth.relations == SyntheticSpec().relations
    assert cfg.node_path is None
    assert cfg.fusion == FusionConfig()
    assert cfg.fusion.dp_epsilon == math.inf
    assert cfg.federation == FederationConfig()
    assert (cfg.window_lo, cfg.window_hi, cfg.federation.rounds) == (60, 100, 100)


def test_every_key_reaches_its_field():
    text = """
    arch = sage
    seeds = 3, 5, 8
    arms = 2sfgl, fedavg_only
    out_dir = results
    fusion.lambda = 0.4
    fusion.hops = 2
    fusion.dp_epsilon = 1.5
    fusion.psi = ddh
    federation.rounds = 80
    federation.local_steps = 2
    sample.ratio_low = 0.6
    sample.ratio_high = 1.8
    split.train_frac = 0.7
    model.fanout = 7
    model.lr = 0.01
    report.window_lo = 40
    report.window_hi = 80
    synth.nodes = 50
    synth.fraud_fraction = 0.25
    synth.relations = 2
    synth.intra_p = 0.1
    synth.inter_p = 0.01
    synth.features = 6
    synth.class_sep = 0.8
    synth.coverage = 0.5
    """
    cfg = parse_config(text)
    assert cfg.arch == "sage"
    assert cfg.seeds == (3, 5, 8)
    assert cfg.arms == ("2sfgl", "fedavg_only")
    assert cfg.out_dir == "results"
    assert cfg.fusion == FusionConfig(lam=0.4, hops=2, dp_epsilon=1.5,
                                      psi=PsiBackend())
    assert cfg.federation == FederationConfig(rounds=80, local_steps=2)
    assert (cfg.ratio_low, cfg.ratio_high) == (0.6, 1.8)
    assert cfg.train_frac == 0.7
    assert (cfg.fanout, cfg.lr) == (7, 0.01)
    assert (cfg.window_lo, cfg.window_hi) == (40, 80)
    assert cfg.synth == SyntheticSpec(nodes=50, fraud_fraction=0.25,
                                      relations=2, intra_p=0.1, inter_p=0.01,
                                      features=6, class_sep=0.8, coverage=0.5)


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("# a comment\n\n   \nsynth.nodes = 40\n# tail\n")
    assert cfg.synth.nodes == 40


def test_data_paths_resolve_against_base_dir(tmp_path):
    text = "data.nodes = n.csv\ndata.relation.upvote = r1.csv\n" \
           "data.relation.reply = sub/r2.csv\n"
    cfg = parse_config(text, base_dir=tmp_path)
    assert cfg.node_path == str(tmp_path / "n.csv")
    assert cfg.relation_paths == {"upvote": str(tmp_path / "r1.csv"),
                                  "reply": str(tmp_path / "sub" / "r2.csv")}


@pytest.mark.parametrize("text,fragment", [
    ("nonsense\n", "line 1"),
    ("synth.nodes = 40\nbogus.key = 1\n", "unknown key 'bogus.key'"),
    ("synth.nodes = 40\nsynth.nodes = 50\n", "line 2: duplicate"),
    ("federation.rounds = soon\nsynth.nodes = 40\n", "expects int"),
    ("fusion.lambda = high\nsynth.nodes = 40\n", "expects float"),
    ("data.relation. = x.csv\n", "relation name missing"),
    ("synth.nodes = 9\n", "synth.*"),
    ("fusion.psi = dhh\nsynth.nodes = 40\n", "fusion.*: psi must be"),
    ("fusion.hops = 4\nsynth.nodes = 40\n", "fusion.*: hops must be"),
    ("fusion.lambda = 2\nsynth.nodes = 40\n", "fusion.*: lam must"),
    ("fusion.dp_epsilon = 0\nsynth.nodes = 40\n", "fusion.*: dp_epsilon must"),
    ("federation.rounds = 0\nsynth.nodes = 40\n",
     "federation.*: rounds must be >= 1"),
    ("federation.local_steps = -1\nsynth.nodes = 40\n",
     "federation.*: local_steps must be >= 0"),
    ("synth.nodes = 20\nsynth.class_sep = nan\n",
     "synth.*: class_sep must be finite"),
    ("synth.nodes = 20\nsynth.class_sep = inf\n",
     "synth.*: class_sep must be finite"),
    # one fraud node leaves no pair for a fraud block; all fraud, no negatives
    ("synth.nodes = 100\nsynth.fraud_fraction = 0.01\n",
     "synth.*: fraud_fraction 0.01 of 100 nodes gives 1 fraud nodes"),
    ("synth.nodes = 10\nsynth.fraud_fraction = 0.99\n",
     "synth.*: fraud_fraction 0.99 of 10 nodes gives 10 fraud nodes"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_inf_epsilon_disables_noise_keyword():
    cfg = parse_config("synth.nodes = 40\nfusion.dp_epsilon = inf\n")
    assert cfg.fusion.dp_epsilon == math.inf


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(arch="mlp"), "unknown arch"),
    (dict(seeds=()), "at least one seed"),
    (dict(arms=()), "at least one arm"),
    (dict(arms=("fused",)), "unknown arm"),
    (dict(), "either synth"),
    (dict(synth=SyntheticSpec(), node_path="x"), "mutually exclusive"),
    (dict(node_path="x"), "no data.relation"),
    (dict(synth=SyntheticSpec(), window_lo=0), "window"),
    (dict(synth=SyntheticSpec(), window_lo=50, window_hi=40), "window"),
    (dict(synth=SyntheticSpec(), federation=FederationConfig(rounds=30)),
     "only 30 rounds"),
])
def test_experiment_config_validation(kwargs, fragment):
    defaults = dict(kwargs)
    if "synth" not in defaults and "node_path" not in defaults:
        pass  # exercise the missing-data error
    with pytest.raises(ConfigError, match=None) as err:
        ExperimentConfig(**defaults)
    assert fragment in str(err.value)


def test_local_arm_resolves_to_one_arm_per_relation():
    spec = SyntheticSpec(relations=2)
    cfg = ExperimentConfig(synth=spec, arms=("2sfgl", "local"))
    assert cfg.arms == ("2sfgl", "local_rel0", "local_rel1")
    cfg = ExperimentConfig(synth=spec, arms=("local_rel1", "fedavg_only"))
    assert cfg.arms == ("local_rel1", "fedavg_only")
    with pytest.raises(ConfigError, match="unknown arm 'local_missing'"):
        ExperimentConfig(synth=spec, arms=("local_missing",))
    with pytest.raises(ConfigError, match="unknown arm 'local_rel2'"):
        ExperimentConfig(synth=spec, arms=("local_rel2",))


@pytest.mark.parametrize("arms", [("2sfgl", "local", "local_rel0"),
                                  ("2sfgl", "fedavg_only", "2sfgl"),
                                  ("local", "local")])
def test_an_arm_listed_twice_after_resolution_is_rejected(arms):
    with pytest.raises(ConfigError,
                       match="'(2sfgl|local_rel0)' is listed more"):
        ExperimentConfig(synth=SyntheticSpec(relations=2), arms=arms)


def test_local_prefix_arms_are_accepted():
    cfg = ExperimentConfig(synth=SyntheticSpec(),
                           arms=("local_rel0", "fedavg_only"))
    assert cfg.arms == ("local_rel0", "fedavg_only")


def test_fusion_config_inherits_experiment_settings():
    cfg = parse_config("synth.nodes = 40\nfusion.lambda = 0.3\n"
                       "fusion.hops = 2\nfusion.dp_epsilon = 2.0\n"
                       "fusion.psi = ddh\n")
    fus = cfg.fusion
    assert (fus.lam, fus.hops, fus.dp_epsilon, fus.psi, fus.seed) == \
        (0.3, 2, 2.0, PsiBackend(), 0)
    assert parse_config("synth.nodes = 40\n").fusion.psi is None
    assert parse_config("synth.nodes = 40\nfusion.psi = plain\n").fusion.psi is None


def test_load_config_roundtrip_and_missing_files(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("synth.nodes = 40\nseeds = 1, 2\n", encoding="utf-8")
    cfg = load_config(good)
    assert cfg.seeds == (1, 2)

    data_cfg = tmp_path / "data.cfg"
    data_cfg.write_text("data.nodes = nodes.csv\n"
                        "data.relation.net = net.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing data files") as err:
        load_config(data_cfg)
    assert "nodes.csv" in str(err.value) and "net.csv" in str(err.value)

    (tmp_path / "nodes.csv").write_text("0,0,1.0\n", encoding="utf-8")
    (tmp_path / "net.csv").write_text("0,0\n", encoding="utf-8")
    cfg = load_config(data_cfg)  # existence check passes, parsing is lazy
    assert cfg.node_path == str(tmp_path / "nodes.csv")

    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


# each value once ran silently wrong or failed only at the train stage
@pytest.mark.parametrize("line,fragment", [
    ("split.train_frac = 1.5", "train_frac"),
    ("split.train_frac = 0", "train_frac"),
    ("split.train_frac = 1", "train_frac"),
    ("sample.ratio_low = 3\nsample.ratio_high = 2", "ratio_low <= ratio_high"),
    ("sample.ratio_low = -0.5", "0 <= ratio_low"),
    ("sample.ratio_low = 0\nsample.ratio_high = 0", "ratio_high > 0"),
    ("model.lr = -1", "model.lr"),
    ("model.lr = 0", "model.lr"),
    ("model.lr = inf", "model.lr"),
    ("federation.local_steps = -1", "local_steps"),
    ("model.fanout = 0", "fanout"),
    ("seeds = 3, 3", "duplicate seed"),
])
def test_values_that_would_run_wrong_fail_at_load(tmp_path, line, fragment):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE.replace("seeds = 0\n", "") + line + "\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert fragment in str(err.value)


def test_boundary_values_still_load():
    cfg = parse_config(MINIMAL + "sample.ratio_low = 0\n"
                       "sample.ratio_high = 0.5\nfederation.local_steps = 0\n"
                       "model.fanout = 1\nsplit.train_frac = 0.01\n")
    assert (cfg.ratio_low, cfg.ratio_high, cfg.federation.local_steps,
            cfg.fanout) == \
        (0.0, 0.5, 0, 1)
    assert parse_config(MINIMAL + "sample.ratio_low = 1\n"
                        "sample.ratio_high = 1\n").ratio_high == 1.0


@pytest.mark.parametrize("name", ["a,b", "a b", "a/b", "a.b", "r\u00e9l"])
def test_relation_names_outside_the_safe_set_are_rejected(name):
    with pytest.raises(ConfigError, match="relation name"):
        parse_config(f"data.nodes = n.csv\ndata.relation.{name} = r.csv\n")


def test_relation_names_may_use_letters_digits_underscore_and_dash():
    cfg = parse_config("data.nodes = n.csv\ndata.relation.Up-vote_2 = r.csv\n")
    assert list(cfg.relation_paths) == ["Up-vote_2"]
