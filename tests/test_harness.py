import numpy as np
import pytest

from twosfgl.config import ExperimentConfig, parse_config
from twosfgl.data import load_dataset
from twosfgl.fedavg import FederationConfig
from twosfgl.fusion import FusionConfig
from twosfgl.harness import (fusion_outputs, prepare_data, report_from_dir,
                             run_arm, run_experiment, summarize, write_summary,
                             write_table)
from twosfgl.metrics import METRIC_NAMES, RoundHistory, window_average
from twosfgl.synth import SyntheticSpec

TINY_SYNTH = dict(nodes=40, fraud_fraction=0.3, relations=2, intra_p=0.4,
                  inter_p=0.05, features=4, class_sep=1.0, coverage=0.6)


def tiny_config(rounds=4, **kw):
    base = dict(synth=SyntheticSpec(**TINY_SYNTH), seeds=(0,),
                arms=("2sfgl", "fedavg_only", "local"),
                federation=FederationConfig(rounds=rounds),
                window_lo=2, window_hi=4)
    base.update(kw)
    return ExperimentConfig(**base)


def tree(out_dir):
    return sorted(str(p.relative_to(out_dir))
                  for p in out_dir.rglob("*") if p.is_file())


# -------------------------------------------------------------------- arms


def test_run_experiment_rejects_a_repeated_arm_before_writing_data(tmp_path):
    with pytest.raises(ValueError, match="'local_rel0' is listed more"):
        run_experiment(tiny_config(arms=("2sfgl", "local", "local_rel0")),
                       out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_experiment_checks_arms_of_loaded_data_before_reading_it(tmp_path):
    # the data files do not exist: the arm error must come first
    paths = dict(node_path=str(tmp_path / "nodes.csv"),
                 relation_paths={"b": str(tmp_path / "b.csv"),
                                 "a": str(tmp_path / "a.csv")})
    assert ExperimentConfig(**paths, arms=("local",)).arms == \
        ("local_a", "local_b")
    with pytest.raises(ValueError, match="'local_a' is listed more"):
        run_experiment(ExperimentConfig(**paths, arms=("local", "local_a")),
                       out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------- single arms


def test_run_arm_rejects_bad_requests(tmp_path):
    cfg = tiny_config()
    dataset = prepare_data(cfg, 0, tmp_path)
    with pytest.raises(ValueError, match="needs fused graphs"):
        run_arm(cfg, dataset, "2sfgl", None, None, 0, fused=None)


def test_prepare_data_synth_roundtrips_through_csv(tmp_path):
    cfg = tiny_config()
    dataset = prepare_data(cfg, 3, tmp_path)
    reloaded = load_dataset(tmp_path / "data" / "seed3" / "nodes.csv",
                            {name: tmp_path / "data" / f"seed3/{name}.csv"
                             for name in ("rel0", "rel1")})
    assert sorted(dataset.relations) == ["rel0", "rel1"]
    assert np.array_equal(dataset.relations["rel0"].edges,
                          reloaded.relations["rel0"].edges)
    assert (dataset.nodes.features == reloaded.nodes.features).all()


def test_fusion_outputs_dump_contract(tmp_path):
    cfg = tiny_config()
    dataset = prepare_data(cfg, 0, tmp_path)
    fused = fusion_outputs(cfg, dataset, 0, dump_dir=tmp_path / "fusion")
    assert [g.relation_name for g in fused] == ["rel0", "rel1"]
    names = tree(tmp_path / "fusion")
    assert names == ["fused_rel0.csv", "fused_rel1.csv",
                     "shares_rel0_rel1.csv", "shares_rel1_rel0.csv",
                     "tags_rel0.csv", "tags_rel1.csv"]
    tag_rows = (tmp_path / "fusion" / "tags_rel0.csv").read_text().splitlines()
    assert tag_rows[0] == "# src,dst,origin"
    origins = {line.rsplit(",", 1)[1] for line in tag_rows[1:]}
    assert origins <= {"local", "fused", "both"}
    assert len(tag_rows) - 1 == len(fused[0].edges)
    for a, b in (("rel0", "rel1"), ("rel1", "rel0")):
        share_path = tmp_path / "fusion" / f"shares_{a}_{b}.csv"
        share_rows = share_path.read_text().splitlines()
        assert share_rows[0] == "# sender,src,dst,hops,value"
        assert len(share_rows) > 1
        assert {row.split(",", 1)[0] for row in share_rows[1:]} == {a}


# ------------------------------------------------------------ full pipeline


def test_run_experiment_writes_every_artifact(tmp_path):
    cfg = tiny_config(seeds=(0, 1))
    summary = run_experiment(cfg, out_dir=tmp_path)
    arms = ["2sfgl", "fedavg_only", "local_rel0", "local_rel1"]
    expected = {f"history_{arm}_{seed}.csv"
                for arm in arms for seed in (0, 1)}
    expected |= {"summary.csv", "table.txt"}
    for seed in (0, 1):
        expected |= {f"data/seed{seed}/{n}.csv"
                     for n in ("nodes", "rel0", "rel1")}
        # the audit dumps (tags_*, shares_*) come only from `twosfgl fuse`
        expected |= {f"fusion_seed{seed}/{n}"
                     for n in ("fused_rel0.csv", "fused_rel1.csv")}
    assert set(tree(tmp_path)) == expected
    assert set(summary) == {(arm, m) for arm in arms for m in METRIC_NAMES}
    for value in summary.values():
        assert 0.0 <= value <= 1.0


def test_run_experiment_summary_matches_history_files(tmp_path):
    cfg = tiny_config(seeds=(0, 1))
    summary = run_experiment(cfg, out_dir=tmp_path)
    arms = ["2sfgl", "fedavg_only", "local_rel0", "local_rel1"]
    for arm in arms:
        for metric in METRIC_NAMES:
            values = []
            for seed in (0, 1):
                history = RoundHistory.from_csv(
                    tmp_path / f"history_{arm}_{seed}.csv")
                values.append(window_average(history, 2, 4)[(arm, metric)])
            expected = sum(values) / len(values)
            assert summary[(arm, metric)] == pytest.approx(expected,
                                                           abs=1e-15)


def test_run_experiment_skips_fusion_when_not_armed(tmp_path):
    cfg = tiny_config(arms=("fedavg_only",))
    run_experiment(cfg, out_dir=tmp_path)
    assert not list(tmp_path.glob("fusion_seed*"))
    assert (tmp_path / "history_fedavg_only_0.csv").is_file()


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = tiny_config(seeds=(0, 1), fusion=FusionConfig(dp_epsilon=3.0))
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    names_a, names_b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_experiment_sage_arch_runs(tmp_path):
    cfg = tiny_config(arch="sage", arms=("2sfgl",), rounds=2,
                      window_lo=1, window_hi=2)
    summary = run_experiment(cfg, out_dir=tmp_path)
    assert ("2sfgl", "auc") in summary


def test_run_experiment_errors_name_seed_and_stage(tmp_path):
    bad_data = parse_config("data.nodes = missing.csv\n"
                            "data.relation.x = also_missing.csv\n",
                            base_dir=tmp_path)
    with pytest.raises(RuntimeError, match="seed 0, stage data"):
        run_experiment(bad_data, out_dir=tmp_path / "out1")

    (tmp_path / "negatives.csv").write_text("0,0,1.0\n1,0,2.0\n2,0,3.0\n")
    (tmp_path / "r.csv").write_text("0,1\n1,2\n")
    no_positives = parse_config("data.nodes = negatives.csv\n"
                                "data.relation.r = r.csv\n", base_dir=tmp_path)
    with pytest.raises(RuntimeError, match="seed 0, stage sample: "
                       "balance_sample requires both classes"):
        run_experiment(no_positives, out_dir=tmp_path / "out3")

    broken_train = tiny_config(arch="sage", arms=("fedavg_only",))
    broken_train.fanout = 0   # set past the load-time check, to fail in train
    with pytest.raises(RuntimeError,
                       match="seed 0, arm fedavg_only, stage train"):
        run_experiment(broken_train, out_dir=tmp_path / "out2")


# ---------------------------------------------------------------- summaries


def fake_histories(arms, seeds, rounds=3):
    histories = {}
    for arm in arms:
        for seed in seeds:
            h = RoundHistory()
            for r in range(1, rounds + 1):
                for i, metric in enumerate(METRIC_NAMES):
                    h.append(r, arm, metric, 0.1 * i + 0.01 * seed)
                histories[(arm, seed)] = h
    return histories


def test_summarize_means_over_seeds():
    cfg = tiny_config(seeds=(0, 4), rounds=3, window_lo=1, window_hi=3)
    summary = summarize(fake_histories(["x_arm"], [0, 4]), cfg)
    # constant per seed: mean over seeds of (0.1i + 0.01 seed)
    for i, metric in enumerate(METRIC_NAMES):
        assert summary[("x_arm", metric)] == pytest.approx(0.1 * i + 0.02)


def test_summarize_rejects_foreign_rows():
    cfg = tiny_config(rounds=3, window_lo=1, window_hi=3)
    histories = fake_histories(["a"], [0])
    histories[("b", 0)] = next(iter(histories.values()))
    with pytest.raises(ValueError, match="contains rows"):
        summarize(histories, cfg)


def test_write_summary_and_table_formats(tmp_path):
    cfg = tiny_config(seeds=(0, 1), rounds=3, window_lo=1, window_hi=3)
    summary = {("2sfgl", m): 0.5 for m in METRIC_NAMES}
    summary.update({("fedavg_only", m): 0.25 for m in METRIC_NAMES})
    write_summary(summary, tmp_path / "summary.csv")
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "arm,metric,value"
    assert lines[1] == "2sfgl,macro_f1,0.5"
    assert len(lines) == 1 + 2 * len(METRIC_NAMES)

    write_table(summary, cfg, [0, 1], 3, tmp_path / "table.txt")
    text = (tmp_path / "table.txt").read_text()
    assert "arch=gcn" in text and "window=1-3" in text and "seeds=0,1" in text
    assert "rounds=3" in text
    assert "2sfgl" in text and "0.5000" in text and "0.2500" in text
    header = text.splitlines()[1].split()
    assert header == ["arm", *METRIC_NAMES]


def test_report_from_dir_reproduces_run_outputs(tmp_path):
    cfg = tiny_config(seeds=(0, 1))
    run_experiment(cfg, out_dir=tmp_path)
    summary_bytes = (tmp_path / "summary.csv").read_bytes()
    table_bytes = (tmp_path / "table.txt").read_bytes()
    (tmp_path / "summary.csv").unlink()
    (tmp_path / "table.txt").unlink()
    summary = report_from_dir(tmp_path, cfg)
    assert (tmp_path / "summary.csv").read_bytes() == summary_bytes
    assert (tmp_path / "table.txt").read_bytes() == table_bytes
    assert ("2sfgl", "auc") in summary


def test_report_table_lists_the_seeds_it_summarized(tmp_path):
    # histories of seed 1 only, as `run --seed 1` leaves them, reported with
    # a config that lists three seeds
    run_experiment(tiny_config(seeds=(1,)), out_dir=tmp_path)
    summary_bytes = (tmp_path / "summary.csv").read_bytes()
    table = (tmp_path / "table.txt").read_text()
    report_from_dir(tmp_path, tiny_config(seeds=(0, 1, 2)))
    assert (tmp_path / "summary.csv").read_bytes() == summary_bytes
    assert (tmp_path / "table.txt").read_text() == table
    assert table.splitlines()[0].endswith("  seeds=1")


def test_report_from_dir_wants_history_files(tmp_path):
    with pytest.raises(FileNotFoundError, match="history"):
        report_from_dir(tmp_path, tiny_config())
    (tmp_path / "history_strange.csv").write_text("round,arm,metric,value\n")
    with pytest.raises(ValueError, match="cannot parse"):
        report_from_dir(tmp_path, tiny_config())


def test_report_from_dir_rejects_a_repeated_round(tmp_path):
    # rounds 1 and 2 at 0.5 plus a second round-2 row at 0.9 once averaged
    # to 0.7, the last row silently replacing the first
    history = RoundHistory()
    for round_index, value in ((1, 0.5), (2, 0.5), (2, 0.9)):
        history.append(round_index, "fedavg_only", "auc", value)
    history.to_csv(tmp_path / "history_fedavg_only_0.csv")
    cfg = tiny_config(arms=("fedavg_only",), rounds=2, window_lo=1, window_hi=2)
    with pytest.raises(ValueError, match="fedavg_only/auc repeats round 2"):
        report_from_dir(tmp_path, cfg)
    assert not (tmp_path / "summary.csv").exists()
