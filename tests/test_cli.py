import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tensor_to_log_lines
from popsi.cli import RunConfig, load_config, main
from popsi.synth import SynthConfig, generate


@pytest.fixture
def workspace(tmp_path):
    tensor = generate(SynthConfig(m1=60, m2=40, densities=(0.06, 0.1), seed=3))
    log = tmp_path / "interactions.csv"
    log.write_text("\n".join(tensor_to_log_lines(tensor, ["purchase", "click"])) + "\n")
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        f"input = {log}\n"
        "behaviors = purchase,click\n"
        "r = 6\n"
        "p = 0.2\n"
        "seed = 9\n"
        "k_values = 5,10\n"
        f"out = {tmp_path / 'out'}\n"
    )
    return tmp_path, cfg


def run(args):
    return main([str(a) for a in args])


def test_config_parsing(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("r = 32\np = 0.3\nuse_pop = false\nbehaviors = buy, view\n# comment\n")
    cfg = load_config(path)
    assert cfg.r == 32 and cfg.p == 0.3 and cfg.use_pop is False
    assert cfg.behaviors == ["buy", "view"]


def test_config_rejects_unknown_boolean(tmp_path, capsys):
    path = tmp_path / "c.conf"
    path.write_text("r = 32\nuse_pop = ture\n")
    with pytest.raises(ValueError, match=f"{path}:2"):
        load_config(path)
    assert run(["fit", "--config", path]) == 2
    assert f"{path}:2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("r = abc", "r must be an integer, got 'abc'"),
        ("p = high", "p must be a number, got 'high'"),
        ("k_values = 20,x", "k_values must be a comma list of integers, got '20,x'"),
    ],
    ids=["r", "p", "k_values"],
)
def test_config_rejects_bad_number(tmp_path, capsys, line, message):
    path = tmp_path / "c.conf"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:2: {message}"
    assert run(["fit", "--config", path]) == 2
    assert f"{path}:2: {message}" in capsys.readouterr().err


def test_config_unknown_key(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_ingest_outputs(workspace, capsys):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    out = tmp_path / "out"
    stats = json.loads((out / "stats.json").read_text())
    # tokens are indexed on first appearance; silent users/items never appear
    assert 0 < stats["users"] <= 60 and 0 < stats["items"] <= 40
    assert set(stats["behaviors"]) == {"purchase", "click"}
    assert 0 < stats["target_sparsity"] < 1
    assert (out / "tensor.txt").exists() and (out / "users.txt").exists()
    # effective config round-trips
    effective = json.loads((out / "effective_config.json").read_text())
    from dataclasses import asdict

    assert effective == asdict(load_config(cfg))


def test_ingest_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run(
        ["ingest", "--input", empty, "--behaviors", "purchase", "--out", tmp_path / "o"]
    )
    assert code == 2
    assert "no records" in capsys.readouterr().err


def test_ingest_rejects_repeated_behavior(workspace, capsys):
    tmp_path, cfg = workspace
    args = ["ingest", "--config", cfg, "--behaviors", "purchase,purchase,click"]
    assert run(args) == 2
    assert "distinct" in capsys.readouterr().err
    # `# behaviors` is a whitespace-separated list, so a label may not contain a space
    assert run(["ingest", "--config", cfg, "--behaviors", "purchase,add to cart"]) == 2
    assert "whitespace" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tensor.txt").exists()
    # empty entries of the flag are dropped, as in the config file
    assert run(["ingest", "--config", cfg, "--behaviors", "purchase,,click,"]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert list(stats["behaviors"]) == ["click", "purchase"]
    assert stats["target_behavior"] == "purchase" and stats["target_entries"] > 0


def test_ingest_unknown_behavior_warns(workspace):
    tmp_path, cfg = workspace
    log = tmp_path / "interactions.csv"
    log.write_text(log.read_text() + "u0,i0,swipe,5\n")
    assert run(["ingest", "--config", cfg]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["unknown_behavior_lines"] == 1


def test_fit_evaluate_pipeline(workspace, capsys):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    out = tmp_path / "out"
    log = json.loads((out / "fit_log.json").read_text())
    assert log["r"] == 6 and log["r_refined"] <= 6
    assert log["steps"]["debias_skipped"] is False
    for mode in ("mode1", "mode2"):
        svd = log["svd"][mode]
        assert set(svd) == {"iterations", "stop", "residual", "sigma_gap"}
        assert svd["iterations"] >= 4 and svd["stop"] in ("converged", "stalled")
        assert svd["residual"] >= 0 and svd["sigma_gap"] >= 1
    assert run(["evaluate", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("recall_at_5", "recall_at_10", "ndcg_at_5", "ndcg_at_10", "pri",
                "users_evaluated", "users_skipped_pri", "config"):
        assert key in report
    assert report["config"]["r"] == 6 and report["config"]["seed"] == 9


def test_fit_no_pop_skips_debias(workspace):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg, "--no-pop"]) == 0
    log = json.loads((tmp_path / "out" / "fit_log.json").read_text())
    assert log["steps"]["debias_skipped"] is True
    assert log["steps"]["debias_seconds"] is None


def test_fit_deterministic_model_files(workspace):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    first = (tmp_path / "out" / "model.bin").read_bytes()
    assert run(["fit", "--config", cfg]) == 0
    assert (tmp_path / "out" / "model.bin").read_bytes() == first


def test_recommend_known_and_unknown(workspace, capsys):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    run(["fit", "--config", cfg])
    capsys.readouterr()
    code = run(["recommend", "--config", cfg, "--k", "3", "u0", "nobody"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 1
    user_lines = [l for l in lines if l.startswith("u0\t")]
    assert len(user_lines) == 3
    scores = [float(l.split("\t")[2]) for l in user_lines]
    assert scores == sorted(scores, reverse=True)
    assert any(l.startswith("ERR unknown user") for l in lines)


def test_recommend_rejects_model_of_other_data(workspace, capsys):
    from conftest import random_binary_tensor
    from popsi.linalg import SvdOptions
    from popsi.model import fit, save_model

    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    other = random_binary_tensor(np.random.default_rng(0), 7, 5, 2, density=0.5)
    save_model(fit(other, r=2, opts=SvdOptions(rank=2)), tmp_path / "out" / "model.bin")
    capsys.readouterr()
    for command in (["recommend", "--config", cfg, "u0"], ["evaluate", "--config", cfg]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert "do not match" in captured.err and captured.out == ""


def test_sweep_exits_1_when_a_grid_point_fails(workspace, capsys):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["sweep", "--config", cfg, "--param", "r", "--values", "4,100000"]) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "param,value,ndcg_at_50,pri"
    assert rows[1].startswith("r,4,0.") and rows[2] == "r,100000,,"
    assert "r=100000" in capsys.readouterr().err


def test_sweep_propagates_programming_errors(workspace, monkeypatch):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])

    def broken_fit(*args, **kwargs):
        raise TypeError("broken fit")

    monkeypatch.setattr("popsi.cli.fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        run(["sweep", "--config", cfg, "--param", "r", "--values", "4"])


@pytest.mark.parametrize(
    "values, message",
    [
        ("20.7,20", "r must be a whole number, got '20.7'"),
        ("4,six", "r must be a number, got 'six'"),
        ("4,nan", "r must be a whole number, got 'nan'"),
    ],
    ids=["fraction", "word", "nan"],
)
def test_sweep_rejects_bad_value_before_fitting(workspace, capsys, values, message):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["sweep", "--config", cfg, "--param", "r", "--values", values]) == 2
    assert f"error: --values: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_csv(workspace):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["sweep", "--config", cfg, "--param", "r", "--values", "4,6,4"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "param,value,ndcg_at_50,pri"
    # duplicates deduplicated
    assert len(rows) == 3
    assert rows[1].startswith("r,4,") and rows[2].startswith("r,6,")


def test_flag_overrides_config(workspace):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["fit", "--config", cfg, "--r", "4"]) == 0
    log = json.loads((tmp_path / "out" / "fit_log.json").read_text())
    assert log["r"] == 4


def test_cli_import_skips_scipy_stats():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import popsi.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
