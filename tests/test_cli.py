import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tensor_to_log_lines, with_metadata
from popsi.cli import RunConfig, _read_settings, main
from popsi.data import read_coordinate_triples, read_tensor
from popsi.synth import SynthConfig, generate


@pytest.fixture
def workspace(tmp_path):
    tensor = generate(SynthConfig(m1=60, m2=40, densities=(0.06, 0.1), seed=3))
    log = tmp_path / "interactions.csv"
    log.write_text("\n".join(tensor_to_log_lines(tensor, ["purchase", "click"])) + "\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": str(log), "behaviors": ["purchase", "click"], "r": 6,
                               "p": 0.2, "seed": 9, "k_values": [5, 10],
                               "out": str(tmp_path / "out")}))
    return tmp_path, cfg


def with_settings(cfg: Path, name: str, **settings) -> Path:
    """A copy of the JSON settings file `cfg` with `settings` added or replaced."""
    path = cfg.parent / name
    path.write_text(json.dumps({**json.loads(cfg.read_text()), **settings}))
    return path


def run(args):
    return main([str(a) for a in args])


def test_config_parsing(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"r": 32, "p": 0.3, "use_pop": false, "behaviors": ["buy", "view"]}')
    settings = _read_settings(path)
    assert settings == {"r": 32, "p": 0.3, "use_pop": False, "behaviors": ["buy", "view"]}


def test_config_rejects_unknown_boolean(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"r": 32, "use_pop": "ture"}')
    message = f"{path}: use_pop must be of type bool, got 'ture'"
    with pytest.raises(ValueError, match=message):
        _read_settings(path)
    assert run(["fit", "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"r": "abc"', "r must be of type int, got 'abc'"),
        ('"p": "high"', "p must be of type float, got 'high'"),
        ('"k_values": [20, "x"]', "k_values must be of type list[int], got [20, 'x']"),
        ('"r" 32', "expected a JSON object of settings: "
                   "Expecting ':' delimiter: line 1 column 17 (char 16)"),
    ],
    ids=["r", "p", "k_values", "no-equals"],
)
def test_config_rejects_bad_number(tmp_path, capsys, entry, message):
    path = tmp_path / "c.json"
    path.write_text(f'{{"seed": 1, {entry}}}')
    with pytest.raises(ValueError) as err:
        _read_settings(path)
    assert str(err.value) == f"{path}: {message}"
    assert run(["fit", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_fit_rejects_negative_power_iters(workspace, capsys):
    """The SVD's iteration counts are constants: a power_iters key is an unknown key."""
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    bad = with_settings(cfg, "bad.json", power_iters=-5)
    assert run(["fit", "--config", bad]) == 2
    assert f"{bad}: unknown key 'power_iters'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.bin").exists()
    assert run(["sweep", "--config", bad, "--param", "p", "--values", "0.1"]) == 2
    assert f"{bad}: unknown key 'power_iters'" in capsys.readouterr().err


def test_config_unknown_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"nonsense": 1}')
    with pytest.raises(ValueError, match=f"{path}: unknown key 'nonsense'"):
        _read_settings(path)


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
    # the commands read tensor.bin; tensor.txt is the same tensor as text
    binary, text = read_tensor(out / "tensor.bin"), read_coordinate_triples(out / "tensor.txt")
    assert (binary.dims, binary.behavior_labels) == (text.dims, text.behavior_labels)
    assert binary.entries.dtype == np.int32 and np.array_equal(binary.entries, text.entries)
    # effective config round-trips
    effective = json.loads((out / "effective_config.json").read_text())
    from dataclasses import asdict, replace

    assert effective == asdict(replace(RunConfig(), **_read_settings(cfg)))


def test_ingest_reads_a_regular_log_on_the_fast_path(workspace, monkeypatch):
    """A regular log skips the line loop; CRLF line ends, a header and spaces around the
    fields send the same log through it, and the run comes out byte-identical."""
    import popsi.data

    tmp_path, cfg = workspace
    parse_regular, parsed = popsi.data._parse_regular, []

    def recorded(*args):
        parsed.append(parse_regular(*args))
        return parsed[-1]

    monkeypatch.setattr("popsi.data._parse_regular", recorded)
    assert run(["ingest", "--config", cfg]) == 0
    lines = Path(_read_settings(cfg)["input"]).read_text().splitlines()
    messy = tmp_path / "messy.csv"
    messy.write_bytes("".join(f"{' , '.join(line.split(','))}\r\n"
                              for line in ["user,item,behavior,time", *lines]).encode())
    assert run(["ingest", "--config", cfg, "--input", messy, "--header",
                "--out", tmp_path / "messy"]) == 0
    assert [log is not None for log in parsed] == [True, False]
    for name in ("tensor.txt", "tensor.bin", "users.txt", "items.txt", "stats.json"):
        assert (tmp_path / "messy" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_ingest_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run(
        ["ingest", "--input", empty, "--behaviors", "purchase", "--out", tmp_path / "o"]
    )
    assert code == 2
    assert "no records" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
def test_ingest_unreadable_input(tmp_path, capsys, name):
    out = tmp_path / "o"
    assert run(["ingest", "--input", tmp_path / name, "--behaviors", "purchase", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / name) in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["target_not_in_behaviors", "log_without_target"])
def test_ingest_rejects_empty_target_slice(workspace, capsys, case):
    tmp_path, cfg = workspace
    if case == "target_not_in_behaviors":
        args = ["ingest", "--config", cfg, "--target-behavior", "cart"]
        label = "cart"
    else:
        log = tmp_path / "interactions.csv"
        log.write_text("".join(l + "\n" for l in log.read_text().splitlines()
                               if ",purchase" not in l))
        args = ["ingest", "--config", cfg]
        label = "purchase"
    assert run(args) == 2
    assert f"error: no records of the target behavior {label!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ingest_rejects_repeated_behavior(workspace, capsys):
    tmp_path, cfg = workspace
    args = ["ingest", "--config", cfg, "--behaviors", "purchase,purchase,click"]
    assert run(args) == 2
    assert "distinct" in capsys.readouterr().err
    # `# behaviors` is a whitespace-separated list, so a label may not contain a space
    assert run(["ingest", "--config", cfg, "--behaviors", "purchase,add to cart"]) == 2
    assert "whitespace" in capsys.readouterr().err
    assert run(["ingest", "--config", cfg, "--behaviors", ","]) == 2  # no label left
    assert "error: behavior_labels must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tensor.txt").exists()
    # empty entries of the flag are dropped, as in the config file
    assert run(["ingest", "--config", cfg, "--behaviors", "purchase,,click,"]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert list(stats["behaviors"]) == ["click", "purchase"]
    assert stats["target_behavior"] == "purchase" and stats["target_entries"] > 0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ingest_rejects_empty_delimiter(workspace, capsys, source):
    tmp_path, cfg = workspace
    if source == "flag":
        args = ["ingest", "--config", cfg, "--delimiter", ""]
    else:
        args = ["ingest", "--config", with_settings(cfg, "empty.json", delimiter="")]
    assert run(args) == 2
    assert "error: delimiter must be a non-empty string" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tensor.txt").exists()


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
    assert set(log["seconds"]) == {"svd", "debias", "cores"}
    assert all(t >= 0 for t in log["seconds"].values())
    for mode in ("mode1", "mode2"):
        svd = log["svd"][mode]
        assert set(svd) == {"iterations", "stop", "residual", "sigma_gap", "qr_fallbacks",
                            "seconds"}
        assert 0 <= svd["seconds"] <= log["seconds"]["svd"]
        assert svd["iterations"] >= 4 and svd["stop"] in ("converged", "stalled")
        assert svd["residual"] >= 0 and svd["sigma_gap"] >= 1
        assert 0 <= svd["qr_fallbacks"] <= svd["iterations"] + 2
    assert set(log["debias"]) == {"rounds", "max_abs_pth"}
    assert 1 <= log["debias"]["rounds"] <= 3 and 0 <= log["debias"]["max_abs_pth"] <= 1e-10
    env = log["environment"]
    assert set(env) == {"python", "numpy", "scipy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
    assert run(["evaluate", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("recall_at_5", "recall_at_10", "ndcg_at_5", "ndcg_at_10", "pri",
                "users_evaluated", "users_skipped_pri", "config"):
        assert key in report
    assert report["config"]["r"] == 6 and report["config"]["seed"] == 9
    eval_log = json.loads((out / "eval_log.json").read_text())
    assert set(eval_log) == {"seconds", "zero_score_users", "whole_row_sorts",
                             "users_skipped_pri", "environment"}
    # the same writer: evaluate's environment is fit's, less any module it did not load
    eval_env = eval_log["environment"]
    assert eval_env.items() <= env.items()
    assert {"python", "numpy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS"} <= set(eval_env)
    assert set(eval_log["seconds"]) == {"load", "split", "score", "rank", "metrics", "pri"}
    assert all(t >= 0 for t in eval_log["seconds"].values())
    assert eval_log["users_skipped_pri"] == report["users_skipped_pri"]
    assert eval_log["zero_score_users"] >= 0 and eval_log["whole_row_sorts"] >= 0


def test_fit_no_pop_skips_debias(workspace):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg, "--no-pop"]) == 0
    log = json.loads((tmp_path / "out" / "fit_log.json").read_text())
    assert set(log["seconds"]) == {"svd", "cores"}
    assert log["debias"] is None


def test_fit_deterministic_model_files(workspace):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    first = (tmp_path / "out" / "model.bin").read_bytes()
    assert run(["fit", "--config", cfg]) == 0
    assert (tmp_path / "out" / "model.bin").read_bytes() == first


def test_fit_records_the_digest_of_the_training_entries_bytes(workspace):
    """model.bin's train_sha256 is the sha256 of the training tensor's dims, then the raw
    bytes of its entries, as `tobytes()` gives them."""
    import hashlib

    from popsi.data import split_holdout
    from popsi.model import load_model

    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    train = split_holdout(read_tensor(tmp_path / "out" / "tensor.bin"),
                          RunConfig(seed=9).split_spec()).train
    digest = hashlib.sha256(repr(train.dims).encode() + train.entries.tobytes()).hexdigest()
    assert load_model(tmp_path / "out" / "model.bin").trained_on == {
        "split": {"ratios": [0.8, 0.1, 0.1], "rng_seed": 9}, "train_sha256": digest}


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


def test_recommend_scores_in_blocks(workspace, capsys, monkeypatch):
    """Every user, with unknown and repeated tokens mixed in, is ranked in blocks of
    SCORE_BLOCK scores: the output and exit status are those of one block."""
    import popsi.cli
    from popsi.model import score_user as score_user_of_model

    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    run(["fit", "--config", cfg])
    users = (tmp_path / "out" / "users.txt").read_text().split()
    tokens = users[:7] + ["nobody", users[3], users[3]] + users[7:] + ["ghost", users[0]]
    capsys.readouterr()
    status = run(["recommend", "--config", cfg, "--k", 5, *tokens])
    whole = capsys.readouterr()
    assert status == 1 and whole.out.count("ERR unknown user") == 2

    block_rows, m2, rows_seen = 3, len((tmp_path / "out" / "items.txt").read_text().split()), []

    def score_user(model, users, k=0):
        rows_seen.append(len(users))
        return score_user_of_model(model, users, k)

    monkeypatch.setattr(popsi.metrics, "SCORE_BLOCK", block_rows * m2)
    monkeypatch.setattr(popsi.cli, "score_user", score_user)
    assert run(["recommend", "--config", cfg, "--k", 5, *tokens]) == status
    assert capsys.readouterr() == whole
    assert len(rows_seen) > 1 and max(rows_seen) <= block_rows


def test_recommend_blocks_are_full_blocks_of_known_users(workspace, capsys, monkeypatch):
    """Unknown tokens take no row of a block: four known users in blocks of three rows
    are scored as rows [3, 1], and each list still prints in request order."""
    import popsi.cli
    import popsi.metrics
    from popsi.model import score_user as score_user_of_model

    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    run(["fit", "--config", cfg])
    users = (tmp_path / "out" / "users.txt").read_text().split()
    tokens = [users[0], "nobody", users[1], users[2], "ghost", users[3]]
    capsys.readouterr()
    status = run(["recommend", "--config", cfg, "--k", 5, *tokens])
    whole = capsys.readouterr()
    m2, rows_seen = len((tmp_path / "out" / "items.txt").read_text().split()), []

    def score_user(model, users, k=0):
        rows_seen.append(len(users))
        return score_user_of_model(model, users, k)

    monkeypatch.setattr(popsi.metrics, "SCORE_BLOCK", 3 * m2)
    monkeypatch.setattr(popsi.cli, "score_user", score_user)
    assert run(["recommend", "--config", cfg, "--k", 5, *tokens]) == status == 1
    assert capsys.readouterr() == whole
    assert rows_seen == [3, 1]
    tokens_printed = [line.split("\t")[-1 if line.startswith("ERR") else 0]
                      for line in whole.out.splitlines()]
    assert list(dict.fromkeys(tokens_printed)) == tokens


def test_recommend_warns_when_candidates_run_short(workspace, capsys):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    run(["fit", "--config", cfg])
    capsys.readouterr()
    assert run(["recommend", "--config", cfg, "--k", 1000, "u0"]) == 0
    captured = capsys.readouterr()
    n = len(captured.out.splitlines())
    items = len((tmp_path / "out" / "items.txt").read_text().splitlines())
    assert 0 < n < items  # u0's training items are left out
    assert f"warning: only {n} candidates for u0" in captured.err


def test_k_above_the_item_count_ranks_at_most_m2_items(workspace, capsys, monkeypatch):
    """A K above the item count is padding: `rank_items` returns lists at most m2 long,
    and evaluate's numbers and recommend's output are those of K = m2."""
    import popsi.metrics
    from popsi.model import rank_items

    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    m2 = len((out / "items.txt").read_text().split())
    users = (out / "users.txt").read_text().split()
    assert run(["evaluate", "--config", cfg, "--k", m2]) == 0
    capsys.readouterr()
    assert run(["recommend", "--config", cfg, "--k", m2, *users]) == 0
    at_m2, listed = json.loads((out / "report.json").read_text()), capsys.readouterr()
    assert "warning: only" in listed.err  # users with training items have fewer candidates

    def spy(scores, users, K, *args):
        items, top = rank_items(scores, users, K, *args)
        assert items.shape[1] == top.shape[1] <= m2 < K
        return items, top

    monkeypatch.setattr(popsi.metrics, "rank_items", spy)
    big = 10**6
    assert run(["evaluate", "--config", cfg, "--k", big]) == 0
    report = json.loads((out / "report.json").read_text())
    for name in ("recall", "ndcg"):
        assert report.pop(f"{name}_at_{big}") == at_m2.pop(f"{name}_at_{m2}")
    assert report == at_m2
    capsys.readouterr()
    assert run(["recommend", "--config", cfg, "--k", big, *users]) == 0
    got = capsys.readouterr()
    assert got.out == listed.out
    # the warning compares with the K asked for: every list is short of a million
    lines = [line.split("\t")[0] for line in got.out.splitlines()]
    assert got.err == "".join(f"warning: only {lines.count(u)} candidates for {u}\n" for u in users)


@pytest.mark.parametrize("name, edit", [
    ("items.txt", lambda lines: lines[:10]),
    ("users.txt", lambda lines: lines[:10]),
    ("items.txt", lambda lines: lines + ["extra"]),
], ids=["items-cut", "users-cut", "items-extra"])
def test_recommend_rejects_index_file_of_other_length(workspace, capsys, name, edit):
    """users.txt must hold m1 tokens and items.txt m2, as tensor.bin has."""
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    users = (tmp_path / "out" / "users.txt").read_text().split()
    index = tmp_path / "out" / name
    index.write_text("".join(line + "\n" for line in edit(index.read_text().split())))
    capsys.readouterr()
    assert run(["recommend", "--config", cfg, users[0]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {index} holds ") and captured.out == ""


def test_recommend_rejects_model_of_other_data(workspace, capsys):
    from conftest import random_binary_tensor
    from popsi.model import fit, save_model

    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    other = random_binary_tensor(np.random.default_rng(0), 7, 5, 2, density=0.5)
    save_model(fit(other, r=2), tmp_path / "out" / "model.bin")
    capsys.readouterr()
    for command in (["recommend", "--config", cfg, "u0"], ["evaluate", "--config", cfg]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert "do not match" in captured.err and captured.out == ""


def _swap_first_entries(data: bytes) -> bytes:
    """tensor.bin with its first two entries swapped; the entries follow the metadata."""
    at = 16 + int.from_bytes(data[12:16], "little")
    return data[:at] + data[at + 12 : at + 24] + data[at : at + 12] + data[at + 24 :]


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: b"POPSIXXX" + data[8:],
        lambda data: data[:-1],
        lambda data: data + b"\0",
        lambda data: data[:-4] + (2).to_bytes(4, "little"),  # last behavior index = n
        _swap_first_entries,
        lambda data: with_metadata(data, lambda meta: meta.pop("dims")),
    ],
    ids=["header", "truncated", "trailing-byte", "outside-dims", "out-of-order", "no-dims"],
)
def test_evaluate_rejects_damaged_tensor_file(workspace, capsys, damage):
    tmp_path, cfg = workspace
    tensor = tmp_path / "out" / "tensor.bin"
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    tensor.write_bytes(damage(tensor.read_bytes()))
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tensor}:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda meta: meta.update(p="x"),
    lambda meta: meta.update(use_si=1),
    lambda meta: meta.update(trained_on=[1]),
    lambda meta: meta["trained_on"]["split"].update(rng_seed=9.0),
], ids=["p-string", "use_si-int", "trained_on-list", "rng_seed-float"])
def test_evaluate_and_recommend_reject_damaged_model_metadata(workspace, capsys, edit):
    tmp_path, cfg = workspace
    model, report = tmp_path / "out" / "model.bin", tmp_path / "out" / "report.json"
    for command in (["ingest"], ["fit"], ["evaluate"]):
        assert run([*command, "--config", cfg]) == 0
    written = report.read_bytes()
    model.write_bytes(with_metadata(model.read_bytes(), edit))
    capsys.readouterr()
    for command in (["evaluate"], ["recommend", "u0"]):
        assert run([*command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {model}:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
    assert report.read_bytes() == written


UNUSABLE_SETTINGS = {
    "no-k": ({"k_values": []}, "k_values must be one or more K >= 1, got []"),
    "k-zero": ({"k_values": [5, 0]}, "k_values must be one or more K >= 1, got [5, 0]"),
    "negative-seed": ({"seed": -1}, "seed must be >= 0, got -1"),
    "r-zero": ({"r": 0}, "r must be >= 1, got 0"),
    "negative-r": ({"r": -2}, "r must be >= 1, got -2"),
    "p-zero": ({"p": 0.0}, "p must lie in (0,1), got 0.0"),
    "p-above-one": ({"p": 1.5}, "p must lie in (0,1), got 1.5"),
    "ratios": ({"train_ratio": 0.5}, "split ratios must sum to 1, got (0.5, 0.1, 0.1)"),
}


@pytest.mark.parametrize("settings, message", UNUSABLE_SETTINGS.values(), ids=UNUSABLE_SETTINGS)
def test_fit_rejects_unusable_k_values_and_seed(workspace, capsys, settings, message):
    """Settings of the right types that no command can use exit 2 naming the field, before
    anything is written."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    written = {name: (out / name).read_bytes() for name in ("effective_config.json", "model.bin")}
    bad = with_settings(cfg, "bad.json", **settings)
    message = f"error: {message}\n"
    capsys.readouterr()
    for command in (["fit"], ["evaluate"], ["recommend", "u0"], ["ingest"]):
        assert run([*command, "--config", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""
    assert {name: (out / name).read_bytes() for name in written} == written


@pytest.mark.parametrize("settings, message", UNUSABLE_SETTINGS.values(), ids=UNUSABLE_SETTINGS)
def test_ingest_rejects_unusable_settings_before_writing(workspace, capsys, settings, message):
    """A first `ingest` refuses what every later command would refuse, and makes no run
    directory."""
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", with_settings(cfg, "bad.json", **settings)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("other", ["seed", "entries"])
def test_evaluate_and_recommend_reject_model_of_other_split(workspace, capsys, other):
    """A model.bin fitted on another split, of another seed or of other entries of the
    same users and items, is caught by the split record it carries, though its shapes
    match."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    run(["ingest", "--config", cfg])
    if other == "seed":
        assert run(["fit", "--config", cfg, "--seed", "1"]) == 0
        donor = out
    else:  # one user clicks every item: new auxiliary entries, the same target split
        log = (tmp_path / "interactions.csv").read_text()
        user = log.split(",", 1)[0]
        items = dict.fromkeys(line.split(",")[1] for line in log.splitlines())
        more = tmp_path / "more.csv"
        more.write_text(log + "".join(f"{user},{item},click,1\n" for item in items))
        donor = tmp_path / "donor"
        assert run(["ingest", "--config", cfg, "--input", more, "--out", donor]) == 0
        assert run(["fit", "--config", cfg, "--out", donor]) == 0
    donor_model = (donor / "model.bin").read_bytes()
    assert run(["fit", "--config", cfg]) == 0
    assert run(["evaluate", "--config", cfg]) == 0
    assert len((out / "model.bin").read_bytes()) == len(donor_model)
    (out / "model.bin").write_bytes(donor_model)
    capsys.readouterr()
    for command in (["recommend", "--config", cfg, "u0"], ["evaluate", "--config", cfg]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert str(out / "model.bin") in captured.err and "seed=9" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("message", [
    "subspace iteration did not converge: residual 1.000e-03 after 60 iterations",
    "debias projection failed to reach orthogonality tolerance",
], ids=["svd", "debias"])
def test_fit_runtime_error_exits_2(workspace, monkeypatch, capsys, message):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])

    def failing_fit(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr("popsi.cli.fit", failing_fit)
    capsys.readouterr()
    assert run(["fit", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "model.bin").exists()


def test_sweep_exits_1_when_a_grid_point_fails(workspace, capsys):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["sweep", "--config", cfg, "--param", "r", "--values", "4,100000"]) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "param,value,ndcg_at_50,pri"
    assert rows[1].startswith("r,4,0.") and rows[2] == "r,100000,,"
    assert "error: r=100000 failed: " in capsys.readouterr().err


def test_sweep_propagates_programming_errors(workspace, monkeypatch):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])

    def broken_fit(*args, **kwargs):
        raise TypeError("broken fit")

    monkeypatch.setattr("popsi.cli.fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        run(["sweep", "--config", cfg, "--param", "r", "--values", "4"])


def test_sweep_leaves_pri_blank_when_no_user_can_be_ranked(tmp_path):
    """A validation split where no user holds two entries has no PRI: the sweep writes
    a blank PRI cell beside the NDCG and exits 0."""
    tensor = generate(SynthConfig(m1=60, m2=40, seed=0))
    log = tmp_path / "small.csv"
    log.write_text("\n".join(tensor_to_log_lines(tensor, ["purchase", "click", "collect"])))
    out = tmp_path / "s"
    assert run(["ingest", "--input", log, "--behaviors", "purchase,click,collect",
                "--out", out]) == 0
    assert run(["fit", "--out", out, "--r", 5, "--seed", 1]) == 0
    assert run(["sweep", "--out", out, "--param", "p", "--values", 0.2]) == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    param, value, ndcg, pri = row.split(",")
    assert (param, value, pri) == ("p", "0.2", "") and float(ndcg) > 0


def _count_subspace_estimates(monkeypatch) -> list:
    """Every estimate_subspaces call `fit` makes, by its rank."""
    import popsi.model

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return estimate(*args, **kwargs)

    estimate = popsi.model.estimate_subspaces
    monkeypatch.setattr("popsi.model.estimate_subspaces", counted)
    return calls


@pytest.mark.parametrize("flags", [[], ["--no-si"], ["--no-pop"], ["--no-si", "--no-pop"]],
                         ids=["full", "no-si", "no-pop", "no-si-no-pop"])
def test_p_sweep_matches_per_point_fits(workspace, monkeypatch, flags):
    from functools import partial

    from popsi.data import read_coordinate_triples, split_holdout
    from popsi.metrics import evaluate
    from popsi.model import fit, score_user

    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    calls = _count_subspace_estimates(monkeypatch)
    assert run(["sweep", "--config", cfg, *flags, "--param", "p", "--values", "0.1,0.3,0.5"]) == 0
    assert calls == [6]  # one SVD pair for the whole sweep
    monkeypatch.undo()
    config = RunConfig(r=6, seed=9, use_si="--no-si" not in flags, use_pop="--no-pop" not in flags)
    tensor = read_coordinate_triples(tmp_path / "out" / "tensor.txt")
    holdout = split_holdout(tensor, config.split_spec())
    expected = ["param,value,ndcg_at_50,pri"]
    for p in (0.1, 0.3, 0.5):
        model = fit(holdout.train, 6, p, config.use_si, config.use_pop, config.seed)
        report = evaluate(partial(score_user, model), holdout.val, holdout.train, [50])
        expected.append(f"p,{p:g},{report.ndcg[50]:.6f},{report.pri:.6f}")
    assert (tmp_path / "out" / "sweep.csv").read_text().splitlines() == expected


@pytest.mark.parametrize("values, estimates, blank", [("1.5,2", 0, ["1.5", "2"]),
                                                      ("0.1,1.5,0.3", 1, ["1.5"])],
                         ids=["every-p-bad", "one-p-bad"])
def test_p_sweep_checks_p_before_the_svds(workspace, monkeypatch, capsys, values, estimates,
                                          blank):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    calls = _count_subspace_estimates(monkeypatch)
    assert run(["sweep", "--config", cfg, "--param", "p", "--values", values]) == 1
    assert len(calls) == estimates
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows if row.endswith(",,")] == blank
    assert "popular fraction p must lie in (0,1), got 1.5" in capsys.readouterr().err


def test_r_sweep_refits_every_point(workspace, monkeypatch):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    calls = _count_subspace_estimates(monkeypatch)
    assert run(["sweep", "--config", cfg, "--param", "r", "--values", "4,6"]) == 0
    assert calls == [4, 6]


def test_p_sweep_with_failing_svd_blanks_every_row(workspace, capsys):
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    assert run(["sweep", "--config", cfg, "--r", "1000", "--param", "p",
                "--values", "0.1,0.2"]) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows == ["param,value,ndcg_at_50,pri", "p,0.1,,", "p,0.2,,"]
    err = capsys.readouterr().err
    assert "p=0.1 failed: rank 1000 exceeds" in err and "p=0.2 failed" in err


def test_r_sweep_reads_a_whole_float_as_its_int(workspace, monkeypatch):
    """`--values 4.0,6` is the sweep of `4,6`: the SVDs get the int 4, and sweep.csv is the
    same file."""
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    sweeps = []
    for values in ("4,6", "4.0,6"):
        calls = _count_subspace_estimates(monkeypatch)
        assert run(["sweep", "--config", cfg, "--param", "r", "--values", values]) == 0
        assert [(type(r), r) for r in calls] == [(int, 4), (int, 6)]
        monkeypatch.undo()
        sweeps.append((tmp_path / "out" / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize(
    "param, values, message",
    [
        ("r", "20.7,20", "r must be of type int, got 20.7"),
        ("r", "4,six", "r must be a number, got 'six'"),
        ("r", "4,nan", "r must be of type int, got nan"),
        ("p", "0.1,inf", "p must be a finite number, got inf"),
    ],
    ids=["fraction", "word", "nan", "p-inf"],
)
def test_sweep_rejects_bad_value_before_fitting(workspace, monkeypatch, capsys, param, values,
                                                message):
    """A grid value is checked as a setting is, and a bad one exits 2 before any fit."""
    tmp_path, cfg = workspace
    run(["ingest", "--config", cfg])
    calls = _count_subspace_estimates(monkeypatch)
    assert run(["sweep", "--config", cfg, "--param", param, "--values", values]) == 2
    assert capsys.readouterr().err == f"error: --values: {message}\n"
    assert calls == [] and not (tmp_path / "out" / "sweep.csv").exists()


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


def test_later_commands_start_from_recorded_config(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--out", out, "--seed", 5]) == 0
    assert json.loads((out / "fit_log.json").read_text())["r"] == 6  # recorded at ingest
    recorded = json.loads((out / "effective_config.json").read_text())
    assert recorded["seed"] == 5 and recorded["behaviors"] == ["purchase", "click"]
    results = []
    for seed in ([], ["--seed", 5]):
        capsys.readouterr()
        assert run(["evaluate", "--out", out, *seed]) == 0
        report = (out / "report.json").read_text()
        assert run(["recommend", "--out", out, *seed, "--k", 3, "u0", "u1"]) == 0
        results.append((report, capsys.readouterr().out))
    assert results[0] == results[1]
    assert json.loads(results[0][0])["config"]["seed"] == 5
    fitted = f"{out / 'model.bin'} records split SplitSpec(ratios=(0.8, 0.1, 0.1), rng_seed=5)"
    assert run(["evaluate", "--out", out, "--seed", 4]) == 2
    assert fitted in capsys.readouterr().err
    assert (out / "report.json").read_text() == results[0][0]
    assert run(["recommend", "--config", cfg, "u0"]) == 2  # the file's seed 9
    assert fitted in capsys.readouterr().err


def test_model_split_outlives_a_later_ingest(workspace, capsys):
    """model.bin's own split record decides: a later ingest that records another seed
    does not refuse the model's split, and other ratios are refused."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--out", out, "--seed", 5]) == 0
    assert run(["evaluate", "--out", out]) == 0
    report = (out / "report.json").read_text()
    assert run(["ingest", "--config", cfg, "--seed", 4]) == 0  # the same tensor.txt
    assert json.loads((out / "effective_config.json").read_text())["seed"] == 4
    assert run(["evaluate", "--out", out, "--seed", 5]) == 0
    assert (out / "report.json").read_text() == report
    capsys.readouterr()
    assert run(["evaluate", "--out", out]) == 2
    assert "rng_seed=5)" in capsys.readouterr().err
    ratios = tmp_path / "ratios.json"
    ratios.write_text('{"seed": 5, "train_ratio": 0.7, "val_ratio": 0.2}')
    for command in (["evaluate"], ["recommend", "u0"]):
        assert run([*command, "--out", out, "--config", ratios]) == 2
        captured = capsys.readouterr()
        assert "SplitSpec(ratios=(0.7, 0.2, 0.1), rng_seed=5)" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("flag", [["--input", "x.csv"], ["--delimiter", ";"],
                                  ["--target-behavior", "click"]])
def test_ingest_only_flags_rejected_elsewhere(workspace, capsys, flag):
    tmp_path, cfg = workspace
    for command in (["fit"], ["evaluate"], ["recommend", "u0"],
                    ["sweep", "--param", "r", "--values", "4"]):
        with pytest.raises(SystemExit) as exit:
            run([*command, "--config", cfg, *flag])
        assert exit.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_fit_records_the_tensor_behaviors(workspace):
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    swapped = with_settings(cfg, "swapped.json", behaviors=["click", "purchase"])
    assert run(["fit", "--config", swapped]) == 0
    recorded = json.loads((tmp_path / "out" / "effective_config.json").read_text())
    assert recorded["behaviors"] == ["purchase", "click"]  # the labels of tensor.bin


def test_missing_effective_config_names_run_directory(tmp_path, capsys):
    message = f"run directory {tmp_path / 'nowhere'} has no effective_config.json"
    sweep = ["sweep", "--param", "r", "--values", "4"]
    for command in (["fit"], ["evaluate"], ["recommend", "u0"], sweep):
        assert run([*command, "--out", tmp_path / "nowhere"]) == 2
        assert message in capsys.readouterr().err


def test_missing_tensor_asks_for_ingest(workspace, capsys):
    """The commands read only tensor.bin: without it they exit 2, though tensor.txt is there."""
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    (tmp_path / "out" / "tensor.bin").unlink()
    capsys.readouterr()
    message = f"error: run directory {tmp_path / 'out'} has no tensor.bin; run `popsi ingest` first"
    sweep = ["sweep", "--param", "r", "--values", "4"]
    for command in (["fit"], ["evaluate"], ["recommend", "u0"], sweep):
        assert run([*command, "--config", cfg]) == 2
        assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("stale_key", 1, "unknown key 'stale_key'"),
        ("r", "abc", "r must be of type int, got 'abc'"),
        ("seed", "1", "seed must be of type int, got '1'"),
        ("seed", True, "seed must be of type int, got True"),
        ("use_si", 1, "use_si must be of type bool, got 1"),
        ("p", 1, "p must be of type float, got 1"),
        ("k_values", [20, "50"], "k_values must be of type list[int], got [20, '50']"),
        ("behaviors", "purchase", "behaviors must be of type list[str], got 'purchase'"),
        ("train_ratio", float("nan"), "train_ratio must be a finite number, got nan"),
        ("p", float("inf"), "p must be a finite number, got inf"),
        (None, [1], "expected a JSON object of settings"),
        (None, '{"r": 5', "expected a JSON object of settings: "
                          "Expecting ',' delimiter: line 1 column 8 (char 7)"),
        (None, "r = 6\n", "expected a JSON object of settings: "
                          "Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["unknown", "str-int", "str-seed", "bool-int", "int-bool", "int-float", "list-element",
         "str-list", "nan-ratio", "infinite-p", "not-an-object", "corrupt", "key-value"],
)
def test_recorded_config_is_checked(workspace, capsys, key, value, message):
    """Each bad settings file exits 2 with its path, as the run's effective_config.json
    and as a --config file; a string `value` is the whole file's text."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg]) == 0
    recorded = out / "effective_config.json"
    good = recorded.read_text()
    text = value if isinstance(value, str) and key is None else json.dumps(
        value if key is None else {**json.loads(good), key: value})
    sweep = ["sweep", "--param", "r", "--values", "4"]
    for path in (recorded, tmp_path / "settings.json"):
        path.write_text(text)
        given = [] if path == recorded else ["--config", path]
        commands = [["fit"], ["evaluate"], ["recommend", "u0"], sweep]
        if given:  # ingest reads no recorded settings, only a --config file
            commands.append(["ingest"])
        for command in commands:
            capsys.readouterr()
            assert run([*command, "--out", out, *given]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
        recorded.write_text(good)
    assert not (out / "model.bin").exists()


def test_non_finite_settings_exit_2_before_anything_is_written(workspace, capsys):
    """JSON's NaN and Infinity parse as floats; a settings file holding one is refused
    with its path and key, so ingest records no NaN ratio and fit writes no model."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    settings = json.loads(cfg.read_text())
    nan_ratio = tmp_path / "nan.json"
    nan_ratio.write_text(json.dumps(settings)[:-1] + ', "train_ratio": NaN}')
    assert run(["ingest", "--config", nan_ratio]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {nan_ratio}: train_ratio must be a finite number, got nan\n"
    assert captured.out == "" and not out.exists()
    assert run(["ingest", "--config", cfg]) == 0
    minus_inf = tmp_path / "p.json"
    minus_inf.write_text('{"p": -Infinity}')
    capsys.readouterr()
    assert run(["fit", "--config", minus_inf]) == 2
    assert capsys.readouterr().err == f"error: {minus_inf}: p must be a finite number, got -inf\n"
    assert not (out / "model.bin").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flags_exit_2_before_anything_is_written(workspace, capsys, value):
    """argparse reads `--p nan` and `--p inf` as floats; flags are checked as a settings
    file is, so ingest records no NaN and fit leaves the run's settings as they were."""
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    message = f"error: command line: p must be a finite number, got {value}\n"
    assert run(["ingest", "--config", cfg, "--p", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == "" and not out.exists()
    assert run(["ingest", "--config", cfg]) == 0
    recorded = (out / "effective_config.json").read_bytes()
    for flags in [["--p", value], ["--p", value, "--no-pop"]]:  # --no-pop: p is never read
        capsys.readouterr()
        assert run(["fit", "--out", out, *flags]) == 2
        assert capsys.readouterr().err == message
        assert (out / "effective_config.json").read_bytes() == recorded
        assert not (out / "model.bin").exists()


def test_effective_config_is_a_config_file(workspace):
    """A run's effective_config.json, given as --config, repeats the run."""
    tmp_path, cfg = workspace
    out, again = tmp_path / "out", tmp_path / "again"
    for command in (["ingest"], ["fit"], ["evaluate"]):
        assert run([*command, "--config", cfg]) == 0
    settings = out / "effective_config.json"
    for command in (["ingest"], ["fit"], ["evaluate"]):
        assert run([*command, "--config", settings, "--out", again]) == 0
    assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()
    assert (again / "model.bin").read_bytes() == (out / "model.bin").read_bytes()
    recorded = json.loads((again / "effective_config.json").read_text())
    assert recorded == {**json.loads(settings.read_text()), "out": str(again)}


def test_cli_import_skips_scipy_stats(workspace):
    """Only fit and sweep do sparse algebra; import, ingest, evaluate and recommend load
    no scipy module."""
    tmp_path, cfg = workspace
    assert run(["ingest", "--config", cfg]) == 0
    assert run(["fit", "--config", cfg]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"""if True:
        import json, sys
        import popsi.cli
        scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        seen = {{"stats": "scipy.stats" in sys.modules, "import": scipy(),
                 "layers": sorted(m for m in sys.modules if m.startswith("popsi."))}}
        for command in (["ingest"], ["evaluate"], ["recommend", "u0"], ["fit"]):
            assert popsi.cli.main([*command, "--config", {str(cfg)!r}]) == 0
            seen[command[0]] = scipy()
        print(json.dumps(seen))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["stats"] is False
    assert seen["layers"] == [f"popsi.{m}" for m in
                              ("baselines", "cli", "data", "linalg", "metrics", "model")]
    assert seen["import"] == seen["ingest"] == seen["evaluate"] == seen["recommend"] == []
    assert "scipy.sparse" in seen["fit"]


def test_module_entry_point_flushes_and_exits_with_main_status(workspace, capsys):
    """`python -m popsi.cli` leaves through `os._exit`: the stdout it writes to a file is
    complete, and it exits with main's status, 0, 1 or 2; argparse's exits stay as they were."""
    tmp_path, cfg = workspace
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")  # stdout is buffered

    def cli(*args) -> tuple[int, str, str]:
        with open(tmp_path / "stdout.txt", "w") as out:
            done = subprocess.run([sys.executable, "-m", "popsi.cli", *map(str, args)], env=env,
                                  stdout=out, stderr=subprocess.PIPE, text=True, timeout=120)
        return done.returncode, (tmp_path / "stdout.txt").read_text(), done.stderr

    status, out, err = cli("ingest", "--config", cfg)
    assert (status, out, err) == (0, (tmp_path / "out" / "stats.json").read_text(), "")
    assert run(["fit", "--config", cfg]) == 0
    tokens = (tmp_path / "out" / "users.txt").read_text().split() + ["nobody"]
    capsys.readouterr()
    assert run(["recommend", "--config", cfg, "--k", 1000, *tokens]) == 1
    want = capsys.readouterr()
    assert len(want.out) > 16384  # more than one buffer of output
    assert cli("recommend", "--config", cfg, "--k", 1000, *tokens) == (1, want.out, want.err)
    status, out, err = cli("recommend", "--config", cfg, "--out", tmp_path / "nowhere", "u0")
    assert (status, out) == (2, "") and err.startswith("error: run directory")
    for args, code in ((["--help"], 0), (["fit", "--bogus"], 2)):
        status, out, err = cli(*args)
        assert status == code and "usage: popsi" in out + err and "Traceback" not in err
