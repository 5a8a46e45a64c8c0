"""Command-line front end: ingest, fit, evaluate, recommend, sweep."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, asdict, field, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from popsi.data import (
    SplitSpec,
    build_tensor,
    parse_interactions,
    read_index,
    read_tensor,
    split_holdout,
    write_coordinate_triples,
    write_index,
    write_tensor,
)
from popsi.metrics import evaluate, ranked_blocks
from popsi.model import DEFAULT_POPULAR_FRACTION, DEFAULT_RANK, _timed, fit, load_model
from popsi.model import save_model, score_user


@dataclass
class RunConfig:
    input: str = ""
    delimiter: str = ","
    has_header: bool = False
    behaviors: list[str] = field(default_factory=list)  # target behavior first
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    seed: int = 0
    r: int = DEFAULT_RANK
    p: float = DEFAULT_POPULAR_FRACTION
    use_si: bool = True
    use_pop: bool = True
    k_values: list[int] = field(default_factory=lambda: [20, 50])
    out: str = "out"

    def split_spec(self) -> SplitSpec:
        return SplitSpec((self.train_ratio, self.val_ratio, self.test_ratio), self.seed)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _read_settings(path: str | Path) -> dict:
    """A settings file (`--config` or effective_config.json): a JSON object of RunConfig
    fields, checked by `_check_settings`."""
    try:
        settings = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: expected a JSON object of settings: {e}") from None
    if not isinstance(settings, dict):
        raise ValueError(f"{path}: expected a JSON object of settings")
    return _check_settings(path, settings)


def _check_settings(source, settings: dict) -> dict:
    """`settings`, if each key is a RunConfig field and each value finite and of its exact
    type (a bool is not an int, list elements included); else a ValueError naming `source`."""
    for key, value in settings.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}: unknown key {key!r}")
        kind, _, element = _FIELD_TYPES[key].rstrip("]").partition("[")
        elements = value if element and isinstance(value, list) else []
        if type(value).__name__ != kind or any(type(v).__name__ != element for v in elements):
            raise ValueError(f"{source}: {key} must be of type {_FIELD_TYPES[key]}, got {value!r}")
        if type(value) is float and not math.isfinite(value):  # JSON's NaN and Infinity, --p nan
            raise ValueError(f"{source}: {key} must be a finite number, got {value!r}")
    return settings


def _resolve_config(settings: dict, from_run: bool) -> RunConfig:
    """Defaults < the run's effective_config.json (if `from_run`) < settings."""
    out = Path(settings.setdefault("out", RunConfig.out))
    for name in ["effective_config.json", "tensor.bin"] if from_run else []:
        if not (out / name).is_file():
            raise ValueError(f"run directory {out} has no {name}; run `popsi ingest` first")
    recorded = _read_settings(out / "effective_config.json") if from_run else {}
    cfg = replace(RunConfig(), **{**recorded, **settings})
    cfg.split_spec()  # SplitSpec refuses ratios that are not a split
    for name, ok, rule in [("k_values", min(cfg.k_values, default=0) >= 1, "be one or more K >= 1"),
                           ("seed", cfg.seed >= 0, "be >= 0"), ("r", cfg.r >= 1, "be >= 1"),
                           ("p", 0 < cfg.p < 1, "lie in (0,1)")]:
        if not ok:
            raise ValueError(f"{name} must {rule}, got {getattr(cfg, name)}")
    return cfg


def _write_json(path: Path, obj) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    path.write_text(text)
    return text


def _write_log(path: Path, log: dict) -> None:
    """`log` with an `environment`: the BLAS thread variables and the versions of python
    and of the numpy and scipy the command loaded (evaluate loads no scipy)."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    log["environment"] = {name: os.environ.get(name) for name in threads} | {
        "python": ".".join(map(str, sys.version_info[:3]))} | {
        name: sys.modules[name].__version__ for name in ("numpy", "scipy") if name in sys.modules}
    _write_json(path, log)


def cmd_ingest(cfg: RunConfig, args: dict) -> int:
    if target := args.get("target_behavior"):
        cfg.behaviors = [target] + [b for b in cfg.behaviors if b != target]
    text = Path(cfg.input).read_text()  # in text mode; an unreadable input is main's OSError
    log = parse_interactions(text, cfg.behaviors, cfg.delimiter, cfg.has_header)
    tensor = build_tensor(log, cfg.behaviors)
    counts = np.bincount(tensor.entries[:, 2], minlength=tensor.n).tolist()
    if not counts[0]:
        raise ValueError(f"no records of the target behavior {cfg.behaviors[0]!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "effective_config.json", asdict(cfg))
    write_coordinate_triples(tensor, out / "tensor.txt")
    write_tensor(tensor, out / "tensor.bin")
    write_index(log.user_tokens, out / "users.txt")
    write_index(log.item_tokens, out / "items.txt")
    summary = {
        "users": tensor.m1,
        "items": tensor.m2,
        "behaviors": dict(zip(tensor.behavior_labels, counts)),
        "target_behavior": tensor.behavior_labels[0],
        "target_entries": counts[0],
        "target_sparsity": counts[0] / (tensor.m1 * tensor.m2),
        "malformed_lines": log.malformed,
        "unknown_behavior_lines": log.unknown_behavior,
    }
    print(_write_json(out / "stats.json", summary), end="")
    return 0


def _trained_on(cfg: RunConfig, train) -> dict:
    """The split a model is fitted on, and a digest of its training entries."""
    spec = cfg.split_spec()
    digest = hashlib.sha256(repr(train.dims).encode())
    digest.update(train.entries)  # read where it lies, not through a bytes copy
    return {"split": {"ratios": list(spec.ratios), "rng_seed": spec.rng_seed},
            "train_sha256": digest.hexdigest()}


def cmd_fit(cfg: RunConfig, args: dict) -> int:
    out = Path(cfg.out)
    train = split_holdout(read_tensor(out / "tensor.bin"), cfg.split_spec()).train
    log: dict = {}
    model = fit(train, cfg.r, cfg.p, cfg.use_si, cfg.use_pop, cfg.seed, log)
    model.trained_on = _trained_on(cfg, train)
    # the behaviors are those of tensor.bin, whatever a --config file says
    _write_json(out / "effective_config.json",
                asdict(replace(cfg, behaviors=train.behavior_labels)))
    save_model(model, out / "model.bin")
    _write_log(out / "fit_log.json", log)
    print(f"fitted r={log['r']} r_refined={log['r_refined']} -> {out / 'model.bin'}")
    return 0


def _fitted_run(cfg: RunConfig, seconds: dict):
    """The run's (model, holdout) for the split asked for, timed in `seconds` (`load`,
    `split`); a model that does not record that split and its training entries is refused."""
    out, spec = Path(cfg.out), cfg.split_spec()
    with _timed(seconds, "load"):
        tensor, model = read_tensor(out / "tensor.bin"), load_model(out / "model.bin")
    with _timed(seconds, "split"):
        holdout = split_holdout(tensor, spec)
        if model.trained_on != _trained_on(cfg, holdout.train):
            split = model.trained_on and model.trained_on["split"]
            fitted = split and SplitSpec(tuple(split["ratios"]), split["rng_seed"])
            raise ValueError(f"{out / 'model.bin'} records split {fitted}, and the training "
                             f"entries of split {spec} of {out / 'tensor.bin'} do not match "
                             "it; ask for the split the model records, or run `popsi fit` again")
    return model, holdout


def cmd_evaluate(cfg: RunConfig, args: dict) -> int:
    out, seconds, log = Path(cfg.out), {}, {}
    model, holdout = _fitted_run(cfg, seconds)
    config = {"r": model.spaces.r, "p": model.p, "use_si": model.use_si,
              "use_pop": model.use_pop, "seed": cfg.seed}
    report = evaluate(partial(score_user, model), holdout.test, holdout.train,
                      cfg.k_values, config, log)
    log["seconds"].update(seconds)
    _write_log(out / "eval_log.json", log)
    print(_write_json(out / "report.json", report.to_dict()), end="")
    return 0


def cmd_recommend(cfg: RunConfig, args: dict) -> int:
    out, tokens, K = Path(cfg.out), args["users"], cfg.k_values[0]
    model, holdout = _fitted_run(cfg, {})
    train = holdout.train
    users, items = read_index(out / "users.txt", train.m1), read_index(out / "items.txt", train.m2)
    user_index = {token: u for u, token in enumerate(users)}
    known = np.array([user_index[t] for t in tokens if t in user_index], dtype=np.int64)
    blocks = ranked_blocks(partial(score_user, model), known, K, train, {})
    lists = chain.from_iterable(zip(ranked, top) for _, _, ranked, top in blocks)
    for token in tokens:
        if token not in user_index:
            print(f"ERR unknown user\t{token}")
            continue
        ranked, top = next(lists)
        n = int(np.count_nonzero(ranked >= 0))
        if n < K:
            print(f"warning: only {n} candidates for {token}", file=sys.stderr)
        for v, s in zip(ranked[:n].tolist(), top[:n].tolist()):
            print(f"{token}\t{items[v]}\t{s:.6g}")
    return int(len(known) < len(tokens))  # 1: an unknown user


def _grid_values(param: str, text: str) -> list[float]:
    """`--values` as numbers, a whole r as an int (`2.0` is r = 2), each `{param: value}`
    checked by `_check_settings`."""
    values = []
    for token in (v.strip() for v in text.split(",")):
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"--values: {param} must be a number, got {token!r}") from None
        value = int(value) if param == "r" and value.is_integer() else value
        values.append(_check_settings("--values", {param: value})[param])
    return values


def cmd_sweep(cfg: RunConfig, args: dict) -> int:
    """Fit and validate each grid value; `fit` reuses one SVD pair across a p sweep."""
    param, values = args["param"], _grid_values(args["param"], args["values"])
    out = Path(cfg.out)
    holdout = split_holdout(read_tensor(out / "tensor.bin"), cfg.split_spec())
    rows = []
    status = 0
    for value in dict.fromkeys(values):
        point = replace(cfg, **{param: value})
        try:
            model = fit(holdout.train, point.r, point.p, cfg.use_si, cfg.use_pop, cfg.seed)
            # sweeps tune on the validation split
            report = evaluate(partial(score_user, model), holdout.val, holdout.train, [50])
            pri = "" if report.pri is None else f"{report.pri:.6f}"  # None: no user to rank
            rows.append(f"{param},{value:g},{report.ndcg[50]:.6f},{pri}\n")
        except (ValueError, RuntimeError) as e:  # np.linalg.LinAlgError is a ValueError
            print(f"error: {param}={value} failed: {e}", file=sys.stderr)
            rows.append(f"{param},{value:g},,\n")
            status = 1
    csv_path = out / "sweep.csv"
    csv_path.write_text("param,value,ndcg_at_50,pri\n" + "".join(rows))
    print(f"wrote {len(rows)} rows -> {csv_path}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsi", description="popularity-aware top-K recommendation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, handler, from_run: bool = True):
        """A subparser that runs `handler`; a flag is stored under its RunConfig name if given."""
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.set_defaults(handler=handler, from_run=from_run)
        sp.add_argument("--config")
        sp.add_argument("--r", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--no-si", dest="use_si", action="store_false")
        sp.add_argument("--no-pop", dest="use_pop", action="store_false")
        sp.add_argument("--k", dest="k_values", type=int, action="append")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        return sp

    sp = add("ingest", "parse raw logs into tensor + index files", cmd_ingest, from_run=False)
    sp.add_argument("--input")
    sp.add_argument("--delimiter")
    sp.add_argument("--target-behavior", help="behavior moved to the front of --behaviors")
    sp.add_argument("--behaviors", type=lambda v: [b.strip() for b in v.split(",") if b.strip()],
                    help="comma list, target behavior first")
    sp.add_argument("--header", dest="has_header", action="store_true",
                    help="input has a header row")

    add("fit", "fit a model on the training split", cmd_fit)
    add("evaluate", "evaluate a fitted model on the test split", cmd_evaluate)

    sp = add("recommend", "print top-K lists for user tokens", cmd_recommend)
    sp.add_argument("users", nargs="+", help="user tokens to recommend for")

    sp = add("sweep", "grid sweep over r or p, evaluated on validation", cmd_sweep)
    sp.add_argument("--param", choices=["r", "p"], required=True)
    sp.add_argument("--values", required=True, help="comma list of grid values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        settings = _read_settings(args["config"]) if "config" in args else {}
        flags = {key: value for key, value in args.items() if key in _FIELD_TYPES}
        settings.update(_check_settings("command line", flags))
        return args["handler"](_resolve_config(settings, args["from_run"]), args)
    except (ValueError, OSError, RuntimeError) as e:  # RuntimeError: an SVD or debias failed
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    """`main`, then `os._exit` once stdout and stderr are flushed, skipping the interpreter's
    teardown (0.02-0.1 s); an exception `main` lets out, `--help`'s included, ends as usual."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
