"""Command-line front end: ingest, fit, evaluate, recommend, sweep."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, asdict, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from popsi.data import (
    SplitSpec,
    build_tensor,
    item_popularity,
    parse_interactions,
    read_coordinate_triples,
    read_index,
    split_holdout,
    write_coordinate_triples,
    write_index,
)
from popsi.linalg import SvdOptions
from popsi.metrics import evaluate
from popsi.model import fit, load_model, rank_items, save_model, score_user


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
    r: int = 200
    p: float = 0.2
    use_si: bool = True
    use_pop: bool = True
    k_values: list[int] = field(default_factory=lambda: [20, 50])
    oversample: int = 10
    power_iters: int = 4
    out: str = "out"

    def split_spec(self) -> SplitSpec:
        return SplitSpec((self.train_ratio, self.val_ratio, self.test_ratio), self.seed)

    def svd_opts(self) -> SvdOptions:
        return SvdOptions(
            rank=self.r,
            oversample=self.oversample,
            power_iters=self.power_iters,
            rng_seed=self.seed,
        )


_BOOL_KEYS = {"has_header", "use_si", "use_pop"}
_BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = {"seed", "r", "oversample", "power_iters"}
_FLOAT_KEYS = {"train_ratio", "val_ratio", "test_ratio", "p"}


def _convert(convert, kind: str, key: str, value: str, where: str):
    try:
        return convert(value)
    except ValueError:
        raise ValueError(f"{where}: {key} must be {kind}, got {value!r}") from None


def load_config(path: str | None) -> RunConfig:
    """Flat `key = value` text file; unknown keys and unparsable values are rejected."""
    cfg = RunConfig()
    if path is None:
        return cfg
    valid = set(asdict(cfg))
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in valid:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if key in _BOOL_KEYS:
                if value.lower() not in _BOOL_VALUES:
                    raise ValueError(f"{where}: {key} must be one of "
                                     f"{', '.join(_BOOL_VALUES)}, got {value!r}")
                setattr(cfg, key, _BOOL_VALUES[value.lower()])
            elif key in _INT_KEYS:
                setattr(cfg, key, _convert(int, "an integer", key, value, where))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, _convert(float, "a number", key, value, where))
            elif key == "behaviors":
                cfg.behaviors = [b.strip() for b in value.split(",") if b.strip()]
            elif key == "k_values":
                cfg.k_values = _convert(lambda v: [int(k) for k in v.split(",")],
                                        "a comma list of integers", key, value, where)
            else:
                setattr(cfg, key, value)
    return cfg


def apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """CLI flags win over the config file."""
    updates = {}
    if getattr(args, "input", None):
        updates["input"] = args.input
    if getattr(args, "delimiter", None):
        updates["delimiter"] = args.delimiter
    if getattr(args, "r", None) is not None:
        updates["r"] = args.r
    if getattr(args, "p", None) is not None:
        updates["p"] = args.p
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "k", None):
        updates["k_values"] = list(args.k)
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "no_si", False):
        updates["use_si"] = False
    if getattr(args, "no_pop", False):
        updates["use_pop"] = False
    cfg = replace(cfg, **updates)
    target = getattr(args, "target_behavior", None)
    if target:
        rest = [b for b in cfg.behaviors if b != target]
        cfg.behaviors = [target] + rest
    return cfg


def write_effective_config(cfg: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "effective_config.json", "w") as f:
        json.dump(asdict(cfg), f, sort_keys=True, indent=2)
        f.write("\n")


def _load_ingested(out: Path):
    tensor = read_coordinate_triples(out / "tensor.txt")
    users = read_index(out / "users.txt")
    items = read_index(out / "items.txt")
    return tensor, users, items


def cmd_ingest(cfg: RunConfig) -> int:
    if not cfg.behaviors:
        print("error: no behavior labels configured", file=sys.stderr)
        return 2
    try:
        with open(cfg.input) as f:
            log = parse_interactions(
                f, cfg.behaviors, delimiter=cfg.delimiter, has_header=cfg.has_header
            )
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 2
    if not len(log.entries):
        print("error: no records", file=sys.stderr)
        return 2
    tensor = build_tensor(log, cfg.behaviors)
    out = Path(cfg.out)
    write_effective_config(cfg, out)
    write_coordinate_triples(tensor, out / "tensor.txt")
    write_index(log.user_tokens, out / "users.txt")
    write_index(log.item_tokens, out / "items.txt")
    summary = {
        "users": tensor.m1,
        "items": tensor.m2,
        "behaviors": {
            label: int(s.nnz) for label, s in zip(tensor.behavior_labels, tensor.slices)
        },
        "target_behavior": tensor.behavior_labels[0],
        "target_entries": int(tensor.target.nnz),
        "target_sparsity": tensor.target.nnz / (tensor.m1 * tensor.m2),
        "malformed_lines": log.malformed,
        "unknown_behavior_lines": log.unknown_behavior,
    }
    with open(out / "stats.json", "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    tensor, _, _ = _load_ingested(out)
    holdout = split_holdout(tensor, cfg.split_spec())
    pop = item_popularity(holdout.train.target)
    log: dict = {}
    model = fit(
        holdout.train,
        r=cfg.r,
        p=cfg.p,
        use_si=cfg.use_si,
        use_pop=cfg.use_pop,
        opts=cfg.svd_opts(),
        pop_counts=pop,
        log=log,
    )
    write_effective_config(cfg, out)
    save_model(model, out / "model.bin")
    with open(out / "fit_log.json", "w") as f:
        json.dump(log, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"fitted r={log['r']} r_refined={log['r_refined']} -> {out / 'model.bin'}")
    return 0


def _load_fitted(cfg: RunConfig):
    """Index files, model and split of a fitted run; the model must match the ingested data."""
    out = Path(cfg.out)
    tensor, users, items = _load_ingested(out)
    model = load_model(out / "model.bin")
    if model.spaces.W.shape[0] != tensor.m1 or model.spaces.H.shape[0] != tensor.m2:
        raise ValueError("model dimensions do not match the ingested data")
    return users, items, model, split_holdout(tensor, cfg.split_spec())


def cmd_evaluate(cfg: RunConfig) -> int:
    _, _, model, holdout = _load_fitted(cfg)
    pop = item_popularity(holdout.train.target)
    report = evaluate(
        partial(score_user, model),
        holdout.test_positives,
        holdout.train.m1,
        pop,
        cfg.k_values,
        exclude=holdout.train.target,
        config={
            "r": model.spaces.r,
            "p": model.p,
            "use_si": model.use_si,
            "use_pop": model.use_pop,
            "seed": cfg.seed,
        },
    )
    text = report.to_json() + "\n"
    with open(Path(cfg.out) / "report.json", "w") as f:
        f.write(text)
    print(text, end="")
    return 0


def cmd_recommend(cfg: RunConfig, user_tokens: list[str]) -> int:
    users, items, model, holdout = _load_fitted(cfg)
    user_index = {token: u for u, token in enumerate(users)}
    known = np.array([user_index[t] for t in user_tokens if t in user_index], dtype=np.int64)
    recs = rank_items(score_user(model, known), known, cfg.k_values[0], holdout.train.target)
    by_user = {rec.user: rec for rec in recs}
    status = 0
    for token in user_tokens:
        if token not in user_index:
            print(f"ERR unknown user\t{token}")
            status = 1
            continue
        rec = by_user[user_index[token]]
        if rec.truncated:
            print(f"warning: only {len(rec.items)} candidates for {token}", file=sys.stderr)
        for v, s in zip(rec.items, rec.scores):
            print(f"{token}\t{items[v]}\t{s:.6g}")
    return status


def _grid_values(param: str, text: str) -> list[float]:
    """`--values` as finite numbers; an r value must be a whole number."""
    values = []
    for token in (v.strip() for v in text.split(",")):
        value = _convert(float, "a number", param, token, "--values")
        if not math.isfinite(value) or (param == "r" and not value.is_integer()):
            kind = "a whole number" if param == "r" else "a finite number"
            raise ValueError(f"--values: {param} must be {kind}, got {token!r}")
        values.append(value)
    return values


def cmd_sweep(cfg: RunConfig, param: str, values: list[float]) -> int:
    opts = cfg.svd_opts()  # a bad SVD setting fails the command, not every grid point
    out = Path(cfg.out)
    tensor, _, _ = _load_ingested(out)
    holdout = split_holdout(tensor, cfg.split_spec())
    pop = item_popularity(holdout.train.target)
    seen = []
    for v in values:
        if v not in seen:
            seen.append(v)
    rows = []
    status = 0
    for value in seen:
        r = int(value) if param == "r" else cfg.r
        p = float(value) if param == "p" else cfg.p
        try:
            model = fit(
                holdout.train, r=r, p=p, use_si=cfg.use_si, use_pop=cfg.use_pop,
                opts=opts, pop_counts=pop,
            )
            report = evaluate(
                partial(score_user, model),
                holdout.val_positives,  # sweeps tune on the validation split
                tensor.m1,
                pop,
                [50],
                exclude=holdout.train.target,
            )
            rows.append((param, value, report.ndcg[50], report.pri))
        except (ValueError, RuntimeError) as e:  # np.linalg.LinAlgError is a ValueError
            print(f"error: {param}={value} failed: {e}", file=sys.stderr)
            rows.append((param, value, None, None))
            status = 1
    csv_path = out / "sweep.csv"
    with open(csv_path, "w") as f:
        f.write("param,value,ndcg_at_50,pri\n")
        for name, value, ndcg, pri_v in rows:
            nd = "" if ndcg is None else f"{ndcg:.6f}"
            pr = "" if pri_v is None else f"{pri_v:.6f}"
            f.write(f"{name},{value:g},{nd},{pr}\n")
    print(f"wrote {len(rows)} rows -> {csv_path}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsi", description="popularity-aware top-K recommendation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config")
        sp.add_argument("--input")
        sp.add_argument("--delimiter")
        sp.add_argument("--target-behavior")
        sp.add_argument("--r", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--no-si", action="store_true")
        sp.add_argument("--no-pop", action="store_true")
        sp.add_argument("--k", type=int, action="append")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")

    sp = sub.add_parser("ingest", help="parse raw logs into tensor + index files")
    common(sp)
    sp.add_argument("--behaviors", help="comma list, target behavior first")
    sp.add_argument("--header", action="store_true", help="input has a header row")

    common(sub.add_parser("fit", help="fit a model on the training split"))
    common(sub.add_parser("evaluate", help="evaluate a fitted model on the test split"))

    sp = sub.add_parser("recommend", help="print top-K lists for user tokens")
    common(sp)
    sp.add_argument("users", nargs="+", help="user tokens to recommend for")

    sp = sub.add_parser("sweep", help="grid sweep over r or p, evaluated on validation")
    common(sp)
    sp.add_argument("--param", choices=["r", "p"], required=True)
    sp.add_argument("--values", required=True, help="comma list of grid values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "behaviors", None):
            cfg.behaviors = [b.strip() for b in args.behaviors.split(",") if b.strip()]
        if getattr(args, "header", False):
            cfg.has_header = True
        cfg = apply_overrides(cfg, args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "recommend":
            return cmd_recommend(cfg, args.users)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, _grid_values(args.param, args.values))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
