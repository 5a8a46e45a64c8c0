"""popsi benchmark: seeded workloads that drive the real CLI, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload's step is the CLI path ingest -> fit -> evaluate -> recommend.
Every command is `python -m popsi.cli ...` on this checkout's `src/`, run
closed loop by one client (the next command starts when the previous one
exits), with one BLAS/OpenMP thread per child. `--trace 0` repeats the
step until S seconds have passed and reports the end-to-end metrics;
`--trace 1` runs one untraced and one traced step and reports per-layer
self-times and counts.
After the commands, `check.py` compares every output with a numpy oracle.
Each metric is printed as `name value unit`, and the last stdout line is
the JSON result. The exit status is 1 if a command or a check failed.
See README.md for the workloads, the metrics and the layer table.
"""

import os

# the generator and the oracle in this process use one BLAS thread, like the CLI children
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import RunChecker
from gen import LogSpec, generate, write_csv
from spans import new_summary, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    log: LogSpec
    r: int


WORKLOADS = {
    # acceptance-9 densities; the two unfolding SVDs at r=200 dominate the step
    "fit-r200": Workload(LogSpec(6000, 3000, (0.00142, 0.003, 0.003, 0.0035)), r=200),
    # cheap SVD; per-user scoring and ranking, parsing and tensor text I/O dominate
    "rank-r32": Workload(LogSpec(16000, 5000, (0.0015, 0.002)), r=32),
}
P = 0.2
EVAL_K = (20, 50)
REC_K = 10
REC_USERS = 20  # distinct user tokens per `recommend` call
STEP = ("ingest", "fit", "evaluate", "recommend")
PIPELINE = STEP[:3]  # the commands trace.overhead_s covers
RUN_LIMIT_S = 170  # a child still running this long after the start is killed
# (metric, span name, statistic), summed over the traced pass; "incl" keeps the
# children's time (an SVD's QRs, the projections inside debias, Spearman in PRI)
LAYER_TOTALS = [
    ("data.parse_interactions_s", "data.parse_interactions", "self"),
    ("data.build_tensor_s", "data.build_tensor", "self"),
    ("data.write_coordinate_triples_s", "data.write_coordinate_triples", "self"),
    ("data.read_coordinate_triples_s", "data.read_coordinate_triples", "self"),
    ("data.read_coordinate_triples_calls", "data.read_coordinate_triples", "calls"),
    ("data.split_holdout_s", "data.split_holdout", "self"),
    ("data.split_holdout_calls", "data.split_holdout", "calls"),
    ("baselines.train_item_sets_s", "baselines.train_item_sets", "self"),
    ("linalg.svd_mode1_s", "linalg.svd_mode1", "incl"),
    ("linalg.svd_mode2_s", "linalg.svd_mode2", "incl"),
    ("linalg.qr_calls", "linalg.qr", "calls"),
    ("linalg.qr_s", "linalg.qr", "self"),
    ("linalg.project_out_s", "linalg.project_out", "self"),
    ("linalg.orthonormalize_s", "linalg.orthonormalize", "self"),
    ("model.unfold_s", "model.unfold", "self"),
    ("model.estimate_subspaces_s", "model.estimate_subspaces", "incl"),
    ("model.debias_item_space_s", "model.debias_item_space", "incl"),
    ("model.cores_s", "model.fit", "self"),
    ("model.save_model_s", "model.save_model", "self"),
    ("model.load_model_s", "model.load_model", "self"),
    ("model.score_user_s", "model.score_user", "self"),
    ("model.score_user_calls", "model.score_user", "calls"),
    ("model.rank_items_s", "model.rank_items", "self"),
    ("model.rank_items_calls", "model.rank_items", "calls"),
    ("metrics.evaluate_self_s", "metrics.evaluate", "self"),
    ("metrics.avg_rank_quantiles_s", "metrics.avg_rank_quantiles", "self"),
    ("metrics.pri_s", "metrics.pri", "incl"),
]
READ_SIDE = ("data.read_coordinate_triples", "data.read_index", "data.split_holdout",
             "baselines.train_item_sets", "model.load_model")


class CommandFailed(Exception):
    pass


@dataclass
class Command:
    name: str
    traced: bool
    wall: float
    rss_mb: float
    cpu: float  # user + system seconds
    status: int
    stdout: str
    stderr: str
    spans: list = field(default_factory=list)


class Bench:
    def __init__(self, name: str, seed: int, trace: bool):
        self.seed = seed
        self.w = WORKLOADS[name]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = STATE / "work" / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.csv = self.work / "interactions.csv"
        self.run_dir = self.work / "run"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        self.commands: list[Command] = []
        self.reports: list[bytes] = []  # report.json after every evaluate
        self.recommends: list[tuple[list[str], str]] = []  # (tokens, stdout) of every call
        self.steps: list[list[Command]] = []
        self.setup_s: list[float] = []
        self.rng = np.random.default_rng([seed, 2])  # users asked for by `recommend`
        self.user_queue: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.checker: RunChecker | None = None

    # --- commands ---

    def command(self, name: str, args: list[str], traced: bool = False) -> Command:
        n = len(self.commands)
        spans_path = self.work / f"cmd{n}.spans.json"
        prog = ([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)] if traced
                else [sys.executable, "-m", "popsi.cli"])
        out_path, err_path = self.work / f"cmd{n}.out", self.work / f"cmd{n}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(prog + args, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.daemon = True
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Command(name, traced, wall, usage.ru_maxrss / 1024,
                      usage.ru_utime + usage.ru_stime, proc.returncode,
                      out_path.read_text(), err_path.read_text())
        if traced and spans_path.exists():
            cmd.spans = json.loads(spans_path.read_text())
        self.commands.append(cmd)
        self.attempted += 1
        if cmd.status != 0:
            raise CommandFailed(f"{name} exited {cmd.status}: {cmd.stderr.strip()[-300:]}")
        return cmd

    def step(self, traced: bool = False) -> None:
        """ingest -> fit -> evaluate -> recommend, each a fresh CLI process."""
        common = ["--out", str(self.run_dir), "--seed", str(self.seed), "--r", str(self.w.r),
                  "--p", str(P)] + [a for k in EVAL_K for a in ("--k", str(k))]
        tokens = self.next_users()
        args = {
            "ingest": ["ingest", "--input", str(self.csv),
                       "--behaviors", ",".join(self.w.log.behaviors), *common],
            "fit": ["fit", *common],
            "evaluate": ["evaluate", *common],
            "recommend": ["recommend", "--out", str(self.run_dir), "--seed", str(self.seed),
                          "--k", str(REC_K), *tokens],
        }
        commands = []
        for name in STEP:
            commands.append(self.command(name, args[name], traced))
            if name == "evaluate":
                self.reports.append((self.run_dir / "report.json").read_bytes())
        self.recommends.append((tokens, commands[-1].stdout))
        self.steps.append(commands)

    def next_users(self) -> list[str]:
        if len(self.user_queue) < REC_USERS:
            self.user_queue.extend(self.rng.permutation(self.user_tokens).tolist())
        chunk, self.user_queue = self.user_queue[:REC_USERS], self.user_queue[REC_USERS:]
        return chunk

    # --- phases ---

    def set_up(self) -> None:
        """Write the workload's log, then start the CLI once (`--help`): this
        compiles popsi's bytecode in a fresh checkout and warms the imports.
        setup_s is the median of the set-up's timings."""
        start = time.perf_counter()
        log = generate(self.w.log, self.seed)
        write_csv(log, self.csv, self.seed)
        try:
            warm = subprocess.run([sys.executable, "-m", "popsi.cli", "--help"], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise CommandFailed("popsi.cli --help timed out") from None
        if warm.returncode != 0:
            raise CommandFailed(f"popsi.cli --help exited {warm.returncode}: "
                                f"{warm.stderr.strip()[-300:]}")
        self.setup_s.append(time.perf_counter() - start)
        self.user_tokens = log.user_tokens

    def measure(self, seconds: float) -> None:
        """Repeat the step until `seconds` have passed (at least once)."""
        start = time.perf_counter()
        while True:
            self.step()
            if time.perf_counter() - start >= seconds:
                break

    def check(self) -> None:
        c = self.checker = RunChecker(self.run_dir)
        c.check_fit()
        c.check_report(self.reports[-1].decode())
        for tokens, stdout in self.recommends:
            c.check_recommend(tokens, stdout, REC_K)
        for i, report in enumerate(self.reports):
            c.record(f"report.identical_{i}", report == self.reports[0], "differs from the first")
        self.attempted += len(c.results)
        self.failures += [(name, detail) for name, _, detail in c.failures]

    # --- metrics ---

    def walls(self, name: str, traced: bool = False) -> list[float]:
        return [c.wall for c in self.commands if c.name == name and c.traced == traced]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "latency_s": (statistics.median(sum(c.wall for c in step) for step in self.steps), "s"),
            "peak_rss_mb": (max(c.rss_mb for c in self.commands), "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        per_cmd = [(c, summarize(c.spans)) for c in self.commands if c.traced]
        total = new_summary()
        for _, summary in per_cmd:
            for name, stats in summary.items():
                for key, value in stats.items():
                    total[name][key] += value
        med = statistics.median
        test_users = len(self.checker.test)
        eval_scores = sum(s["model.score_user"]["calls"] for c, s in per_cmd if c.name == "evaluate")
        m: dict[str, tuple[float, str]] = {
            "cli.import_s": (med(s["cli.import"]["incl"] for _, s in per_cmd), "s"),
        }
        for metric, span, stat in LAYER_TOTALS:
            m[metric] = (total[span][stat], "count" if stat == "calls" else "s")
        m["model.score_calls_per_test_user"] = (eval_scores / test_users, "ratio")
        m["model.zero_score_users"] = (self.checker.zero_score_users, "count")
        m["data.entries"] = (self.checker.entries, "count")
        m["eval.test_users"] = (test_users, "count")
        report = json.loads(self.reports[-1])
        m["eval.ndcg_at_50"] = (report["ndcg_at_50"], "1")
        m["eval.pri"] = (report["pri"], "1")
        m["fit.w_energy_gain"] = (self.checker.energy_gains["W"], "1")
        m["fit.h_energy_gain"] = (self.checker.energy_gains["H"], "1")
        m["trace.overhead_s"] = (sum(med(self.walls(n, True)) - med(self.walls(n))
                                     for n in PIPELINE), "s")
        for name in STEP:
            m[f"{name}.wall_s"] = (med(self.walls(name)), "s")
            # inside the one traced process, so never negative
            m[f"{name}.unattributed_s"] = (med(c.wall - s["layers"]["incl"] for c, s in per_cmd
                                               if c.name == name), "s")
        m["recommend.read_side_s"] = (med(sum(s[n]["self"] for n in READ_SIDE)
                                          for c, s in per_cmd if c.name == "recommend"), "s")
        return m


def git_commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git (None outside one)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(load_start: tuple[float, ...]) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "child_thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="popsi CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "popsi" / "cli.py").is_file():
        print(f"error: no popsi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    load_start = os.getloadavg()
    bench = Bench(args.workload, args.seed, bool(args.trace))
    metrics: dict[str, tuple[float, str]] = {}
    phases = {"start": time.perf_counter()}  # the benchmark's own run time, for its time budget
    try:
        bench.set_up()
        phases["setup"] = time.perf_counter()
        if args.trace:
            bench.step()
            bench.step(traced=True)
        else:
            bench.measure(args.seconds)
        phases["measure"] = time.perf_counter()
        # set up twice more (same bytes): three timings spread over the run, so
        # one slow spell of the shared host does not set the median setup_s
        bench.set_up()
        bench.check()
        bench.set_up()
        phases["check"] = time.perf_counter()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        phases["end"] = time.perf_counter()
    except CommandFailed as e:
        bench.failures.append(("command", str(e)))
    env = environment(load_start)

    for name, detail in bench.failures:
        print(f"FAIL {name}: {detail}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not bench.failures,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "result": result, "failures": bench.failures,
        "phase_end_s": {k: v - phases["start"] for k, v in phases.items()},
        "commands": [{"name": c.name, "traced": c.traced, "wall_s": c.wall, "cpu_s": c.cpu,
                      "max_rss_mb": c.rss_mb, "status": c.status} for c in bench.commands],
        "spans": {i: c.spans for i, c in enumerate(bench.commands) if c.traced},
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    if not bench.failures:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
