"""caselink pipeline benchmark.

Runs ``caselink pipeline`` in-process through ``caselink.cli.main`` on inputs
generated (in a separate, untimed process) from the workload seed, checks the
outputs, and prints every metric by name with its unit. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer ones with
``--trace 1``).

    python3 perfbench/run.py --workload quickstart            # seed 2
    python3 perfbench/run.py --workload lexical --trace 1     # per-layer run
    python3 perfbench/run.py --workload all                   # every workload

Load is closed-loop: one process, one pipeline call at a time, and one BLAS
thread. Full calls repeat while the next one should still fit in
``--seconds`` of measured time (at least one), with probe calls that skip the
dominating phase adding samples of the short phases. Each timing is the
median of its samples, each rescaled by a fixed host gauge timed around its
call. Exits 1 when an output check fails and 2 when the caselink sources or
the inputs are missing. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import io
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy's BLAS pool gets one thread, set before anything imports numpy, so the
# measured process runs on one core of the few shared ones and a second
# thread's waits for a busy core do not enter the timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PREFILTER_SIZE = 10  # pipeline defaults, which every workload keeps
FINAL_SIZE = 5

# Timings are rescaled to a host on which one round of ``host_gauge`` takes
# this long (about its median on the 2-vCPU host the benchmark was tuned on).
GAUGE_REF_S = 0.010

@dataclasses.dataclass
class Call:
    out: Path
    code: int
    trace: tracer.Tracer
    phases: dict | None = None
    skips: tuple[str, ...] = ()  # phases a probe skipped; empty for a full call
    gauge_s: float | None = None  # host_gauge's median round just before and after the call


def pipeline_call(cli, config: Path, out: Path, flags: list[str], names, run_id: str) -> Call:
    """One ``caselink pipeline`` call with the named functions wrapped."""
    t = tracer.Tracer(run_id)
    gc.collect()
    try:
        with tracer.installed(t, names), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", "--config", str(config), "--out", str(out), *flags])
    except Exception:  # an uncaught error is a failed call, not a crashed benchmark
        traceback.print_exc()
        code = -1
    call = Call(out, code, t)
    if code == 0:
        call.phases = tracer.phases(t.spans)
    return call


def probe_call(cli, config: Path, out: Path, flags: list[str], skips: tuple[str, ...],
               graph, run_id: str) -> Call:
    """A pipeline call that skips the phases in ``skips``: with "graph" the
    graph phase returns ``graph`` instead of building one, with "train"
    training runs for zero epochs."""
    with contextlib.ExitStack() as stack:
        if "train" in skips:
            flags = [*flags, "--epochs", "0"]
        if "graph" in skips:
            (build,) = tracer.originals(["graph.build_global_case_graph"]).values()
            stack.enter_context(tracer.replaced(build, lambda *args, **kwargs: graph))
        call = pipeline_call(cli, config, out, flags, tracer.PHASES, run_id)
    shutil.rmtree(out, ignore_errors=True)
    call.skips = skips
    return call


def host_gauge(rounds: int = 3) -> list[float]:
    """Times of a fixed round of interpreter and small numpy work, the kind
    of work the pipeline's hot loops do. The host's speed swings in spells
    that can outlast a run, and this round slows down with the pipeline's
    phases, call by call; its code never changes, so rescaling by it removes
    the host's speed and leaves the program's."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 32))
    idx = rng.integers(0, 4000, 3000)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        d = {}
        for i in range(8000):
            d[f"c{i}"] = i * 1.5
        sorted(d, key=lambda k: (-d[k], k))
        z = np.zeros(4000)
        for _ in range(200):
            z[idx] += a[:, 0].sum() * 0.5 + 1.0 / (z[idx] + 1.0)
        np.log(np.exp(a @ a.T / 10.0).sum(axis=1))
        times.append(time.perf_counter() - t0)
    return times


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """The checked-out commit, when the benchmark runs inside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    from caselink.synthetic import SyntheticSpec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "synthetic_spec": dataclasses.asdict(SyntheticSpec(seed=seed, **workload.spec)),
        "pipeline_flags": workload.pipeline_flags(),
    }


def dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run, check and summarise one workload."""
    from caselink import cli
    from caselink.corpus import ingest_corpus
    from caselink.graph import load_graph

    import checks

    config = work / "config.json"
    os.environ.pop(cli.CACHE_ENV_VAR, None)  # every workload builds its BM25 index cold
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    originals = tracer.originals(tracer.TRACED)
    flags = workload.pipeline_flags()

    # One cycle is a full call followed by the workload's probes, which repeat
    # the phases that do not dominate a full call. Cycles repeat until
    # ``seconds`` of wall time are used: a call starts only if it should end
    # in time, judged by the last call of its kind, so the samples of every
    # phase are spread over the whole run. The traced run needs no probes.
    # The host gauge runs before every call and once after the last.
    cycle = [()] + ([] if trace else list(workload.probes))
    duration: dict[tuple[str, ...], float] = {}  # of the last call of each kind
    probes: list[Call] = []
    calls: list[Call] = []
    ran: list[Call] = []  # every call, in the order they ran
    gauges: list[list[float]] = []
    graph = None
    deadline = time.perf_counter() + seconds
    while True:
        ran_any = False
        for skips in cycle:
            if calls and time.perf_counter() + duration.get(skips, 0.0) > deadline:
                continue
            gauges.append(host_gauge())
            t0 = time.perf_counter()
            if skips:
                probes.append(probe_call(cli, config, work / "probe", flags, skips, graph,
                                         f"{workload.name}-s{seed}-probe{len(probes)}"))
                ran.append(probes[-1])
            else:
                call = pipeline_call(cli, config, work / f"call{len(calls)}", flags,
                                     tracer.PHASES, f"{workload.name}-s{seed}-call{len(calls)}")
                calls.append(call)
                ran.append(call)
                if call.code != 0:
                    break
                if any("graph" in probe for probe in cycle):
                    graph = load_graph(call.out / "graph.gcg1")
            duration[skips] = time.perf_counter() - t0
            ran_any = True
        if not ran_any or calls[-1].code != 0:
            break
    gauges.append(host_gauge())
    for i, call in enumerate(ran):
        call.gauge_s = statistics.median(gauges[i] + gauges[i + 1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if trace and calls[-1].code == 0:
        traced = pipeline_call(cli, config, work / "traced", flags, tracer.TRACED,
                               f"{workload.name}-s{seed}-traced")
    problems = [f"binding left wrapped: {b}" for b in tracer.stale_bindings(originals)]
    problems += [f"{p.trace.run_id}: pipeline exited {p.code}" for p in probes if p.code != 0]
    attempted = len(probes)
    failed = sum(p.code != 0 for p in probes)

    cfg = json.loads(config.read_text("utf-8"))
    store = ingest_corpus(cfg["corpus"], cfg["labels"])
    first_outputs = None
    for call in calls + ([traced] if traced else []):
        attempted += 1
        if call.code != 0:
            failed += 1
            problems.append(f"{call.trace.run_id}: pipeline exited {call.code}")
            continue
        result = checks.check_run(store, call.out, PREFILTER_SIZE, FINAL_SIZE)
        outputs = [(call.out / name).read_bytes() for name in ("run.json", "report.json")]
        first_outputs = first_outputs or outputs
        if outputs != first_outputs:
            result.problems.append("run.json/report.json differ from the first call's")
        attempted += result.queries
        # one problem per bad query; anything beyond those fails the call itself
        failed += result.bad_queries + (len(result.problems) > result.bad_queries)
        problems += [f"{call.trace.run_id}: {p}" for p in result.problems]

    ok_calls = [c for c in calls if c.code == 0]
    report = json.loads((ok_calls[0].out / "report.json").read_text("utf-8")) if ok_calls else None
    if report and workload.name == "quickstart" and seed == DEFAULT_SEED:
        try:
            expected = checks.readme_quickstart(ROOT / "README.md")
        except (OSError, ValueError) as exc:
            problems.append(f"cannot read the README's quick-start result: {exc}")
        else:
            if (report["correct"], report["f1"]) != expected:
                problems.append(f"quick start gave correct/f1 {report['correct']}/{report['f1']}, "
                                f"README publishes {expected[0]}/{expected[1]!r}")

    metrics: dict[str, float] = {}
    if traced is not None and traced.code == 0:
        untraced = statistics.median(c.phases["pipeline_s"] for c in ok_calls)
        metrics = tracer.layer_metrics(traced.trace.spans)
        metrics.update({name: traced.trace.counts.get(name, 0) for name in tracer.COUNT_NAMES})
        metrics["cli.files_written"], metrics["cli.bytes_written"] = dir_usage(traced.out)
        metrics["trace.overhead_s"] = traced.phases["pipeline_s"] - untraced
    elif not trace and ok_calls:
        labelled, queries = len(store.labels), len(store.queries())

        samples = ok_calls + [p for p in probes if p.code == 0]
        graph_samples = [c for c in samples if "graph" not in c.skips]
        train_samples = [c for c in samples if "train" not in c.skips]

        def scaled(calls, phase):
            return statistics.median(c.phases[phase] * GAUGE_REF_S / c.gauge_s for c in calls)

        # Each sample is rescaled by the host gauge taken around its call,
        # then the run reports the median. On the host the benchmark was
        # tuned on, this cut the ten-run spread of every timing two- to
        # threefold against the fastest or the median plain sample.
        metrics = {
            "pipeline_s": scaled(ok_calls, "pipeline_s"),
            "setup_s": scaled(samples, "setup_s"),
            "graph_s": scaled(graph_samples, "graph_s"),
            "train_samples_per_s": workload.epochs * labelled / scaled(train_samples, "train_s"),
            "rank_qps": queries / scaled(samples, "rank_s"),
            "peak_rss_mb": peak_rss_mb,
            "f1": report["f1"],
        }
        metrics.update(checks.quality_ladder(store, ok_calls[0].out, PREFILTER_SIZE,
                                             FINAL_SIZE, seed))

    with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for call in calls + ([traced] if traced else []):
            for row in call.trace.rows():
                fh.write(json.dumps(row) + "\n")
    return {
        "environment": environment(workload, seed),
        "calls": [{"run_id": c.trace.run_id, "code": c.code, "skips": c.skips,
                   "gauge_s": c.gauge_s, "phases": c.phases}
                  for c in probes + calls + ([traced] if traced else [])],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_one(args) -> int:
    if not (SRC / "caselink" / "cli.py").is_file():
        print(f"error: caselink sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t0 = time.perf_counter()
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    gen = subprocess.run(
        [sys.executable, str(HERE / "gen_inputs.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--dir", str(work)],
        cwd=ROOT, env=env, timeout=300,
    )
    if gen.returncode != 0:
        print(f"error: generating inputs exited {gen.returncode}", file=sys.stderr)
        return 2
    print(f"# inputs for {workload.name} (seed {args.seed}) generated in "
          f"{time.perf_counter() - t0:.2f} s")

    sys.path.insert(0, str(SRC))
    result = measure(workload, args.seed, seconds, bool(args.trace), work)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if list(result["metrics"]) != expected:
        result["problems"].append("metrics do not match BENCHMARK.json: "
                                  f"{sorted(set(result['metrics']) ^ set(expected))}")
    result["correct"] = not result["problems"] and result["failed"] == 0
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", "utf-8")

    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"# environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# {len(result['calls'])} pipeline calls, {result['failed']} of "
          f"{result['attempted']} calls+queries failed; spans in {work / 'spans.jsonl'}")
    for name, value in result["metrics"].items():
        print(f"{name:<44} {value:>16.6f} {units.get(name, '?')}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units.get(n, "?")}
                    for n, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        print(f"## {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace),
             *([] if args.seconds is None else ["--seconds", str(args.seconds)])],
            cwd=ROOT,
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
