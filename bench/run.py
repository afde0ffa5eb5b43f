"""Pipeline benchmark for cslaudit.

    python3 bench/run.py --workload default-attn --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from src/.

--trace 0 (end-to-end): runs the six CLI stages (gen, corrupt, train, audit,
eval, heatmap) as fresh subprocesses, one after another: a closed loop with
one client. It repeats the whole pipeline at least three times and for about
--seconds, and reports per-stage times (medians over the passes),
throughput, peak RSS and artifact size. setup_s is the median time of a fresh
interpreter running `import cslaudit.cli`, which every command pays; it is
sampled once in every pass. The run is pinned to one CPU, and a short fixed
job (host_probe) runs after every subprocess. Each time is scaled by
PROBE_NOMINAL_S over the mean of the probes before and after it, which takes
out the host's changing speed; README.md says why. The raw wall times are in
the record.

--trace 1 (per layer): runs the same pipeline in process three times
(traced, untraced, traced), with spans around calls into each module. It
reports per-layer busy time, self time and exact counts, the import-time
split of a fresh interpreter, and trace.overhead_s. The two traced passes
must give identical counts.

Every stage's outputs are checked against references recorded from known-good
code (refs.json); `--record-refs` records them. BLAS/OpenMP pools are pinned to
one thread. The last line of stdout is the result as one JSON object; the
line before it records the environment. Work files go to .bench_work/.
"""

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before anything here imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFS = os.path.join(BENCH, "refs.json")
RUN_LIMIT_S = 170.0     # a run must end within 180 s; stages are killed after
MB = 1e6
MIN_PASSES = 3
# host_probe() on an idle core of the 2-core Xeon VM the benchmark was built
# on. A time is scaled by PROBE_NOMINAL_S / (the probes around it).
PROBE_NOMINAL_S = 0.055
CPUS = sorted(os.sched_getaffinity(0))   # before a run pins itself to one
PROBE_SMALL = numpy.linspace(0, 1, 96 * 96).reshape(96, 96)
PROBE_LARGE = numpy.linspace(0, 1, 384 * 384).reshape(384, 384)


def host_probe() -> float:
    """Wall time of a fixed CPU-bound job with the program's mix: a Python
    loop, small matrix products, and a T x T product and softmax at T = 384.
    It says how fast the host runs this process just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    m = PROBE_SMALL
    for _ in range(200):
        m = numpy.tanh(m @ PROBE_SMALL)
    for _ in range(3):
        s = PROBE_LARGE @ PROBE_LARGE
        s = numpy.exp(s - s.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **THREAD_PINS)


def run_child(argv: list[str], log_path: str, deadline: float):
    """Run one subprocess to completion; (wall s, cpu s, exit code, maxrss
    bytes). It is killed at `deadline` (time.monotonic())."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, usage.ru_maxrss * 1024


def environment() -> dict:
    from importlib import metadata
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(CPUS),
        "cpu": cpu,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def load_reference(workload: str, seed: int) -> dict:
    with open(REFS, encoding="utf-8") as f:
        refs = json.load(f)
    return refs[workload][str(W.data_seed(seed))]


def prepare(workload: str, seed: int) -> tuple[dict, str, str]:
    """Fresh work directory and config file; returns (cfg, cfg path, dir)."""
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = W.make_config(workload, seed, os.path.join(work, "out"))
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=1, sort_keys=True)
    return cfg, cfg_path, work


# ---------------------------------------------------------------------------
# end-to-end run: subprocess per stage


def import_once(work: str, deadline: float) -> float:
    """Wall time of one fresh interpreter running `import cslaudit.cli`."""
    log = os.path.join(work, "setup.log")
    wall, _, code, _ = run_child([sys.executable, "-c", "import cslaudit.cli"],
                                 log, deadline)
    if code:
        with open(log, encoding="utf-8", errors="replace") as f:
            raise RuntimeError(f"import cslaudit.cli failed: {f.read()[-500:]}")
    return wall


def pipeline_once(cfg: dict, cfg_path: str, ref: dict, work: str,
                  deadline: float, setup_samples: list, setup_before: str,
                  probes: list) -> dict:
    """One closed-loop pass over the six stages as subprocesses, with one
    set-up sample before stage `setup_before`. The caller moves that stage
    from pass to pass, so that the samples spread over the run. A host probe
    follows every subprocess; `probes[-1]` is the one before the next."""
    shutil.rmtree(cfg["out_dir"], ignore_errors=True)
    it = {"stage_s": {}, "cpu_s": {}, "maxrss": {}, "problems": {},
          "checks_run": 0, "probe_s": {}}
    for stage in W.STAGES:
        if stage == setup_before:
            wall = import_once(work, deadline)
            probes.append(host_probe())
            setup_samples.append((wall, probes[-2], probes[-1]))
        log = os.path.join(work, f"{stage}.log")
        wall, cpu, code, rss = run_child(
            [sys.executable, "-m", "cslaudit.cli", stage, "--config", cfg_path],
            log, deadline)
        probes.append(host_probe())
        it["probe_s"][stage] = (probes[-2], probes[-1])
        if code:
            problem = f"exit code {code}"
        else:
            problem = W.check_stage(stage, cfg, ref)
            it["checks_run"] += 1
        it["stage_s"][stage] = wall
        it["cpu_s"][stage] = cpu
        it["maxrss"][stage] = rss
        if problem:
            it["problems"][stage] = problem
    it["artifact_bytes"] = W.artifact_bytes(cfg["out_dir"])
    return it


def run_end_to_end(workload: str, seed: int, seconds: float, t_start: float):
    deadline = t_start + RUN_LIMIT_S
    cfg, cfg_path, work = prepare(workload, seed)
    ref = load_reference(workload, seed)

    # One CPU for the whole run, so that the probes see the stages' CPU.
    os.sched_setaffinity(0, {CPUS[-1]})
    setup_samples: list[tuple] = []
    probes = [host_probe()]
    iters = []
    t0 = time.monotonic()
    while True:
        iters.append(pipeline_once(cfg, cfg_path, ref, work, deadline,
                                   setup_samples,
                                   W.STAGES[len(iters) % len(W.STAGES)],
                                   probes))
        elapsed = time.monotonic() - t0
        # start no pass that would likely end after `seconds`
        if len(iters) >= MIN_PASSES and elapsed * (1 + 1 / len(iters)) > seconds:
            break

    try:
        train_frames = W.count_frames(os.path.join(cfg["out_dir"], "train.jsonl"))
    except (OSError, ValueError, KeyError, StopIteration):
        train_frames = 0   # gen failed, which `failed` already counts
    epochs = checkpoints = cfg["train"]["epochs"]   # the train check holds this
    audit_frames = ref["audit_rows"]
    med = statistics.median

    def scaled(wall, before, after):
        return wall * PROBE_NOMINAL_S / ((before + after) / 2)

    def stage(*names):
        """Median over the passes of these stages' summed scaled time."""
        return med(sum(scaled(it["stage_s"][n], *it["probe_s"][n])
                       for n in names) for it in iters)

    metrics = {
        "setup_s": (med(scaled(*s) for s in setup_samples), "s"),
        "prep_s": (stage("gen", "corrupt"), "s"),
        "train_s": (stage("train"), "s"),
        "audit_s": (stage("audit"), "s"),
        "report_s": (stage("eval", "heatmap"), "s"),
        "pipeline_s": (stage(*W.STAGES), "s"),
        "train_frames_per_s": (epochs * train_frames / stage("train"),
                               "frames/s"),
        "audit_frames_per_s": (checkpoints * audit_frames / stage("audit"),
                               "frames/s"),
        "peak_rss_mb": (med(max(it["maxrss"].values()) for it in iters) / MB,
                        "MB"),
        "artifact_mb": (med(it["artifact_bytes"] for it in iters) / MB, "MB"),
    }
    failed = sum(len(it["problems"]) for it in iters)
    detail = {
        "checks_run": sum(it["checks_run"] for it in iters),
        "setup_samples_s": setup_samples,
        "probes_s": probes,
        "iterations": iters,
        "train_frames": train_frames, "epochs": epochs,
        "audit_frames": audit_frames, "checkpoints": checkpoints,
    }
    return metrics, len(iters) * len(W.STAGES), failed, detail


# ---------------------------------------------------------------------------
# per-layer run: traced, in process


def run_traced(workload: str, seed: int):
    cfg, cfg_path, work = prepare(workload, seed)
    ref = load_reference(workload, seed)
    imports = tracing.median_dicts([
        tracing.import_breakdown(sys.executable, child_env(), ROOT)
        for _ in range(3)])

    sys.path.insert(0, SRC)
    from cslaudit import cli

    problems = []
    checks_run = 0

    def on_stage(stage, code, output):
        nonlocal checks_run
        if code:
            problem = f"exit code {code}: {output[-300:]}"
        else:
            problem = W.check_stage(stage, cfg, ref)
            checks_run += 1
        if problem:
            problems.append({"stage": stage, "problem": problem})

    passes = []
    for traced in (True, False, True):
        shutil.rmtree(cfg["out_dir"], ignore_errors=True)
        tracer = tracing.Tracer()
        if traced:
            with tracing.traced_modules(tracer):
                total = tracing.run_pass(cli, cfg_path, on_stage)
        else:
            total = tracing.run_pass(cli, cfg_path, on_stage)
        passes.append({"traced": traced, "total_s": total, "spans": tracer.spans,
                       "artifact_bytes": W.artifact_bytes(cfg["out_dir"])})

    traced_passes = [p for p in passes if p["traced"]]
    layer = [tracing.layer_metrics(p["spans"]) for p in traced_passes]
    counts = [dict(c, artifact_bytes=p["artifact_bytes"])
              for (_, c), p in zip(layer, traced_passes)]
    counts_equal = all(c == counts[0] for c in counts)
    checks_run += 1
    if not counts_equal:
        problems.append({"stage": "trace", "problem": "counts differ between "
                         "the two traced passes"})
    times = tracing.median_dicts([t for t, _ in layer])
    untraced_s = next(p["total_s"] for p in passes if not p["traced"])
    overhead = statistics.median(p["total_s"] for p in traced_passes) - untraced_s

    values = {f"import.{k}_s": v for k, v in imports.items()}
    values.update(times)
    values.update(counts[0])
    values["trace.overhead_s"] = overhead
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in tracing.PER_LAYER}

    spans_path = os.path.join(work, "spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as f:
        for sid, parent, stage, name, t0, t1, c in traced_passes[-1]["spans"]:
            f.write(json.dumps({"id": sid, "parent": parent, "stage": stage,
                                "name": name, "start": t0, "end": t1,
                                "counts": c}) + "\n")
    detail = {
        "checks_run": checks_run,
        "pass_total_s": [p["total_s"] for p in passes],
        "counts_equal": counts_equal,
        "counts": counts[0],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "problems": problems,
    }
    # attempted: every stage run, plus the comparison of the two passes' counts
    return metrics, len(passes) * len(W.STAGES) + 1, len(problems), detail


# ---------------------------------------------------------------------------


def record_refs(workload_names: list[str]) -> None:
    """Record reference outputs for every data seed, in process, untraced."""
    sys.path.insert(0, SRC)
    from cslaudit import cli
    try:
        with open(REFS, encoding="utf-8") as f:
            refs = json.load(f)
    except FileNotFoundError:
        refs = {}

    def on_stage(stage, code, output):
        if code:
            raise RuntimeError(f"{stage} failed: {output[-500:]}")

    for name in workload_names:
        refs.setdefault(name, {})
        for seed in range(W.REF_SEEDS):
            cfg, cfg_path, _ = prepare(name, seed)
            tracing.run_pass(cli, cfg_path, on_stage)
            refs[name][str(seed)] = W.reference_of(cfg["out_dir"])
            print(name, seed, refs[name][str(seed)], flush=True)
            with open(REFS, "w", encoding="utf-8") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")


def main() -> int:
    t_start = time.monotonic()
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its stage
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", nargs="+", metavar="WORKLOAD",
                    help="record reference outputs for these workloads")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cslaudit", "cli.py")):
        print(f"error: no cslaudit sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if args.record_refs:
        record_refs(args.record_refs)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(REFS):
        print(f"error: missing reference file {REFS}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, detail = run_traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, detail = run_end_to_end(
            args.workload, args.seed, args.seconds, t_start)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "data_seed": W.data_seed(args.seed), "trace": args.trace,
              "env": env, "detail": detail}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"env": env, "detail_file": os.path.relpath(result_path, ROOT)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
