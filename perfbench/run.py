"""irreplab benchmark: end-to-end CLI metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gsdist --seed 11 --seconds 20 --trace 0

``--trace 0`` runs the workload's CLI commands (``python -m irreplab.cli``
with ``PYTHONPATH=src``) from one closed-loop client for ``--seconds``: the
next command starts only after the previous one has exited.  Wall time
comes from the client's clock, CPU time and peak RSS from ``os.wait4``.

``--trace 1`` runs the same commands in this process, single-threaded
(``--threads 1``), alternating an untraced and a traced pass until
``--seconds`` is up, and reports per-layer self times and counts from the
span recorder in ``tracer.py``.

Every command's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
provenance included, goes to ``.perfbench/results/``.  Exit code 2 means
the benchmark could not run (no irreplab source in this checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, CheckFailed, baseline_command  # noqa: E402

SETUP_SPAWNS = 11  # `--version` spawns spread over the timed window, for setup_s

# (name, unit) pairs, in print order; the JSON carries END_TO_END with
# --trace 0 and PER_LAYER with --trace 1
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("rng.substream.calls", "count"),
    ("rng.substream.self_s", "s"),
    ("rng.normals.calls", "count"),
    ("rng.normals.drawn", "count"),
    ("rng.normals.self_s", "s"),
    ("rng.random_sym_block.calls", "count"),
    ("rng.random_sym_block.self_s", "s"),
    ("rng.draw_label_blocks.self_s", "s"),
    ("rng.run_trials.self_s", "s"),
    ("irreps.decompose.self_s", "s"),
    ("irreps.combination.calls", "count"),
    ("irreps.combination.self_s", "s"),
    ("irreps.census.self_s", "s"),
    ("irreps.block_spectra.self_s", "s"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.self_s", "s"),
    ("linalg.eigvalsh.flops_computed", "flop"),
    ("linalg.write_matrix_text.self_s", "s"),
    ("linalg.write_matrix_text.bytes", "B"),
    ("linalg.read_matrix_text.self_s", "s"),
    ("linalg.read_matrix_text.bytes", "B"),
    ("groups.build_group.self_s", "s"),
    ("groups.pair_orbits.calls", "count"),
    ("groups.pair_orbits.self_s", "s"),
    ("groups.build_invariant.self_s", "s"),
    ("groups.check_invariance.self_s", "s"),
    ("su2.sigma_j_sq.calls", "count"),
    ("su2.sigma_j_sq.self_s", "s"),
    ("su2.gs_distribution.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.output.bytes", "B"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
# counts that must be identical in every traced pass
EXACT = [name for name, unit in PER_LAYER if unit in ("count", "flop", "B")]

ROUTINE_SEED = 11
HELD_OUT_SEED = 29


class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        return error is None


# -- subprocess side -----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot; (0, 0)
    where the kernel does not report them."""
    fields = [int(x) for x in (_read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:9]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def spawn(args: list[str], env: dict, logdir: str) -> dict:
    """Run ``python <args>`` to completion; wall time from spawn to exit,
    CPU and peak RSS of the child from wait4, and the CPU ticks the
    hypervisor stole from the machine meanwhile."""
    with open(os.path.join(logdir, "stdout"), "w+b") as out, \
         open(os.path.join(logdir, "stderr"), "w+b") as err:
        steal, ticks = host_cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        steal_after, ticks_after = host_cpu_ticks()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "steal_ticks": steal_after - steal,
            "host_ticks": ticks_after - ticks,
            "code": proc.returncode,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
        }


def remove_outputs(command):
    for path in command.outputs():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def run_command(command, env, logdir, tally: Tally) -> dict:
    remove_outputs(command)
    result = spawn(["-m", "irreplab.cli", *command.argv], env, logdir)
    error = None
    if result["code"] != 0:
        error = f"{command.argv[0]} exited {result['code']}: {result['stderr'].strip()[-300:]}"
    else:
        try:
            command.check(result["stdout"])
        except CheckFailed as exc:
            error = f"{command.argv[0]}: {exc}"
    result["ok"] = tally.record(error)
    return result


def spawn_setup(env, logdir, tally: Tally) -> dict:
    """One `--version` run: interpreter start, `import irreplab`, argparse."""
    r = spawn(["-m", "irreplab.cli", "--version"], env, logdir)
    ok = r["code"] == 0 and r["stdout"].startswith("irreplab ")
    tally.record(None if ok else f"--version failed: {r['stderr'].strip()[-300:]}")
    return r


def steal_share(runs: list[dict]) -> float:
    return sum(r["steal_ticks"] for r in runs) / max(sum(r["host_ticks"] for r in runs), 1)


def least_stolen(groups: list[list[dict]]) -> list[list[dict]]:
    """The groups of runs whose host steal share is at most the median.

    On a shared VM the hypervisor's steal stretches wall time in bursts
    and episodes of minutes while the program's CPU time barely moves;
    keeping the less disturbed half makes runs at different times
    comparable.  With no steal at all every group is kept."""
    shares = [steal_share(g) for g in groups]
    cut = statistics.median(shares)
    return [g for g, share in zip(groups, shares) if share <= cut]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that
    percentile; never below the median, which it is with under 22 samples."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(workload, seed, seconds, workdir, reference, env, tally):
    """Closed loop of whole rounds for ``seconds``.  The `--version` spawns
    behind setup_s are spread evenly over the same window, between rounds,
    so that they see the same machine as the commands.  Every command is
    checked; the timing metrics come from the rounds (and `--version`
    spawns) with at most the median host steal, see `least_stolen`."""
    commands = workload.commands(seed, workdir, workload.size, reference)
    for command in commands:  # warm-up round: file cache, lazy imports
        run_command(command, env, workdir, tally)
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(setups) >= SETUP_SPAWNS and rounds:
            break
        if len(setups) < SETUP_SPAWNS and elapsed >= len(setups) * seconds / SETUP_SPAWNS:
            setups.append(spawn_setup(env, workdir, tally))
            continue
        rounds.append([dict(run_command(c, env, workdir, tally), argv0=c.argv[0])
                       for c in commands])
    quiet = least_stolen(rounds)
    samples = [r for rnd in quiet for r in rnd]
    walls = [r["wall_s"] for r in samples]
    tail_s, tail_pct = tail(walls)
    items = workload.size * sum(all(r["ok"] for r in rnd) for rnd in quiet)
    metrics = {
        "setup_s": statistics.median(r["wall_s"] for [r] in least_stolen([[r] for r in setups])),
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": tail_s,
        "throughput_per_s": items / sum(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in samples),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in samples),
    }
    everything = [r for rnd in rounds for r in rnd]
    detail = {"commands": len(everything), "rounds": len(rounds), "quiet_rounds": len(quiet),
              "quiet_commands": len(samples), "tail_percentile": tail_pct, "items": items,
              "host_steal_share": steal_share(everything + setups),
              "quiet_steal_share": steal_share(samples),
              "setup_walls": [r["wall_s"] for r in setups],
              "samples": [{k: r[k] for k in ("argv0", "wall_s", "cpu_s", "rss_mb",
                                             "steal_ticks", "host_ticks", "ok")}
                          for r in everything]}
    return metrics, detail


# -- in-process side -----------------------------------------------------

def run_inprocess(commands, tally: Tally) -> int:
    """Run each command through ``irreplab.cli.main`` here; returns the
    bytes of output files written."""
    from irreplab import cli

    written = 0
    for command in commands:
        remove_outputs(command)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(command.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a crash fails this command, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        error = None if code == 0 else f"{command.argv[0]} returned {code}"
        if error is None:
            try:
                command.check(captured.getvalue())
                written += sum(os.path.getsize(p) for p in command.outputs())
            except CheckFailed as exc:
                error = f"{command.argv[0]}: {exc}"
        tally.record(error)
    return written


def traced(workload, seed, seconds, workdir, reference, tally, size=None):
    """Alternate untraced and traced in-process passes of one round for
    ``seconds`` (at least one pair).  Self times are medians over passes;
    counts come from one pass and must repeat exactly in every pass."""
    from tracer import Tracer

    commands = workload.commands(seed, workdir, size or workload.size, reference)
    if workload.threaded:
        commands = [dataclasses.replace(c, argv=[*c.argv, "--threads", "1"]) for c in commands]
    passes, untraced_s, traced_s, counts_seen = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run_inprocess(commands, tally)
        untraced_s.append(time.perf_counter() - t0)
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:
            written = run_inprocess(commands, tally)
        traced_s.append(time.perf_counter() - t0)
        summary = tracer.summary()
        summary["cli.output.bytes"] = written
        passes.append((tracer, summary))
        counts_seen.append({name: summary.get(name, 0) for name in EXACT})
    if any(c != counts_seen[0] for c in counts_seen):
        tally.record("exact counts differ between traced passes")
    metrics = {}
    for name, unit in PER_LAYER:
        if name in EXACT:
            metrics[name] = counts_seen[0][name]
        elif not name.startswith("trace."):
            metrics[name] = statistics.median(s.get(name, 0.0) for _, s in passes)
    metrics["trace.untraced_s"] = statistics.median(untraced_s)
    metrics["trace.traced_s"] = statistics.median(traced_s)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    detail = {"passes": len(passes), "threads": 1}
    return metrics, detail, passes[-1][0]


# -- provenance ----------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(irreplab_file: str, child_file: str, threads: int) -> dict:
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(index + "/level"), _read(index + "/type")
        caches[f"L{level} {kind}"] = _read(index + "/size")
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {"name": v.get("name"), "version": v.get("version"),
                    "config": v.get("openblas configuration")} for k, v in deps.items()}
    except (TypeError, KeyError):
        blas = None
    return {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                    "cpu_model": model, "caches": caches},
        "software": {"python": platform.python_version(), "numpy": np.__version__,
                     "blas_lapack": blas,
                     "thread_env": {k: os.environ.get(k) for k in (
                         "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
                     "git_commit": git_commit()},
        "irreplab_file": irreplab_file,
        "irreplab_file_in_commands": child_file,
        "threads": threads,
    }


def check_source(env, workdir) -> tuple[str, str]:
    """Import irreplab from this checkout's src/, here and in a child, and
    refuse any other copy (a stale install would be measured instead)."""
    import irreplab

    probe = spawn(["-c", "import irreplab; print(irreplab.__file__)"], env, workdir)
    child_file = probe["stdout"].strip()
    src = os.path.realpath(SRC) + os.sep
    for path in (irreplab.__file__, child_file):
        if not os.path.realpath(path or "").startswith(src):
            raise SystemExit(f"irreplab imported from {path!r}, not from {SRC}")
    return irreplab.__file__, child_file


# -- reporting -----------------------------------------------------------

def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(workload, metrics, detail, tally, trace: bool):
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"workload {workload.name}: {workload.why}"]
    if trace:
        lines.append(f"traced in-process, single-threaded, {detail['passes']} pass pair(s)")
        lines += [f"{name:34s} {_fmt(metrics[name])} {unit}" for name, unit in PER_LAYER]
    else:
        lines.append(f"closed loop, 1 client, {detail['rounds']} timed rounds of "
                     f"{workload.size} {workload.unit}, {detail['commands']} commands; "
                     f"host CPU steal {100 * detail['host_steal_share']:.1f}%")
        lines.append(f"timing metrics over the {detail['quiet_rounds']} rounds with the least "
                     f"steal ({100 * detail['quiet_steal_share']:.1f}%)")
        for name, unit in END_TO_END:
            lines.append(f"{name:34s} {_fmt(metrics[name])} {unit}")
            if name == "throughput_per_s":
                alias = "trials_per_s" if workload.unit == "trials" else "roundtrips_per_s"
                lines.append(f"{alias:34s} {_fmt(metrics[name])} {workload.unit}/s")
            if name == "wall_s_tail":
                lines[-1] += f"  (p{detail['tail_percentile']:.0f} of {detail['quiet_commands']})"
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"{'error_rate':34s} {rate:.6g} ratio  ({tally.failed} failed of {tally.attempted})")
    lines += [f"error: {e}" for e in tally.errors]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; routine {ROUTINE_SEED}, held out {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "irreplab", "__init__.py")):
        print(f"error: no irreplab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    irreplab_file, child_file = check_source(env, workdir)

    tally = Tally()
    reference = workload.reference(args.seed, workload.size) if workload.reference else None
    if workload.name == "gsdist":
        run_command(baseline_command(workdir), env, workdir, tally)
    if args.trace:
        metrics, detail, _ = traced(workload, args.seed, args.seconds, workdir, reference, tally)
        names = PER_LAYER
    else:
        metrics, detail = end_to_end(workload, args.seed, args.seconds, workdir, reference, env, tally)
        names = END_TO_END
    if not workload.threaded:
        threads = None
    else:  # traced runs pass --threads 1; commands take the CLI default
        threads = 1 if args.trace else os.cpu_count() or 1

    for line in report(workload, metrics, detail, tally, bool(args.trace)):
        print(line)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "detail": detail,
        "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "provenance": provenance(irreplab_file, child_file, threads),
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
