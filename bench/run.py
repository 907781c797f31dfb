"""affinerc benchmark: the six CLI commands on three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/affinerc`` is imported from there.
One process is the only client, a closed loop: each operation is an in-process call
to ``affinerc.cli.main(argv)`` that starts when the previous one has returned, with
BLAS pinned to one thread.  A run repeats rounds -- a fixed, seeded sequence of
operations, each on its own generated instance -- until ``S`` seconds have passed,
then checks every output against ``check.py``.  Latencies are reported at a
reference machine speed, sampled around and during each operation (``speed.py``),
because the shared host's own speed swings by up to 2x.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round also runs a second time under
``tracing.Tracer`` and the metrics are per layer, counted per round.  The line
before it holds the details: environment, per-command latencies, setup samples.
Both are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}
SETUP_SAMPLES = 9  # at least: one probe runs before every round, so they span the run
MIN_ROUNDS = 3  # a slot's median needs three repetitions, even when the machine is slow


def _import_cli():
    """Import affinerc from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import affinerc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "affinerc":
        raise SystemExit(f"error: imported affinerc from {cli.__file__}")
    return cli


def _execute(cli, argv):
    """One timed call of the CLI entry point: (seconds, exit code, stdout, stderr).

    A call that raises instead of returning gets the exit code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a stop
        code = None
        err.write(repr(exc))
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def probe(warmup_file: str) -> int:
    """Child process for ``setup_s``: import, warm up every kind, say "ready".

    The line also carries the speed samples taken meanwhile (see ``speed``)."""
    import speed

    with speed.Speedometer() as meter:
        cli = _import_cli()
        with open(warmup_file, encoding="utf-8") as fh:
            argvs = json.load(fh)
        for argv in argvs:
            _, code, _, err = _execute(cli, argv)
            if code != 0:
                print(f"warm-up {argv[0]} failed: {err}", file=sys.stderr)
                return 1
    print("ready", meter.interrupted, *meter.ticks, flush=True)
    return 0


def measure_setup(warmup_file: Path, meter) -> tuple:
    """Seconds from spawning a fresh interpreter to its first possible timed call.

    Returns them as measured and at the reference speed of ``meter``."""
    before = meter.boundary()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--probe", str(warmup_file)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:  # a hung or interrupted probe: stop it
                proc.kill()
    if proc.returncode != 0 or line[:1] != ["ready"]:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    elapsed -= float(line[1])
    meter.ticks = [float(x) for x in line[2:]]
    return elapsed, elapsed / meter.factor(before, meter.boundary(), elapsed)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _tail(values):
    """Highest percentile with at least 10 samples beyond it, or None below 20."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return {"value_ms": 1e3 * ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n, "beyond": 10}


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def run(args) -> tuple:
    import check  # NumPy users: imported once the BLAS threads are pinned
    import fixtures
    import speed

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        warm = fixtures.make_warmup(args.workload, str(work / "warmup"))
        warm_file = work / "warmup.json"
        warm_file.write_text(json.dumps(warm), encoding="utf-8")

        cli = _import_cli()
        for argv in warm:
            _execute(cli, argv)

        tracer = tracing.Tracer() if args.trace else None
        meter = speed.Speedometer()
        rounds, walls, traced_walls, factors, setup = [], [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            setup.append(measure_setup(warm_file, meter))
            rdir = work / f"r{len(rounds)}"
            ops = fixtures.make_round(args.workload, args.seed, len(rounds), str(rdir / "in"))
            for i in range(len(ops)):
                (rdir / f"o{i}").mkdir()
            gc.collect()
            outcomes, factors_round = [], []
            after = meter.boundary()
            for i, op in enumerate(ops):
                before = after
                with meter:
                    lat, code, stdout, err = _execute(cli, op.args(str(rdir / f"o{i}")))
                after = meter.boundary()
                lat -= meter.interrupted
                outcomes.append((lat, code, stdout, err))
                factors_round.append(meter.factor(before, after, lat))
            walls.append(sum(o[0] for o in outcomes))
            factors.append(factors_round)
            traced = []
            if tracer is not None:
                gc.collect()
                elapsed = 0.0
                with tracer:
                    for i, op in enumerate(ops):
                        out = rdir / f"t{i}"
                        out.mkdir()
                        lat, code, stdout, _ = _execute(cli, op.args(str(out)))
                        elapsed += lat
                        traced.append((code, stdout.replace(str(out), "{out}")))
                traced_walls.append(elapsed)
            rounds.append((rdir, ops, outcomes, traced))
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(warm_file, meter))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        latencies, slots, slot_factors, failures = {}, {}, {}, []
        attempted = bytes_written = 0
        for index, (rdir, ops, outcomes, traced) in enumerate(rounds):
            for i, (op, (lat, code, stdout, err)) in enumerate(zip(ops, outcomes)):
                attempted += 1
                slot_factors.setdefault(op.slot, []).append(factors[index][i])
                lat /= factors[index][i]  # at the reference speed
                latencies.setdefault(op.kind, []).append(lat)
                slots.setdefault(op.slot, []).append(lat)
                try:
                    check.check(op, str(rdir / f"o{i}"), code, stdout)
                except check.CheckFailed as exc:
                    failures.append(f"round {index} op {i} {op.kind} {op.argv[1:]}: {exc}; "
                                    f"stderr: {err.strip()[-300:]}")
                if traced:
                    attempted += 1
                    tdir = rdir / f"t{i}"
                    bytes_written += sum(len(b) for b in _tree(tdir).values())
                    plain = (code, stdout.replace(str(rdir / f"o{i}"), "{out}"))
                    if traced[i] != plain or _tree(tdir) != _tree(rdir / f"o{i}"):
                        failures.append(f"round {index} op {i} {op.kind}: traced outputs "
                                        "differ from the untraced run")
            shutil.rmtree(rdir)

        env["loadavg_1m_end"] = os.getloadavg()[0]
        # each slot's median latency, at the reference speed (see ``speed``)
        typical = [statistics.median(v) for v in slots.values()]
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(rounds), "environment": env,
            "round_wall_raw_s": walls,
            "setup_samples_s": [s[1] for s in setup],
            "setup_samples_raw_s": [s[0] for s in setup],
            "load": "closed loop, 1 client, in-process cli.main calls",
            "commands": {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v),
                             "tail": _tail(v)} for k, v in sorted(latencies.items())},
            "failures": failures[:20],
            "slot_latency_s": [slots[k] for k in sorted(slots)],
            "slot_speed_factor": [slot_factors[k] for k in sorted(slots)],
        }
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(s[1] for s in setup), "s"),
                "wall_s": (sum(typical), "s"),
                "success_rate": ((attempted - len(failures)) / attempted, "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "op_gmean_ms": (1e3 * statistics.geometric_mean(typical), "ms"),
            }
        else:
            metrics = per_layer(tracer, len(rounds), bytes_written,
                                sum(traced_walls) / sum(walls) - 1.0)
            details["traced_round_wall_s"] = traced_walls
            details["layer_share"] = layer_share(metrics)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(str(out / f"spans-{args.workload}-seed{args.seed}.csv"))
        return details, metrics, attempted, len(failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# units and the per-round normalization of the traced metrics
RATIO_SUFFIXES = ("_ratio", ".rows_per_value", ".evals_per_path")


def per_layer(tracer, rounds: int, bytes_written: int, overhead: float) -> dict:
    out = {}
    for name, value in tracing.layer_metrics(tracer).items():
        if name.endswith(RATIO_SUFFIXES):
            out[name] = (value, "ratio")
        else:
            unit = "s" if name.endswith("_s") else "count"
            out[name] = (value / rounds, f"{unit}/round")
    out["cli.bytes_written"] = (bytes_written / rounds, "B/round")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def layer_share(metrics) -> dict:
    total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    return {layer: metrics[f"{layer}.self_s"][0] / total if total else 0.0
            for layer in tracing.LAYERS}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--probe"]:
        return probe(argv[1])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify-compose", "trajectories", "experiments"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "affinerc" / "__init__.py").is_file():
        print(f"error: no affinerc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    details, metrics, attempted, failed = run(args)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"details": details, "result": result}, indent=1),
                            encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)  # before NumPy loads, here and in every probe
    sys.exit(main())
