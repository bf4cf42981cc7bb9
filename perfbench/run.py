"""gtmarl benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a seeded batch of `gtmarl` commands, run in-process through
`gtmarl.cli.main`, one after another, each into its own directory under
`.perfbench_out/work`. The first pass checks every output (see checks.py);
timed passes then repeat the batch for S seconds and must reproduce the
first pass's output digests byte for byte. End-to-end metrics come from the
untraced passes. With `--trace 1` traced and untraced passes alternate and
the per-layer metrics come from the traced ones.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller report (environment, host-speed probes, per-pass figures, digests,
failures) goes to `.perfbench_out/report-*.json`, spans to `spans-*.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.env import OUT, ROOT, MissingProgram, environment, host_speed_probe, import_gtmarl  # noqa: E402
from perfbench.workloads import LEARN, SHORT, WORKLOADS, generate  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "learn_steps_per_s": "1/s",
    "short_cmd_ms_p50": "ms",
    "short_cmd_ms_p95": "ms",
}
SETUP_PROBES = 5
MIN_PASSES = 2        # timed passes of each kind (untraced, traced)
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)    # manifest `outputs` per command
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.outputs, sort_keys=True).encode()).hexdigest()

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


class Runner:
    """Runs the batch in a closed loop: the next command starts only when
    the previous one has returned. Only `cli.main` is timed.

    Every pass writes into empty directories, as a fresh experiment would.
    Rewriting the previous pass's files instead makes ext4 flush each
    truncated file on close, which adds disk latency to every command."""

    def __init__(self, cli, checks, commands, workdir: Path):
        self.cli = cli
        self.checks = checks
        self.commands = commands
        self.workdir = workdir
        self.dirs = [workdir / f"{i:04d}" for i in range(len(commands))]
        self.argvs = [list(c.argv) + ["--out", str(d)] for c, d in zip(commands, self.dirs)]

    def run_pass(self, check: bool = False, tracer=None) -> Pass:
        shutil.rmtree(self.workdir, ignore_errors=True)
        for d in self.dirs:
            d.mkdir(parents=True)
        result = Pass()
        with open(os.devnull, "w") as sink:
            for i, (cmd, argv, out) in enumerate(zip(self.commands, self.argvs, self.dirs)):
                err = io.StringIO()
                if tracer is not None:
                    tracer.command = i
                start = perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                        rc = self.cli.main(argv)
                except Exception:
                    rc = None
                    err.write(traceback.format_exc())
                result.latencies.append(perf_counter() - start)
                if tracer is not None:
                    tracer.command = -1
                stem = cmd.method.replace("-", "_")
                try:
                    result.outputs.append(self.checks.manifest_outputs(out, stem) if rc == 0 else None)
                except (OSError, ValueError, KeyError) as exc:
                    rc = f"unreadable manifest: {exc}"
                    result.outputs.append(None)
                if rc != 0:
                    result.failures.append(f"{' '.join(cmd.argv)}: exit {rc}: {err.getvalue().strip()}")
                elif check:
                    try:
                        problems = self.checks.check(cmd, out)
                    except Exception:
                        problems = [traceback.format_exc()]
                    if problems:
                        result.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        if tracer is not None:
            result.spans = tracer.take()
        return result


def setup_probe(workload: str, seed: int) -> float:
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), workload, str(seed)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return elapsed


def end_to_end(commands, untraced: list[Pass], setup: list[float]) -> dict:
    """The host alternates between fast and slow phases that last several
    passes, so a statistic that picks one sample (a per-pass median, the
    median latency) flips between the two. Times here average over passes
    instead: `wall_s` and `learn_steps_per_s` are totals over all untraced
    passes, and `short_cmd_ms_p50` is the median over short commands of each
    command's mean latency. `short_cmd_ms_p95` pools every latency sample;
    its tail holds both phases in every run."""
    learn = [i for i, c in enumerate(commands) if c.role == LEARN]
    short = [i for i, c in enumerate(commands) if c.role == SHORT]
    learn_steps = len(untraced) * sum(commands[i].steps for i in learn)
    per_command = [1e3 * statistics.fmean(p.latencies[i] for p in untraced) for i in short]
    pooled = [1e3 * p.latencies[i] for p in untraced for i in short]
    return {
        "wall_s": statistics.fmean(p.wall_s for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "learn_steps_per_s": learn_steps / sum(p.latencies[i] for p in untraced for i in learn),
        "short_cmd_ms_p50": statistics.median(per_command),
        "short_cmd_ms_p95": statistics.quantiles(pooled, n=100, method="inclusive")[94],
    }


def _ledger_check(workload: str, seed: int, commands, digest: str) -> str | None:
    """Compare this run's output digest with earlier runs of the same batch."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    batch = hashlib.sha256(json.dumps([c.argv for c in commands]).encode()).hexdigest()
    key = f"{workload} seed {seed} batch {batch[:16]}"
    earlier = ledger.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    if earlier != digest:
        return f"output digest {digest} differs from an earlier run's {earlier}"
    return None


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    import_gtmarl()
    import gtmarl.cli as cli

    from perfbench import checks, trace

    env = environment()
    commands = generate(workload, seed)
    runner = Runner(cli, checks, commands, OUT / "work" / workload)
    tracer = trace.Tracer() if traced else None

    # Only the first pass is checked: later passes must reproduce its bytes.
    first = runner.run_pass(check=True)
    failures = list(first.failures)
    accuracy = {"learners.minimax_q.sup_err": 0.0, "learners.regret.ce_violation": 0.0}
    if not first.failures:
        for cmd, out in zip(commands, runner.dirs):
            found = checks.accuracy(cmd, out)
            if found is not None:
                accuracy[found[0]] = max(accuracy[found[0]], found[1])
    output_bytes = sum((out / name).stat().st_size
                       for out in runner.dirs for name in os.listdir(out))

    untraced, traced_passes, setup, host = [], [], [], []
    started = perf_counter()
    while (perf_counter() - started < seconds or len(untraced) < MIN_PASSES
           or (traced and len(traced_passes) < MIN_PASSES)):
        host.append(host_speed_probe())
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload, seed))
        if traced and len(traced_passes) <= len(untraced):
            tracer.install()
            try:
                p = runner.run_pass(tracer=tracer)
            finally:
                tracer.uninstall()
            traced_passes.append(p)
        else:
            p = runner.run_pass()
            untraced.append(p)
        failures += p.failures
        if not p.failures and p.digest != first.digest:
            failures.append(f"pass {len(untraced) + len(traced_passes)} "
                            f"({'traced' if p.spans else 'untraced'}) changed the output bytes")
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    ledger_problem = _ledger_check(workload, seed, commands, first.digest) if not first.failures else None
    if ledger_problem:
        failures.append(ledger_problem)

    if traced:
        per_pass, counts = [], []
        for p in traced_passes:
            layer, calls = trace.layer_metrics(tracer.names, p.spans, commands, output_bytes)
            per_pass.append(layer)
            counts.append(calls)
        if any(c != counts[0] for c in counts):
            failures.append("traced passes made different call counts")
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced_passes)
            / statistics.median(p.wall_s for p in untraced) - 1.0)
        metrics.update(accuracy)
        units = trace.PER_LAYER
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "span": ["name", "start", "end", "parent", "command"],
            "names": tracer.names,
            "commands": [list(c.argv) for c in commands],
            "passes": [p.spans for p in traced_passes],
        }) + "\n")
    else:
        metrics = end_to_end(commands, untraced, setup)
        units = END_TO_END

    attempted = len(commands) * (1 + len(untraced) + len(traced_passes))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "loop": "closed, one client, in-process through gtmarl.cli.main",
        "environment": env,
        "host_speed_probe_s": host,
        "commands_per_pass": len(commands),
        "short_samples_per_pass": sum(c.role == SHORT for c in commands),
        "untraced_pass_wall_s": [p.wall_s for p in untraced],
        "untraced_latencies_s": [p.latencies for p in untraced],
        "traced_pass_wall_s": [p.wall_s for p in traced_passes],
        "setup_probe_s": setup,
        "output_digest": first.digest,
        "output_bytes_per_pass": output_bytes,
        "accuracy": accuracy,
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        "result": result,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(report['untraced_pass_wall_s'])} untraced + {len(report['traced_pass_wall_s'])} "
          f"traced passes of {report['commands_per_pass']} commands "
          f"({report['short_samples_per_pass']} short-command samples per pass)")
    print(f"host: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"load {env['loadavg_start']}, speed probe median "
          f"{statistics.median(report['host_speed_probe_s']) * 1e3:.1f} ms")
    print(f"error_rate {report['error_rate']:.4g}; output digest {report['output_digest']}; "
          f"report {path.relative_to(ROOT)}")
    for line in report["failures"][:5]:
        print(f"FAILED: {line[:400]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
