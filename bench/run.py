"""kwall benchmark: one stdlib harness, three closed-loop workloads, one caller each.

    python3 bench/run.py --workload {gate,sweep,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; kwall is imported from ``src/``.

* ``gate``  back-to-back ``acceptance.run_all()`` passes in one process:
            what every ``kwall verify-all`` pays.  The checklist draws from its
            own fixed seed, so ``--seed`` does not reach it.
* ``sweep`` seeded scenario documents (``sweep.py``) run in-process through
            ``cli.main(["--json", <command>, "--file", path])``; large toric
            polygons and large germ supports, plus about a tenth invalid ones.
* ``cli``   every README command except ``verify-all`` as a fresh
            ``python -m kwall`` process, one at a time, in seeded order.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.  With
``--trace 1`` the same work runs alternately untraced and under ``tracer.py``,
giving per-layer numbers and the tracing overhead.  Every output is checked;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import sweep
from speed import SpeedProbe
from tracer import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 21
INTERP_PROBES = 9
CHILD_TIMEOUT_S = 60
CRITERIA = 11

_now = time.perf_counter

# run in a fresh interpreter: engine modules first, then the fixture registry,
# then the CLI, so one probe yields both the registry's share and the total
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter()\n"
    "import kwall.exact, kwall.git, kwall.toric_kps, kwall.valuations, kwall.volumes, kwall.walls\n"
    "t1 = time.perf_counter(); import kwall.fixtures; t2 = time.perf_counter()\n"
    "import kwall.cli; t3 = time.perf_counter()\n"
    "print(t2 - t1, t3 - t0)\n"
)

# README commands except verify-all, with report fields their output must show
CLI_COMMANDS: tuple[tuple[tuple[str, ...], dict], ...] = (
    (("walls", "quintic"), {"count": "5", "last": "54/95"}),
    (("wall", "--fixture", "a12"), {"wall": "8/15"}),
    (("first-wall", "--degree", "7"), {"first wall": "3/11"}),
    (("volume", "--fixture", "p114-w31"), {"S0": "4/3", "toric cross-check": "identical profile"}),
    (("lct", "--germ", "2,0 0,13"), {"lct": "15/26"}),
    (("lct", "--quasihomog", "2,1,5"), {"lct": "3/5"}),
    (("index-bound", "--degree", "5", "--coeff", "57/100"), {"max Gorenstein index": "5"}),
    (("centroid", "--fixture", "centroid-a10-case1"), {"verdict": "unique-c", "(a, c, b)": "(19/30, 54/95, 31/100)"}),
    (("git", "binary", "--fixture", "quartic-binary-unstable"), {"verdict": "unstable"}),
    (("git", "plane", "--fixture", "q5-double-conic-line"), {"mu": "0"}),
    (("cm", "--n", "2", "--degree", "5", "--coeff", "1/5"), {"cm degree": "12/5"}),
    (("stratum", "--coords", "0,1,0,1"), {"stratum": "Sigma5", "wall": "54/95"}),
    (("stratum", "--fixture", "quintic-strata"), {"#representatives": 8}),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no kwall sources, a probe failed)."""


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(xs) * (100 - p) >= 1000:
            return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, xs: list[float], unit: str, scale: float = 1.0) -> str:
    t = tail(xs)
    tail_txt = f", p{t[0]} {t[1] * scale:.4f}" if t else ", too few samples for a tail with ten beyond it"
    return f"{name:<14} {median(xs) * scale:.4f} {unit} (median of n={len(xs)}{tail_txt})"


def environment() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return (f"environment: nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"python={platform.python_version()} ({platform.python_implementation()})")


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], probe: SpeedProbe) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; its wall time is recorded as a lap of the probe."""
    with probe.paused():
        mark = probe.start()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc, probe.lap(mark)


def import_probe(probe: SpeedProbe) -> tuple[float, float, int]:
    """One fresh-process import: (fixture registry alone, all of kwall.cli) in s,
    and the index of its lap in the probe."""
    proc, _ = run_child([sys.executable, "-c", IMPORT_PROBE], probe)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()}")
    fx, total = map(float, proc.stdout.split())
    return fx, total, len(probe.laps) - 1


def interp_probes(count: int, probe: SpeedProbe) -> list[float]:
    out = []
    for _ in range(count):
        proc, dt = run_child([sys.executable, "-c", "pass"], probe)
        if proc.returncode != 0:
            raise BenchError("python -c pass failed")
        out.append(dt)
    return out


def parse_text_report(text: str) -> dict:
    """Fields of kwall's plain-text report; list fields become lists of rows."""
    report: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            report[current].append(line.strip())
        elif line.endswith(":"):
            current = line[:-1].strip()
            report[current] = []
        else:
            key, _, value = line.partition(": ")
            report[key.strip()] = value
            current = None
    return report


def mismatches(report: dict, expect: dict) -> list[str]:
    """Expected fields the report does not show; ``#field`` compares a list's length."""
    bad = []
    for key, want in expect.items():
        got = len(report.get(key[1:], [])) if key.startswith("#") else report.get(key)
        if got != want:
            bad.append(f"{key}: got {got!r}, want {want!r}")
    return bad


# ---------------------------------------------------------------------------
# one operation of each workload, and the check of its output
# ---------------------------------------------------------------------------

class Outcome:
    """Attempted and failed operations of a run, plus why each failure failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_accepted = 0
        self.rejected = 0
        self.notes: list[str] = []

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_accepted += other.known_accepted
        self.rejected += other.rejected
        self.notes += other.notes[: 10 - len(self.notes)]

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{what}: " + "; ".join(problems))


def gate_pass(outcome: Outcome) -> None:
    from kwall import acceptance

    results = acceptance.run_all()
    problems = [f"criterion {r.cid} failed: {r.detail}" for r in results if not r.passed]
    if len(results) != CRITERIA:
        problems.append(f"{len(results)} criteria ran, expected {CRITERIA}")
    outcome.record(problems, "checklist pass")


def call_main(argv: list[str]) -> tuple[object, str, str]:
    """cli.main in-process with stdout and stderr captured; an escaping
    exception is returned in place of the exit code."""
    from kwall import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            code = exc
    return code, out.getvalue(), err.getvalue()


def check_doc(doc: sweep.Doc, code, out: str, err: str, outcome: Outcome) -> None:
    if isinstance(code, Exception):
        outcome.record([f"traceback {type(code).__name__}: {code}"], doc.kind)
        return
    if doc.invalid is not None:
        if code == 1 and err.startswith("error:") and not out:
            outcome.rejected += 1
            outcome.record([], doc.kind)
        elif code == 0 and doc.invalid in sweep.KNOWN_ACCEPTED:
            outcome.known_accepted += 1
            outcome.record([], doc.kind)
        else:
            outcome.record([f"invalid '{doc.invalid}' document ended with code {code}"], doc.kind)
        return
    if code != 0:
        outcome.record([f"exit code {code}: {err.strip()}"], doc.kind)
        return
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        outcome.record([f"stdout is not a JSON report: {out[:80]!r}"], doc.kind)
        return
    outcome.record(mismatches(report, doc.expect), f"{doc.kind} (size {doc.size})")


def doc_argv(doc: sweep.Doc, path: Path) -> list[str]:
    argv = ["--json", *doc.command]
    if doc.text is not None:
        argv += ["--file", str(path)]
    return argv


def write_pass(docs: list[sweep.Doc], workdir: Path, index: int) -> list[list[str]]:
    argvs = []
    for k, doc in enumerate(docs):
        path = workdir / f"p{index}-{k}.json"
        if doc.text is not None:
            path.write_text(doc.text, encoding="utf-8")
        argvs.append(doc_argv(doc, path))
    return argvs


def check_command(args: tuple[str, ...], expect: dict, code, out: str, err: str, outcome: Outcome) -> None:
    if code == 1:
        outcome.rejected += 1
    problems = [f"exit code {code}: {str(err).strip()[-200:]}"] if code != 0 else mismatches(parse_text_report(out), expect)
    outcome.record(problems, "kwall " + " ".join(args))


def run_cli_command(args: tuple[str, ...], expect: dict, outcome: Outcome, probe: SpeedProbe) -> float:
    proc, dt = run_child([sys.executable, "-m", "kwall", *args], probe)
    check_command(args, expect, proc.returncode, proc.stdout, proc.stderr, outcome)
    return dt


def command_in_process(args: tuple[str, ...], expect: dict, outcome: Outcome) -> None:
    code, out, err = call_main(list(args))
    check_command(args, expect, code, out, err if not isinstance(code, Exception) else repr(code), outcome)


def doc_in_process(doc: sweep.Doc, argv: list[str], outcome: Outcome) -> None:
    code, out, err = call_main(argv)
    check_doc(doc, code, out, err, outcome)


def cli_order(seed: int, rnd: int) -> list[int]:
    order = list(range(len(CLI_COMMANDS)))
    random.Random(f"kwall-cli:{seed}:{rnd}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, workdir: Path, probe: SpeedProbe):
    """Untraced run: (outcome, per-op latencies in raw s, index where each round
    ends, set-up probes as (import s, lap index)).

    A round is a checklist pass, a sweep pass, or one pass over the CLI
    command list.  The set-up probes are taken between operations, evenly over
    the measured time, so that they see the host's drift as the operations do."""
    outcome = Outcome()
    lat: list[float] = []
    rounds: list[int] = []
    setup: list[tuple[float, int]] = []

    def setup_due() -> None:
        while len(setup) < SETUP_PROBES * min(1.0, sum(lat) / seconds):
            _, total, lap = import_probe(probe)
            setup.append((total, lap))

    if workload == "gate":
        # no untimed warm-up: `kwall verify-all` runs one pass in a fresh process,
        # so work a change defers into a first-pass cache must stay in the samples
        while sum(lat) < seconds:
            setup_due()
            mark = probe.start()
            gate_pass(outcome)
            lat.append(probe.lap(mark))
            rounds.append(len(lat))
    elif workload == "sweep":
        while sum(lat) < seconds:
            docs = sweep.generate_pass(seed, len(rounds))
            argvs = write_pass(docs, workdir, len(rounds))
            for doc, argv in zip(docs, argvs):
                setup_due()
                mark = probe.start()
                code, out, err = call_main(argv)
                lat.append(probe.lap(mark))
                check_doc(doc, code, out, err, outcome)
            rounds.append(len(lat))
    else:
        while sum(lat) < seconds:
            for k in cli_order(seed, len(rounds)):
                setup_due()
                lat.append(run_cli_command(*CLI_COMMANDS[k], outcome, probe))
            rounds.append(len(lat))
    setup_due()
    return outcome, lat, rounds, setup


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    """Every time is scaled to reference speed lap by lap (speed.py)."""
    with SpeedProbe() as probe:
        import_probe(probe)  # writes bytecode caches; untimed
        first = len(probe.laps)
        outcome, lat, ends, probes = measure(workload, seed, seconds, workdir, probe)
    factors = probe.factors()
    setup_laps = {lap for _, lap in probes}
    raw_setup, raw_lat = median([x for x, _ in probes]), median(lat)
    setup = [x * factors[lap] for x, lap in probes]
    lat = [x * f for x, f in zip(lat, [f for i, f in enumerate(factors) if i >= first and i not in setup_laps])]
    rounds = [sum(lat[a:b]) for a, b in zip([0] + ends, ends)]
    rss = peak_rss_mb(workload)
    share = (outcome.failed + outcome.known_accepted) / outcome.attempted
    lines = [
        f"times are scaled to reference speed (unscaled medians: set-up {raw_setup:.4f} s,"
        f" operation {raw_lat * 1000:.4f} ms; {len(probe.samples)} speed samples)",
        describe("setup_s", setup, "s"),
    ]
    if workload == "gate":
        lines += [
            describe("gate_pass_s", lat, "s"),
            f"seed {seed} is not used: the checklist draws from acceptance._SEED",
        ]
    elif workload == "sweep":
        lines += [
            f"docs_per_s     {len(lat) / sum(lat):.4f} 1/s ({len(lat)} documents in {len(rounds)} passes;"
            f" per pass {sweep.PASS_MIX} and {sweep.INVALID_PER_CLASS} of each of"
            f" {len(sweep.INVALID_CLASSES)} invalid classes)",
            describe("doc_p50_ms", lat, "ms", 1000),
            f"doc_p90_ms     {statistics.quantiles(lat, n=10)[8] * 1000:.4f} ms (n={len(lat)})",
            f"cli.rejected {outcome.rejected}, cli.invalid_accepted {outcome.known_accepted}"
            f" (the recorded ROADMAP item-1 classes {sorted(sweep.KNOWN_ACCEPTED)})",
        ]
    else:
        lines += [
            describe("cmd_p50_ms", lat, "ms", 1000),
            f"cli_total_s    {median(rounds):.4f} s (median of {len(rounds)} rounds of"
            f" {len(CLI_COMMANDS)} commands)",
        ]
    lines += [
        f"error_share    {share:.4f} ({outcome.failed} failed + {outcome.known_accepted} known-accepted"
        f" invalid, of {outcome.attempted} attempted)",
        f"peak_rss_mb    {rss:.1f} MB",
    ]
    metrics = {
        "op_p50_ms": (median(lat) * 1000, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (median(setup), "s"),
    }
    return outcome, metrics, lines


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def trace_items(workload: str, seed: int, workdir: Path) -> tuple[str, list[tuple[str, Callable]]]:
    """The traced unit as (label, item) pairs; an item does one piece of work
    and checks it."""
    if workload == "gate":
        return "one checklist pass", [("checklist-pass", gate_pass)]
    if workload == "sweep":
        docs = sweep.generate_pass(seed, 0)
        argvs = write_pass(docs, workdir, 0)
        return "sweep pass 0", [(f"doc-{k}", functools.partial(doc_in_process, doc, argv))
                                for k, (doc, argv) in enumerate(zip(docs, argvs))]
    return "the command list, in-process", [
        (f"command-{k}", functools.partial(command_in_process, args, expect))
        for k, (args, expect) in enumerate(CLI_COMMANDS)]


def traced(workload: str, seed: int, seconds: float, workdir: Path):
    """Repeat the traced unit until ``seconds`` are spent.  Each item runs
    untraced and traced back to back (order alternating), so host drift
    cancels out of the overhead.  Counts come from the first repetition and
    must repeat in every later one; times are medians over repetitions."""
    with SpeedProbe() as probe:  # per-layer times are not scaled: only the laps are used
        import_probe(probe)  # writes bytecode caches; untimed
        fixtures_s = [import_probe(probe)[0] for _ in range(SETUP_PROBES)]
        interp = interp_probes(INTERP_PROBES, probe)
    what, items = trace_items(workload, seed, workdir)
    outcome = Outcome()
    for _, item in items:  # warm-up, so that neither side of the first pair runs cold
        item(outcome)
    windows: list[tuple[Tracer, Outcome]] = []
    plain = timed = 0.0
    while plain + timed < seconds or not windows:
        tracer, o = Tracer(), Outcome()
        tracer.keep_spans = not windows  # the first repetition's spans are written out
        for k, (label, item) in enumerate(items):
            for traced_side in (False, True) if (k + len(windows)) % 2 == 0 else (True, False):
                if traced_side:
                    tracer.unit = label
                    with tracer.install():
                        t0 = _now()
                        item(o)
                        timed += _now() - t0
                else:
                    t0 = _now()
                    item(outcome)
                    plain += _now() - t0
        outcome.merge(o)
        windows.append((tracer, o))
    first, first_outcome = windows[0]
    repeat = all(t.calls == first.calls for t, _ in windows)
    if not repeat:
        outcome.record(["per-layer counts differ between traced repetitions"], "trace")

    def per_unit_ms(stat: str, name: str) -> float:
        return median([getattr(t, stat)[name] / 1e6 for t, _ in windows])

    m: dict[str, tuple[float, str]] = {
        "fixtures.import_ms": (median(fixtures_s) * 1000, "ms"),
        "proc.interp_start_ms": (median(interp) * 1000, "ms"),
    }
    for name in SPANS:
        m[f"{name}.calls"] = (first.calls[name], "count")
        m[f"{name}.self_ms"] = (per_unit_ms("self_ns", name), "ms")
    for name in ("fixtures.wall_case", "volumes.volume_two_ray"):
        calls = first.calls[name]
        m[f"{name}.distinct_ratio"] = (len(first.keys[name]) / calls if calls else 0.0, "ratio")
    m["volumes.volume_toric.vertices"] = (first.sizes["volumes.volume_toric"], "count")
    m["valuations.lct_newton.pairs"] = (first.sizes["valuations.lct_newton"], "count")
    m["exact.rat.calls"] = (first.calls["exact.rat"], "count")
    for cid in range(1, CRITERIA + 1):
        m[f"acceptance.criterion_{cid}.ms"] = (per_unit_ms("total_ns", f"acceptance.criterion_{cid}"), "ms")
    m["cli.rejected"] = (first_outcome.rejected, "count")
    m["cli.invalid_accepted"] = (first_outcome.known_accepted, "count")
    reps = len(windows)
    m["trace.untraced_unit_ms"] = (plain / reps * 1000, "ms")
    m["trace.traced_unit_ms"] = (timed / reps * 1000, "ms")
    m["trace.overhead_pct"] = ((timed - plain) / plain * 100, "%")

    spans_file = WORK / f"spans-{workload}-seed{seed}.jsonl"
    with spans_file.open("w", encoding="utf-8") as fh:
        for span in first.spans:
            fh.write(json.dumps(span) + "\n")
    lines = [
        f"traced {reps} repetitions of {what}; per-layer counts"
        f" {'repeat exactly' if repeat else 'DIFFER'} across repetitions",
        f"tracing overhead {m['trace.overhead_pct'][0]:.1f}% ({plain / reps * 1000:.1f} ms untraced,"
        f" {timed / reps * 1000:.1f} ms traced per repetition, each item paired back to back)",
        f"{len(first.spans)} spans of the first traced repetition written to {spans_file.relative_to(ROOT)}",
    ]
    return outcome, m, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_kwall() -> None:
    if not (SRC / "kwall" / "__init__.py").is_file():
        raise BenchError(f"no kwall sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kwall.cli  # noqa: F401  -- builds the fixture registry

    if Path(kwall.cli.__file__).resolve().parent != SRC / "kwall":
        raise BenchError(f"imported kwall from {kwall.cli.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("gate", "sweep", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_kwall()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = traced if args.trace else end_to_end
        outcome, metrics, lines = run(args.workload, args.seed, args.seconds, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(environment())
    print(f"workload {args.workload}: closed loop, one caller, seed {args.seed},"
          f" {args.seconds:g} s measured, tracing {'on' if args.trace else 'off'}")
    for line in lines:
        print("  " + line)
    for note in outcome.notes:
        print("  FAILED " + note)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
