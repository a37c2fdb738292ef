"""hermlat benchmark: end-to-end and per-layer metrics of the `hermlat` CLI.

usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                       [--smoke] [--save FILE]

Run it from anywhere inside a checkout that holds `src/hermlat`; nothing is
installed or built.  Every CLI call is a fresh interpreter
(`python3 -m hermlat.cli ...` with `src` on PYTHONPATH), because the
in-process caches of hermlat are what a user pays for on every invocation.

Workloads (a round is one pass over the workload's inputs):
  verify-paper       `verify-paper --max-n 5 --format json`; stdout must equal
                     bench/golden/verify-paper-max-n-5.json byte for byte.
                     The claim list is fixed, so the seed is unused.
  analyze-scrambled  V3 and V4 (the rank-4n transfers of the first-power
                     form) after a seeded random unimodular basis change,
                     each analyzed with all sections; the basis-invariant
                     answers are checked against a fixed table and the
                     minimizers and witness are re-checked in integers.
                     Each round takes a fresh basis change from the seed.
  transfer-large-n   `build --a "x^l + x^-l"` and `transfer` at two moduli
                     in 64..80, l prime to both (all seeded); the
                     determinant must print 1 and the witness w - 2 e_1 is
                     re-checked against the closed forms `witness_norm` and
                     `wa_norm` and with `defect_certificate_check`.

--trace 0 repeats rounds for about --seconds seconds and reports medians
over rounds: wall_s (one round), cpu_s (user + sys of the round's child
processes), peak_rss_mb (largest child of the round) and setup_s (median
of nine set-ups: a cold `import hermlat.cli` plus generating and writing
the inputs).  --trace 1 repeats a plain and a traced round (see
bench/spans.py), alternating which runs first, on the first input set for
about --seconds seconds and reports medians over the traced rounds of
per-layer self times and counts, plus trace_overhead_frac = median traced
wall / median plain wall - 1.

The last line of stdout is the JSON result; the lines before it give the
same figures by name and unit, fail_frac and the machine facts.
--smoke uses the smallest inputs: --max-n 3, V3 only, one modulus near 30.
Exits 2, printing no result, when the checkout has no hermlat sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from math import gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional, TypeVar

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # every run must end well within 180 s
SETUP_REPEATS = 9
T = TypeVar("T")


# -- child processes -----------------------------------------------------------


class Round:
    """One pass over a workload's inputs: child resource use and outcomes."""

    def __init__(self, work: Path, deadline: float, spans_dir: Optional[Path] = None):
        self.work = work
        self.deadline = deadline
        self.spans_dir = spans_dir  # traced CLI calls write their spans here
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.span_files: List[Path] = []
        self.stderr: List[str] = []

    def cli(self, args: List[str]) -> bytes:
        """Run one hermlat CLI command; returns stdout.  Counts as one operation."""
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "hermlat.cli", *args]
        else:
            spans = self.spans_dir / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
        code, out, err, cpu, rss = run_child(argv, self.work, self.deadline - time.monotonic())
        self.cpu += cpu
        self.rss_kb = max(self.rss_kb, rss)
        self.stderr.append(err)
        self.check(code == 0, f"hermlat {' '.join(args)} exited {code}: {err.strip()[-300:]}")
        return out

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: List[str], cwd: Path, timeout: float):
    """Run argv to completion: (exit code, stdout, stderr, cpu s, max rss KB).

    The child is reaped with wait4, so its own rusage is exact; it is killed
    if it outlives the timeout.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read(),
            err.read().decode("utf-8", "replace"),
            ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss,
        )


def startup_seconds(work: Path, deadline: float) -> float:
    """Wall time of a cold interpreter that imports the CLI module."""
    t0 = time.perf_counter()
    code = run_child([sys.executable, "-c", "import hermlat.cli"], work, deadline - time.monotonic())[0]
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError("cannot import hermlat.cli from the checkout")
    return elapsed


# -- workloads -----------------------------------------------------------------


def scramble(G, rng: random.Random):
    """U^T G U for a random unimodular U: one sweep of b_i += +-b_j over every
    basis vector i in random order, with j != i random."""
    from hermlat.lattice import GramMatrix

    r = G.rank
    g = [list(row) for row in G.gram]
    order = list(range(r))
    rng.shuffle(order)
    for i in order:
        j = rng.randrange(r - 1)
        j += j >= i
        q = rng.choice((-1, 1))
        for k in range(r):
            g[i][k] += q * g[j][k]
        for k in range(r):
            g[k][i] += q * g[k][j]
    return GramMatrix(g)


def vn(n: int):
    """The rank-4n transfer of the first-power form (V_n in the paper)."""
    from hermlat.forms import build_form_power, reduce_form, transfer

    return transfer(reduce_form(build_form_power(1), n))


class VerifyPaper:
    name = "verify-paper"
    claim_line = re.compile(r"^# (\S+): [0-9.]+s \[(\S+)\]$", re.M)

    def __init__(self, smoke: bool):
        self.max_n = 3 if smoke else 5

    def make_inputs(self, rng: random.Random, work: Path) -> list:
        golden = (BENCH / "golden" / f"verify-paper-max-n-{self.max_n}.json").read_bytes()
        return [golden]

    def round(self, r: Round, golden: bytes) -> None:
        out = r.cli(["verify-paper", "--max-n", str(self.max_n), "--format", "json"])
        r.check(out == golden, "verify-paper stdout differs from the golden copy")
        want = [(rec["claim_id"], rec["status"]) for rec in json.loads(golden)["records"]]
        got = self.claim_line.findall(r.stderr[-1])
        r.check(got == want, "verify-paper stderr claim list differs from the golden records")

    def lll_grams(self, golden: bytes) -> list:
        return [vn(n) for n in range(1, self.max_n + 1)]


# basis-invariant answers: rank, defect, min_norm, mu, components, identification
ANALYZE_TABLE = {
    3: (12, 1, 4, 24, [["D", 12, 264]], "Gamma12"),
    4: (16, 1, 8, 512, [["D", 8, 112]] * 2, "D8^2[(12)]"),
}


class AnalyzeScrambled:
    name = "analyze-scrambled"
    pool = 6  # input sets per run; round i uses set i mod pool

    def __init__(self, smoke: bool):
        self.moduli = (3,) if smoke else (3, 4)

    def make_inputs(self, rng: random.Random, work: Path) -> list:
        sets = []
        for k in range(self.pool):
            items = []
            for n in self.moduli:
                S = scramble(vn(n), rng)
                path = work / f"V{n}-{k}.json"
                path.write_text(json.dumps(S.to_json_dict()))
                items.append((n, path, S))
            sets.append(items)
        return sets

    def round(self, r: Round, items: list) -> None:
        from hermlat import charvec
        from hermlat.lattice import norm

        for n, path, S in items:
            out = r.cli(["analyze", str(path)])
            try:
                rep = json.loads(out)
            except ValueError:
                r.check(False, f"analyze V{n}: stdout is not JSON")
                continue
            rank, d, min_norm, mu, comps, ident = ANALYZE_TABLE[n]
            roots = rep.get("roots", {})
            got = (
                rep.get("rank"), rep.get("determinant"), rep.get("parity"),
                rep.get("defect"), rep.get("mu", {}).get("mu"),
                sorted(([c["type"], c["rank"], c["roots"]] for c in roots.get("components", [])), reverse=True),
                roots.get("total_roots"), roots.get("spanning_rank"),
                rep.get("identification"), rep.get("standard", {}).get("is_standard"),
            )
            want = (
                rank, 1, "odd", {"defect": d, "min_norm": min_norm}, mu, comps,
                sum(c[2] for c in comps), rank, ident, False,
            )
            r.check(got == want, f"analyze V{n}: {got} != {want}")
            mins = [tuple(v) for v in rep.get("mu", {}).get("minimizers", [])]
            r.check(
                2 * len(set(mins)) == mu
                and all(charvec.is_characteristic(S, v) and norm(S, v) == min_norm for v in mins),
                f"analyze V{n}: minimizers are not characteristic of norm {min_norm}",
            )
            cert = rep.get("standard", {}).get("certificate", {})
            w = cert.get("vector", [])
            r.check(
                cert.get("kind") == "characteristic_witness"
                and cert.get("norm") == min_norm
                and charvec.defect_certificate_check(S, w, d),
                f"analyze V{n}: witness fails defect_certificate_check",
            )

    def lll_grams(self, items: list) -> list:
        return [S for _, _, S in items]


class TransferLargeN:
    name = "transfer-large-n"
    pool = 8

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def make_inputs(self, rng: random.Random, work: Path) -> list:
        from hermlat.charvec import specific_criterion
        from hermlat.ring import parse_laurent

        sets = []
        for k in range(self.pool):
            # l prime to every modulus makes x -> x^l an isometry onto the
            # l = 1 lattice, and moduli symmetric about 72 keep the sum of
            # the determinant costs about the same for every set
            while True:
                if self.smoke:
                    l, moduli = rng.randint(1, 7), (rng.randint(29, 31),)
                else:
                    l, delta = rng.randint(1, 15), rng.randint(1, 8)
                    moduli = (72 - delta, 72 + delta)
                if all(gcd(l, n) == 1 for n in moduli):
                    break
            a = f"x^{l} + x^-{l}"
            holds, m, witness_norm = specific_criterion(parse_laurent(a))
            if not holds or any(n <= 4 * m for n in moduli):
                raise RuntimeError(f"bad transfer input {a} at {moduli}")
            sets.append((a, moduli, witness_norm, work / f"form-{k}.json"))
        return sets

    def round(self, r: Round, item) -> None:
        from hermlat import charvec
        from hermlat.lattice import GramMatrix, norm

        a, moduli, witness_norm, form = item
        out = r.cli(["build", "--a", a, "--out", str(form)])
        r.check(out == b"rank: 4\ndet: 1\nhermitian: true\n", f"build --a {a!r}: {out!r}")
        for n in moduli:
            gram = r.work / f"transfer-{n}.json"
            out = r.cli(["transfer", str(form), "--n", str(n), "--out", str(gram)])
            r.check(out == f"rank: {4 * n}\ndeterminant: 1\n".encode(), f"transfer n={n}: {out!r}")
            try:
                G = GramMatrix.from_json_dict(json.loads(gram.read_text()))
            except (OSError, ValueError) as exc:
                r.check(False, f"transfer n={n}: unreadable Gram file: {exc}")
                continue
            w = charvec.witness_vector(n, (1,))
            nw = norm(G, w)
            r.check(
                nw == witness_norm(n) == charvec.wa_norm(n, (1,)) == 4 * n - 8,
                f"transfer n={n}: witness norm {nw} disagrees with the closed forms",
            )
            r.check(charvec.defect_certificate_check(G, w, 1), f"transfer n={n}: witness certificate fails")

    def lll_grams(self, item) -> list:
        return []  # this workload runs no LLL


WORKLOADS = {w.name: w for w in (VerifyPaper, AnalyzeScrambled, TransferLargeN)}


# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer time metric -> span names whose self time it sums
SELF_TIMES = {
    "lattice.enumerate_coset_s": ["lattice.enumerate_coset"],
    "lattice.enumerate_short_s": ["lattice.enumerate_short"],
    "lattice.determinant_s": ["lattice.determinant"],
    "charvec.min_characteristic_s": ["charvec.min_characteristic"],
    "charvec.is_standard_s": ["charvec.is_standard"],
    "charvec.certificate_s": [
        "charvec.defect_certificate_check",
        "charvec.check_orthonormal_certificate",
        "charvec.is_characteristic",
    ],
    "roots.root_system_s": ["roots.root_system"],
    "roots.identify_s": ["roots.identify"],
    "forms.transfer_s": ["forms.transfer"],
    "forms.build_form_s": ["forms.build_form"],
}
CALLS = {
    "lattice.enumerate_coset_calls": "lattice.enumerate_coset",
    "lattice.enumerate_short_calls": "lattice.enumerate_short",
    "charvec.min_characteristic_calls": "charvec.min_characteristic",
    "roots.root_system_calls": "roots.root_system",
    "roots.fingerprint_calls": "roots.fingerprint",
}


def claim_ids() -> List[str]:
    golden = json.loads((BENCH / "golden" / "verify-paper-max-n-5.json").read_text())
    return [rec["claim_id"] for rec in golden["records"]]


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in CALLS})
    units["lattice.pairs_returned"] = "count"
    units["lattice.lll_s"] = "s"
    units["roots.identify_total_s"] = "s"
    units.update({f"cli.claim_s.{cid}": "s" for cid in claim_ids()})
    units["cli.startup_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


def layer_metrics(spans: Dict[str, dict], lll_s: float, startup_s: float, overhead: float) -> Dict[str, float]:
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "pairs": 0}

    def get(name: str) -> dict:
        return spans.get(name, empty)

    values: Dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        values[metric] = sum(get(n)["self_s"] for n in names)
    for metric, name in CALLS.items():
        values[metric] = get(name)["calls"]
    values["lattice.pairs_returned"] = get("lattice.enumerate_coset")["pairs"] + get("lattice.enumerate_short")["pairs"]
    values["lattice.lll_s"] = lll_s
    values["roots.identify_total_s"] = get("roots.identify")["total_s"]
    for cid in claim_ids():
        values[f"cli.claim_s.{cid}"] = get(f"cli.claim.{cid}")["total_s"]
    values["cli.startup_s"] = startup_s
    values["trace_overhead_frac"] = overhead
    return values


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
    }


# -- driver --------------------------------------------------------------------


def repeat(step: Callable[[], T], seconds: float, deadline: float) -> List[T]:
    """Call step() at least once, and again while the next call is expected
    (at the median duration so far) to end within `seconds`."""
    end = min(time.monotonic() + seconds, deadline)
    results: List[T] = []
    walls: List[float] = []
    while True:
        t0 = time.monotonic()
        results.append(step())
        walls.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(walls) > end:
            return results


def measure(args: argparse.Namespace, work: Path) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workload = WORKLOADS[args.workload](args.smoke)

    startups, setups = [], []
    for rep in range(SETUP_REPEATS):
        gen_dir = work / f"inputs-{rep}"
        gen_dir.mkdir()
        s = startup_seconds(work, deadline)
        t0 = time.perf_counter()
        inputs = workload.make_inputs(random.Random(args.seed), gen_dir)
        setups.append(s + time.perf_counter() - t0)
        startups.append(s)

    def one_round(i: int, spans_dir: Optional[Path] = None) -> Round:
        r = Round(work, deadline, spans_dir)
        t0 = time.perf_counter()
        workload.round(r, inputs[i % len(inputs)])
        r.wall = time.perf_counter() - t0
        return r

    if not args.trace:
        index = itertools.count()  # round i uses input set i mod pool
        rounds = repeat(lambda: one_round(next(index)), args.seconds, deadline)
        metrics = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.rss_kb for r in rounds) / 1024,
        }
        units = END_TO_END_UNITS
    else:
        from hermlat.lattice import lll_reduce

        from spans import Tracer, summarize

        lll_s = 0.0
        for G in workload.lll_grams(inputs[0]):
            t0 = time.perf_counter()
            lll_reduce(G)
            lll_s += time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()  # from here on the benchmark's own checks are spans too

        def traced_round():
            tracer.spans.clear()
            traced = one_round(0, Path(tempfile.mkdtemp(dir=work)))
            children = (json.loads(path.read_text()) for path in traced.span_files)
            return traced, summarize([tracer.spans, *children])

        order = itertools.count()

        def plain_and_traced():
            # alternate which side runs first, so drift in machine speed cancels
            if next(order) % 2:
                traced, spans = traced_round()
                plain = one_round(0)
            else:
                plain = one_round(0)
                traced, spans = traced_round()
            return plain, traced, spans

        pairs = repeat(plain_and_traced, args.seconds, deadline)
        rounds = [r for plain, traced, _ in pairs for r in (plain, traced)]
        overhead = (
            statistics.median(traced.wall for _, traced, _ in pairs)
            / statistics.median(plain.wall for plain, _, _ in pairs)
            - 1
        )
        startup = statistics.median(startups)
        per_pair = [layer_metrics(spans, lll_s, startup, overhead) for _, _, spans in pairs]
        metrics = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
        units = per_layer_units()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "rounds": len(rounds),
        "fail_frac": failed / attempted,  # every round makes at least one CLI call
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description="hermlat benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs")
    p.add_argument("--save", help="append the result and machine facts as a JSON line")
    args = p.parse_args(argv)

    if not (SRC / "hermlat" / "cli.py").is_file():
        print(f"error: no hermlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    machine = machine_facts()
    result = run["result"]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"smoke: {int(args.smoke)}  rounds: {run['rounds']}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {run['fail_frac']:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    if args.save:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "rounds": run["rounds"],
            "fail_frac": run["fail_frac"], "machine": machine, "result": result,
        }
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
