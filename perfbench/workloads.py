"""The four benchmark workloads.

Each workload draws its inputs from the seed, runs closed-loop rounds (one
pass over its mix, each call starting when the previous one returns) and
checks every output. A call is ``ok``, ``failed`` (it raised; the known
CLI defects do this today) or ``wrong`` (an output disagrees with its
oracle, or an input that should work raised): ``failed`` and ``wrong``
both count as failed operations, and ``wrong`` makes the run incorrect.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

from spans import null_span

volume = importlib.import_module("ghzpolytope.volume")
states = importlib.import_module("ghzpolytope.states")
classify_mod = importlib.import_module("ghzpolytope.classify")
mermin = importlib.import_module("ghzpolytope.mermin")
cli = importlib.import_module("ghzpolytope.cli")

OK, FAILED, WRONG = "ok", "failed", "wrong"
EPS_CLASS = classify_mod.EPS_CLASS


@dataclass
class Call:
    kind: str
    seconds: float
    status: str
    detail: str = ""


class Tally:
    """Outcomes of a run's calls. Times go to flat arrays so the record does
    not fill the heap with objects the garbage collector must walk.

    ``add`` takes the reference time measured right after the round (see
    ``run.reference_seconds``); call times divided by it are in ``ref``
    units, which the host's speed of the moment moves much less."""

    def __init__(self):
        self.times = defaultdict(lambda: array("d"))  # call kind -> seconds
        self.round_rates = array("d")  # calls per second of call time, one per round
        self.round_ref_rates = array("d")  # calls per reference time, one per round
        self.round_p50_refs = array("d")  # median call time / reference time, one per round
        self.references = array("d")  # reference seconds, one per round
        self.status = Counter()
        self.problems = []

    def add(self, calls, reference=None):
        seconds = sum(call.seconds for call in calls)
        self.round_rates.append(len(calls) / seconds)
        if reference is not None:
            self.references.append(reference)
            self.round_ref_rates.append(len(calls) * reference / seconds)
            self.round_p50_refs.append(
                statistics.median(call.seconds for call in calls) / reference)
        for call in calls:
            self.times[call.kind].append(call.seconds)
            self.status[call.status] += 1
            if call.status == WRONG and len(self.problems) < 5:
                self.problems.append(call.detail)

    def all_times(self):
        return [t for times in self.times.values() for t in times]

    def rate(self):
        """Median over rounds of calls per second, so a burst of host load in
        a few rounds does not move it."""
        return statistics.median(self.round_rates)

    def rate_per_ref(self):
        """Median over rounds of calls per reference time."""
        return statistics.median(self.round_ref_rates)

    def p50_ref(self):
        """Median over rounds of the round's median call time in ``ref``
        units. Over a whole run, the median of a mix with as many fast as
        slow calls (mc_regions: n = 3 and n = 4) would be set by the slowest
        fast call and the fastest slow one."""
        return statistics.median(self.round_p50_refs)


def round_rng(seed, k):
    """Deterministic stream for round ``k`` of the run with this seed."""
    return random.Random(f"{seed}/{k}")


def tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = min(99, math.floor(100 * (1 - 10 / n))) if n >= 20 else 50
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    return pct, value, sum(v > value for v in ordered)


def mc_agrees(estimate, exact, samples):
    """MC estimate within 5 sigma(exact, N) + 1/N of the closed form."""
    sigma = math.sqrt(exact * (1.0 - exact) / samples)
    return abs(estimate - exact) <= 5.0 * sigma + 1.0 / samples


# The oracles below are written apart from the package code they check.
def mermin_bound(n):
    return 2.0 ** (n / 2) if n % 2 == 0 else 2.0 ** ((n - 1) / 2)


def oracle_genuine(p):
    return float(p.max()) > 0.5 + EPS_CLASS


def oracle_violates(n, p):
    """Mermin violation from expectation vs LHV bound; None on the boundary."""
    gap = 2.0 ** (n - 1) * float(p[0] - p[-1]) - mermin_bound(n)
    return None if abs(gap) <= 1e-9 * 2.0 ** (n - 1) else gap > 0


class Workload:
    name = ""
    first_call = ""  # source the set-up interpreters run after `import ghzpolytope`
    # shape of the reference task run after each round (``run.reference_seconds``):
    # rows of the 64-column block, and threads that each draw one block
    reference_rows = 1 << 14
    reference_threads = 1

    def __init__(self, seed):
        self.seed = seed

    def pre_checks(self):
        """Checks outside the timed loop; returns one message per failure."""
        return []

    def round(self, k, span):
        raise NotImplementedError

    def metrics(self, tally):
        """The workload's own metrics, printed beside the gated ones: name -> (value, unit)."""
        raise NotImplementedError

    def counts(self):
        return {}


class McWorkload(Workload):
    samples = 1 << 20
    configs: tuple = ()
    threads = 1

    def seeds(self, k):
        rng = round_rng(self.seed, k)
        return [rng.getrandbits(32) for _ in self.configs]

    def pre_checks(self):
        """Identical hits for threads 1 and 2, and for both kernel backends when
        the compiled one is built, on a short run of the first round's seeds."""
        problems = []
        short = 2 * volume.DEFAULT_CHUNK + 4321  # three chunks, the last one partial
        python_kernel = importlib.import_module("ghzpolytope._mc_kernel_py")
        for (family, n), seed in zip(self.configs, self.seeds(0)):
            one = volume.mc_relative_volume(family, n, short, seed=seed, threads=1)
            two = volume.mc_relative_volume(family, n, short, seed=seed, threads=2)
            if one.mc_estimate != two.mc_estimate:
                problems.append(f"{family} n={n}: threads 1 and 2 disagree")
            if volume.KERNEL_BACKEND != python_kernel.BACKEND:
                ref = volume.mc_relative_volume(family, n, short, seed=seed, kernel=python_kernel)
                if ref.mc_estimate != one.mc_estimate:
                    problems.append(f"{family} n={n}: compiled and NumPy kernels disagree")
        return problems

    def round(self, k, span):
        calls = []
        for (family, n), seed in zip(self.configs, self.seeds(k)):
            kind = f"{family}.n{n}"
            start = perf_counter()
            try:
                rep = volume.mc_relative_volume(
                    family, n, self.samples, seed=seed, threads=self.threads)
            except Exception as exc:
                calls.append(Call(kind, perf_counter() - start, WRONG, repr(exc)))
                continue
            elapsed = perf_counter() - start
            good = mc_agrees(rep.mc_estimate, volume.rel_vol_exact(family, n), self.samples)
            calls.append(Call(kind, elapsed, OK if good else WRONG,
                              "" if good else f"estimate {rep.mc_estimate} seed {seed}"))
        return calls

    def metrics(self, tally):
        times = tally.all_times()
        return {
            "samples_per_s": (tally.rate() * self.samples, "samples/s"),
            "estimate_s_p50": (statistics.median(times), "s"),
        }

    def counts(self):
        return {"samples_per_estimate": self.samples, "estimates_per_round": len(self.configs),
                "threads": self.threads}


class McRegions(McWorkload):
    name = "mc_regions"
    configs = tuple((f, n) for n in (3, 4) for f in ("genuine", "bisep_minus_fbi", "fbi"))
    threads = 1
    first_call = ("from ghzpolytope import volume; "
                  "volume.mc_relative_volume('fbi', 3, 10000, seed=1, threads=1)")


class McWide(McWorkload):
    name = "mc_wide"
    configs = tuple((f, 6) for f in ("genuine", "bisep_minus_fbi", "fbi", "mermin"))
    threads = 2
    first_call = ("from ghzpolytope import volume; "
                  "volume.mc_relative_volume('mermin', 6, 10000, seed=1, threads=2)")
    # its own 32 MB chunks on its two threads: an 8 MB block on one thread
    # tracked this workload's speed less closely than the host's
    reference_rows = 1 << 16
    reference_threads = 2


class ClassifyStates(Workload):
    """GhzDiagonalState + classify + violates_mermin over a fixed pool of states.

    Per n = 2..8: Dirichlet draws at concentration 2/d (about half genuine),
    1 (mostly biseparable, not FBI) and 20 (FBI), plus vertices, edge
    midpoints, diagonal midpoints, cube vertices and Mermin-hyperplane
    points, which put states on the region and Mermin boundaries.
    """

    name = "classify_states"
    first_call = (
        "import numpy as np; from ghzpolytope import GhzDiagonalState, classify, violates_mermin; "
        "s = GhzDiagonalState(3, np.full(8, 0.125)); classify(s); violates_mermin(s)"
    )
    per_concentration = 30

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.pool = []  # (n, p, genuine by oracle, Mermin violation by oracle or None)
        for n in range(2, 9):
            d = 1 << n
            vectors = [rng.dirichlet(np.full(d, alpha))
                       for alpha in (2.0 / d, 1.0, 20.0) for _ in range(self.per_concentration)]
            for i in rng.choice(d, 2, replace=False):
                vectors.append(np.eye(d)[i])
            for _ in range(3):
                i, j = rng.choice(d, 2, replace=False)
                vectors.append(0.5 * (np.eye(d)[i] + np.eye(d)[j]))
            for i in rng.choice(d // 2, 2, replace=False):
                vectors.append(0.5 * (np.eye(d)[i] + np.eye(d)[d - 1 - i]))
            for _ in range(2):
                flips = rng.integers(0, 2, d // 2).astype(bool)
                sigma = np.where(flips, d - 1 - np.arange(d // 2), np.arange(d // 2))
                p = np.zeros(d)
                p[sigma] = 2.0 / d
                vectors.append(p)
            if n >= 3:
                nu = 2.0 ** (1 - n / 2) if n % 2 == 0 else 2.0 ** ((1 - n) / 2)
                for i in rng.choice(np.arange(1, d - 1), 2, replace=False):
                    p = np.zeros(d)
                    p[0], p[i] = nu, 1.0 - nu
                    vectors.append(p)
            for p in vectors:
                q = np.clip(p, 0.0, None) / p.sum()
                self.pool.append((n, p, oracle_genuine(q), oracle_violates(n, q)))
        self.regions = {}
        self.boundary = 0
        self.violating = 0

    def pre_checks(self):
        """FBI by classify agrees with the all-bipartitions PPT oracle (n <= 5)."""
        problems = []
        for n, p, _, _ in self.pool:
            if n > 5:
                continue
            state = states.GhzDiagonalState(n, p)
            if classify_mod.classify(state).is_fully_biseparable != \
                    classify_mod.is_ppt_all_bipartitions(state):
                problems.append(f"n={n}: classify and the PPT oracle disagree on {p.tolist()}")
        return problems

    def round(self, k, span):
        calls = []
        regions, boundary, violating = {}, 0, 0
        for n, p, genuine, violates in self.pool:
            start = perf_counter()
            state = states.GhzDiagonalState(n, p)
            result = classify_mod.classify(state)
            viol, _ = mermin.violates_mermin(state)
            elapsed = perf_counter() - start
            good = (result.region == "genuine") == genuine and violates in (None, viol)
            calls.append(Call(f"n{n}", elapsed, OK if good else WRONG,
                              "" if good else f"n={n} region {result.region} p={p.tolist()}"))
            regions[result.region] = regions.get(result.region, 0) + 1
            boundary += result.boundary
            violating += viol
        self.regions, self.boundary, self.violating = regions, boundary, violating
        return calls

    def metrics(self, tally):
        times = tally.all_times()
        pct, value, beyond = tail(times)
        return {
            "states_per_s": (tally.rate(), "states/s"),
            "classify_us_p50": (1e6 * statistics.median(times), "us"),
            f"classify_us_p{pct}": (1e6 * value, "us"),
            "classify_samples": (len(times), "count"),
            f"classify_samples_beyond_p{pct}": (beyond, "count"),
        }

    def counts(self):
        total = len(self.pool)
        out = {"states_per_round": total}
        for region in ("genuine", "bisep_not_fbi", "fully_biseparable"):
            out[f"region_share.{region}"] = self.regions.get(region, 0) / total
        out["boundary_share"] = self.boundary / total
        out["mermin_violating_share"] = self.violating / total
        return out


def _p_string(p):
    return ",".join(format(float(x), ".17g") for x in p)


def _json_result(stdout):
    return json.loads(stdout)["result"]


def expect_error(codes):
    def check(rc, stdout, stderr):
        lines = stderr.splitlines()
        if rc in codes and stdout == "" and len(lines) == 1 and lines[0].startswith("error: "):
            return None
        return f"exit {rc}, expected {codes} with one error line; stderr {stderr!r}"
    return check


def expect_ok(verify):
    def check(rc, stdout, stderr):
        if rc != 0 or stderr:
            return f"exit {rc}, stderr {stderr!r}"
        return verify(stdout)
    return check


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: object  # (exit code, stdout, stderr) -> None when correct, else a message
    known_defect: bool = False

    @property
    def subcommand(self):
        return self.argv[0]

    @property
    def kind(self):
        if self.known_defect:
            return "known_defect"
        return "malformed" if self.argv in MALFORMED_ARGV else self.subcommand


# Inputs the CLI should reject with exit 2 (invalid) or 3 (unsupported size)
MALFORMED = [
    (("classify", "--n", "3", "--p", _p_string(np.full(7, 1 / 7))), (2,)),
    (("classify", "--n", "2", "--p", "0.5,abc,0.25,0.25"), (2,)),
    (("classify", "--n", "2", "--p", "0.9,0.9,0.1,0.1"), (2,)),
    (("volume", "--n", "7", "--family", "fbi", "--mc", "--samples", "10000"), (3,)),
    (("report", "--n-min", "2", "--n-max", "21"), (3,)),
    (("certify", "--n", "3"), (2,)),
    (("certify", "--n", "3", "--pair", "010,010"), (2,)),
    (("extremes", "--family", "fbi", "--n", "17", "--limit", "1"), (3,)),
]

MALFORMED_ARGV = {argv for argv, _ in MALFORMED}

# Inputs that raise out of cli.main today instead of exiting 2 or 3. They stay
# in every round and count as failed; once fixed they must exit 2 or 3.
# (`extremes --family fbi --n 16` without --limit is left out: it never returns.)
KNOWN_DEFECTS = [
    ("classify", "--n", "2", "--p", "nan,0.5,0.25,0.25"),
    ("certify", "--n", "3", "--sigma", "000,001,010,011", "--bipartition", "1,x"),
    ("report", "--n-min", "14", "--n-max", "15"),
]


def _closed_form(family, n):
    d = 1 << n
    if family == "genuine":
        return float(Fraction(d, 2 ** (d - 1)))
    if family == "fbi":
        h = d // 2
        return float(Fraction(math.factorial(h), h ** h))
    nu = Fraction(2) ** (1 - n // 2) if n % 2 == 0 else Fraction(2) ** ((1 - n) // 2)
    return float((1 - nu) ** (d - 1) / 2)


class CliReport(Workload):
    """In-process ``cli.main(argv, out=buffer)`` over a fixed mix per round."""

    name = "cli_report"
    first_call = ("import io; from ghzpolytope import cli; "
                  "cli.main(['volume', '--n', '3', '--family', 'fbi'], out=io.StringIO())")
    malformed_per_round = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.report_bytes = None
        self.bytes_by_subcommand = {}
        rng = round_rng(seed, "mix")
        self.base_mix = self._base_mix(rng)
        self.malformed = rng.sample(MALFORMED, self.malformed_per_round)

    def mix(self, k):
        """The same calls every round, so per-round counts repeat exactly: the
        well-formed mix, two malformed inputs drawn from the seed (all of them
        in the untimed round -1) and the known defects."""
        mix = list(self.base_mix)
        mix.extend(Invocation(argv, expect_error(codes))
                   for argv, codes in (MALFORMED if k < 0 else self.malformed))
        mix.extend(Invocation(argv, expect_error((2, 3)), known_defect=True)
                   for argv in KNOWN_DEFECTS)
        return mix

    def _base_mix(self, rng):
        nprng = np.random.default_rng(rng.getrandbits(63))
        mix = [
            Invocation(("report", "--n-min", "2", "--n-max", "6", "--mc",
                        "--seed", str(rng.getrandbits(31))), expect_ok(self._check_report)),
            Invocation(("facets", "--family", "fbi", "--n", "6"),
                       expect_ok(self._check_listing("facets", 64 * 64 // 2))),
            Invocation(("extremes", "--family", "fbi", "--n", "4"),
                       expect_ok(self._check_listing("vertices", 8 + 2 ** 8))),
        ]
        for n in (3, 4):
            d = 1 << n
            i, j = (int(x) for x in nprng.choice(d, 2, replace=False))
            mix.append(Invocation(
                ("certify", "--n", str(n), "--pair", f"{i:0{n}b},{j:0{n}b}"),
                expect_ok(self._check_pair(d, i, j))))
            sigma = [d - 1 - i if nprng.integers(2) else i for i in range(d // 2)]
            side = [str(pos) for pos in range(1, n + 1) if pos == 1 or nprng.integers(2)]
            if len(side) == n:
                side.pop()
            mix.append(Invocation(
                ("certify", "--n", str(n), "--sigma", ",".join(f"{s:0{n}b}" for s in sigma),
                 "--bipartition", ",".join(side)),
                expect_ok(self._check_cube(d))))
        for n in (2, 3, 4, 4):
            d = 1 << n
            p = nprng.dirichlet(np.full(d, float(nprng.choice([0.3, 1.0, 10.0]))))
            text = _p_string(p)
            q = np.array([float(x) for x in text.split(",")])
            q = q / q.sum()
            mix.append(Invocation(("classify", "--n", str(n), "--p", text),
                                  expect_ok(self._check_classify(q))))
            p[0] += nprng.uniform(0.0, 2.0)  # push some states over the Mermin threshold
            p /= p.sum()
            text = _p_string(p)
            q = np.array([float(x) for x in text.split(",")])
            mix.append(Invocation(("mermin", "--n", str(n), "--p", text),
                                  expect_ok(self._check_mermin(n, q / q.sum()))))
        for _ in range(2):
            family = rng.choice(["genuine", "fbi", "mermin"])
            n = rng.randint(3, 6)
            mix.append(Invocation(("volume", "--n", str(n), "--family", family),
                                  expect_ok(self._check_volume(family, n, None))))
        mix.append(Invocation(
            ("volume", "--n", "3", "--family", "genuine", "--mc", "--samples", "20000",
             "--seed", str(rng.getrandbits(31))),
            expect_ok(self._check_volume("genuine", 3, 20000))))
        return mix

    def _check_report(self, stdout):
        if self.report_bytes is None:
            self.report_bytes = stdout
        elif stdout != self.report_bytes:
            return "report bytes differ between passes with the same seed"
        lines = stdout.splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        if [int(r["n"]) for r in rows] != [2, 3, 4, 5, 6]:
            return "report rows are not n = 2..6"
        for row in rows:
            for family in volume.MC_FAMILIES:
                n = int(row["n"])
                exact = float(row[f"rel_{family}"])
                if family != "bisep_minus_fbi" and not math.isclose(
                        exact, _closed_form(family, n), rel_tol=1e-15, abs_tol=0.0):
                    return f"rel_{family} at n={n} is {exact}"
                if not mc_agrees(float(row[f"mc_{family}"]), exact,
                                 int(row[f"mc_{family}_samples"])):
                    return f"mc_{family} at n={n} is off the closed form"
        return None

    @staticmethod
    def _check_listing(key, count):
        def verify(stdout):
            payload = json.loads(stdout)
            if payload["count"] != count or len(payload[key]) != count:
                return f"{key}: count {payload['count']}, listed {len(payload[key])}"
            return None
        return verify

    @staticmethod
    def _check_pair(d, i, j):
        def verify(stdout):
            result = _json_result(stdout)
            p = result["p"]
            if result["kind"] not in ("midpoint", "diagonal") or p[i] != 0.5 or p[j] != 0.5:
                return f"certificate for ({i}, {j}) is {result['kind']} at {p}"
            return None
        return verify

    @staticmethod
    def _check_cube(d):
        def verify(stdout):
            result = _json_result(stdout)
            if result["kind"] != "cube-vertex" or len(result["components"]) != d // 4:
                return f"cube certificate has {len(result.get('components', ()))} components"
            return None
        return verify

    @staticmethod
    def _check_classify(q):
        def verify(stdout):
            region = _json_result(stdout)["region"]
            if (region == "genuine") != oracle_genuine(q):
                return f"region {region} for max p {q.max()}"
            return None
        return verify

    @staticmethod
    def _check_mermin(n, q):
        def verify(stdout):
            result = _json_result(stdout)
            expected = oracle_violates(n, q)
            if result["bound"] != mermin_bound(n) or expected not in (None, result["violates"]):
                return f"mermin n={n}: {result}"
            return None
        return verify

    @staticmethod
    def _check_volume(family, n, samples):
        def verify(stdout):
            result = _json_result(stdout)
            exact = _closed_form(family, n)
            if not math.isclose(result["exact"], exact, rel_tol=1e-15, abs_tol=0.0):
                return f"{family} n={n}: exact {result['exact']} != {exact}"
            if samples and not mc_agrees(result["mc_estimate"], exact, samples):
                return f"{family} n={n}: estimate {result['mc_estimate']}"
            return None
        return verify

    def pre_checks(self):
        # an untimed round: fills lazy state and records the report bytes
        tally = Tally()
        tally.add(self.round(-1, null_span))
        return tally.problems

    def round(self, k, span):
        calls, written = [], defaultdict(list)
        for inv in self.mix(k):
            out, err = io.StringIO(), io.StringIO()
            with span("cli.main", subcommand=inv.subcommand) as attrs:
                start = perf_counter()
                try:
                    with redirect_stderr(err):
                        rc = cli.main(list(inv.argv), out=out)
                    raised = None
                except (Exception, SystemExit) as exc:  # a traceback escaping the CLI
                    rc, raised = None, exc
                elapsed = perf_counter() - start
                attrs["bytes"] = len(out.getvalue().encode()) if rc == 0 else 0
            if raised is not None:
                status = FAILED if inv.known_defect else WRONG
                detail = f"{' '.join(inv.argv)}: {raised!r}"
            else:
                detail = inv.check(rc, out.getvalue(), err.getvalue())
                status = OK if detail is None else WRONG
            if rc == 0:
                written[inv.subcommand].append(attrs["bytes"])
            calls.append(Call(inv.kind, elapsed, status, detail or ""))
        self.bytes_by_subcommand = {sub: statistics.mean(n) for sub, n in written.items()}
        return calls

    def metrics(self, tally):
        report = tally.times["report"]  # the well-formed `report --mc`
        return {"report_mc_ms": (1e3 * statistics.median(report), "ms")}

    def counts(self):
        out = {f"output_bytes_per_call.{sub}": n
               for sub, n in sorted(self.bytes_by_subcommand.items())}
        out["known_defect_share"] = len(KNOWN_DEFECTS) / len(self.mix(0))
        return out


WORKLOADS = {w.name: w for w in (McRegions, McWide, ClassifyStates, CliReport)}
