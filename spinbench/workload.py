"""Seeded inputs, the closed-loop client and the metrics it yields.

One client in one thread issues requests back to back, each after the
previous one returned (a closed loop).  The work is cut into rounds of a
fixed composition, so a run's mix does not depend on how many rounds fit:

* query: ``couple --connections``, ``couple --range`` and ``couple``
  twice each, and per scenario document ``couple --identity``, ``check``
  and ``conditionalize --kind even|zero``, all through the in-process
  ``spincouple.cli.main`` with stdout captured;
* sweep: ``connections --role equivalent`` for two even and one odd sign
  vector against ``bell`` (presolve-collapsed decisions; an even vector
  runs all 2n of them) and, every other round, a random decimal vector
  against ``quantum`` or ``tsirelson`` (full-tableau decisions, refuted
  early);
* campaign: small slices of ``fine_agreement_campaign`` (identity LPs)
  and of ``uninformativeness_campaign`` (no LP at all), one of each after
  every long request.

The two workloads differ only in where the query scenarios come from:
``uniform`` draws them from the three no-signaling strata, whose marginals
are all 1/2, and ``signaling`` from the ``nosig-violating`` stratum, where
no uniform-marginal shortcut can apply.  Sweep and campaign inputs are
uniform-marginal in both, because the library's samplers make them so.
"""

from __future__ import annotations

import bisect
import io
import json
import random
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracles

WORKLOADS = {
    "uniform": ("bell", "quantum-only", "super-tsirelson"),
    "signaling": ("nosig-violating",),
}
PARTS = ("query", "sweep", "campaign")

DOCS_PER_ROUND = 6
PREPARED_ROUNDS = 24  # scenario documents are reused cyclically after these
# Odd sign vectors are refuted with probability about 1/2 per sample, so
# n = 20 leaves about 1e-6 chance that one survives and fails its check.
SET_ROLE_N = 20
# Campaign work comes in many small slices spread over the round, so that
# a run samples the box's speed swings often rather than in a few long calls.
CAMPAIGN_SLICES = 8
FINE_SLICE = 10
UNINFORMATIVE_SLICE = 15
SMALL_TARGETS = ("1/2", "-1/2", "1/4", "-3/4", "2/3", "-1/3")

_SIGNS = tuple(product((1, -1), repeat=4))
EVEN_SIGNS = tuple(s for s in _SIGNS if s.count(1) % 2 == 0)
ODD_SIGNS = tuple(s for s in _SIGNS if s.count(1) % 2 == 1)

# Per request, the LP-backed queries cost 0.5-2.5 s and vary about 30%
# from one scenario to the next, so a run holds too few of each for a
# per-command median to repeat across seeds; lp_query_s pools them and
# the per-command medians are reported beside it.
E2E_UNITS = {
    "lp_query_s": "s",
    "identity_p50_s": "s",
    "check_p50_s": "s",
    "conditionalize_p50_s": "s",
    "sweep_decisions_per_s": "1/s",
    "sweep_request_p50_s": "s",
    "fine_scenarios_per_s": "1/s",
    "uninformative_pairs_per_s": "1/s",
}
_LP_KINDS = ("connections", "range", "existence")
_LATENCY_KINDS = _LP_KINDS + ("identity", "check", "conditionalize")
_SWEEP_KINDS = ("sign_vector", "random_vector")


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(map(str, tags)))


def _sub_seed(seed: int, *tags) -> int:
    return _rng(seed, *tags).getrandbits(63)


# ------------------------------------------------------------------ inputs


def _scenario_doc(scenario, stratum: str, index: int) -> dict:
    pairs = {}
    for key, ctx in zip(oracles.CTX_KEYS, ((1, 1), (1, 2), (2, 1), (2, 2))):
        pd = scenario.pairs[ctx]
        pairs[key] = {c: str(v) for c, v in zip(("pp", "pm", "mp", "mm"), pd.cells())}
    return {"pairs": pairs, "metadata": {"stratum": stratum, "index": index}}


def prepare_documents(workload: str, seed: int, workdir: Path) -> list[list[tuple]]:
    """Write every scenario document before timing starts.

    Returns, per prepared round, DOCS_PER_ROUND tuples (path, cells,
    uniform).  Strata rotate across documents, so each LP command meets
    every stratum of the workload in turn.
    """
    from spincouple import sample_scenario_stratum

    strata = WORKLOADS[workload]
    scenario_seed = _sub_seed(seed, "scenarios")
    rounds = []
    for r in range(PREPARED_ROUNDS):
        docs = []
        for d in range(DOCS_PER_ROUND):
            index = r * DOCS_PER_ROUND + d
            stratum = strata[(index + r) % len(strata)]
            doc = _scenario_doc(sample_scenario_stratum(stratum, scenario_seed, index), stratum, index)
            path = workdir / f"scenario-{index:04d}.json"
            path.write_text(json.dumps(doc))
            sc = oracles.cells(doc)
            docs.append((str(path), sc, oracles.uniform(sc)))
        rounds.append(docs)
    return rounds


def _targets(rng: random.Random, j: int) -> list[str]:
    """Four decimals with six digits, rationalized by the CLI at 10^6; every
    fourth request swaps one for a small rational, every eighth for +-1."""
    comps = [f"{rng.randint(-999_999, 999_999) / 1e6:.6f}" for _ in range(4)]
    if j % 4 == 3:
        comps[(j // 4) % 4] = rng.choice(("1", "-1")) if j % 8 == 7 else rng.choice(SMALL_TARGETS)
    return comps


def plan_round(workload: str, seed: int, r: int, documents) -> list[tuple]:
    """The operations of round r as (part, kind, argv or args, oracle data)."""
    from spincouple import sample_condition_distribution, sample_connection_components

    docs = documents[r % len(documents)]
    rng = _rng(seed, "round", r)
    ops = []

    # each LP command runs twice a round, on documents of two strata
    for i, (c, w, e) in enumerate(((0, 1, 2), (4, 5, 3))):
        path, sc, uni = docs[c]
        targets = _targets(rng, 2 * r + i)
        exact = tuple(Fraction(t) for t in targets)
        argv = ["couple", path, "--connections=" + ",".join(targets)]
        ops.append(("query", "connections", argv, (sc, exact, uni)))
        path, sc, _ = docs[w]
        which = oracles.CONNECTIONS[rng.randrange(4)]
        ops.append(("query", "range", ["couple", path, "--range", which], (sc, which)))
        path, sc, _ = docs[e]
        ops.append(("query", "existence", ["couple", path], (sc,)))
    pi_seed = _sub_seed(seed, "pi")
    for d, (path, sc, _) in enumerate(docs):
        ops.append(("query", "identity", ["couple", path, "--identity"], (sc,)))
        ops.append(("query", "check", ["check", path], (sc,)))
        pi = sample_condition_distribution(pi_seed, r * DOCS_PER_ROUND + d).pi
        pi_values = tuple(pi[ctx] for ctx in ((1, 1), (1, 2), (2, 1), (2, 2)))
        # even tables (64 cells) cost about twice zero-padded ones; two to
        # one keeps the median inside the even mode instead of between
        kind = ("even", "zero", "even")[d % 3]
        argv = ["conditionalize", path, "--kind", kind, "--pi", ",".join(map(str, pi_values))]
        ops.append(("query", "conditionalize", argv, (sc, kind, pi_values)))

    # two even vectors to one odd and one random: the odd ones are refuted
    # at once and the random ones take longest, so the median request is an
    # even one, whose 2n presolve-collapsed decisions vary little
    even = _rng(seed, "even").sample(range(8), 8)
    odd = ODD_SIGNS[_rng(seed, "odd").sample(range(8), 8)[r % 8]]
    for vector in (EVEN_SIGNS[even[(2 * r) % 8]], EVEN_SIGNS[even[(2 * r + 1) % 8]], odd):
        argv = [
            "connections", "--conn=" + ",".join(map(str, vector)), "--family", "bell",
            "--role", "equivalent", "--n", str(SET_ROLE_N),
            "--seed", str(_sub_seed(seed, "sampler", r, vector)),
        ]
        ops.append(("sweep", "sign_vector", argv, (vector, "bell")))
    # a random vector every other round: it feeds no bounded metric
    if r % 2 == 0:
        floats = sample_connection_components(_sub_seed(seed, "vectors"), r)
        decimals = [f"{v:.6f}" for v in floats]
        family = ("quantum", "tsirelson")[(r // 2) % 2]
        argv = [
            "connections", "--conn=" + ",".join(decimals), "--family", family,
            "--role", "equivalent", "--n", str(SET_ROLE_N),
            "--seed", str(_sub_seed(seed, "sampler", r, family)),
        ]
        ops.append(("sweep", "random_vector", argv, (tuple(float(v) for v in decimals), family)))

    # one pair of campaign slices after each long request
    spread, k = [], 0
    for op in ops:
        spread.append(op)
        if op[1] in _LP_KINDS + ("sign_vector",) and k < CAMPAIGN_SLICES:
            spread.append(("campaign", "fine", (FINE_SLICE, _sub_seed(seed, "fine", r, k)), None))
            spread.append(("campaign", "uninformative", (UNINFORMATIVE_SLICE, _sub_seed(seed, "uninformative", r, k)), None))
            k += 1
    return spread


# ------------------------------------------------------------- speed probe

# Median time of one calibration block on the box the baseline was taken
# on; normalized timings read as seconds at that speed.
REFERENCE_BLOCK_S = 8.0e-4


class SpeedTrack:
    """How fast this box runs the benchmark's kind of Python, over time.

    The box's speed swings by 20-50% over seconds to minutes as other
    tenants come and go, and a run's median moves with it however many
    requests it holds.  A fixed calibration block of Fraction arithmetic
    and JSON round trips, which uses no spincouple code, is timed right
    before and right after every call.  A call's normalized time is its
    time scaled by REFERENCE_BLOCK_S over the median block within
    WINDOW_S seconds of it: its time at the reference speed.
    """

    WINDOW_S = 2.0

    def __init__(self) -> None:
        self.times: list[float] = []
        self.blocks: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k, k + 7) * Fraction(3, 2 * k + 1)
        json.loads(json.dumps({str(k): str(Fraction(k, 7)) for k in range(80)}))
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.blocks.append(t1 - t0)

    def call(self, fn):
        """(result, start, end) of fn(), with a block on either side."""
        self.sample()
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.sample()
        return result, t0, t1

    def normalize(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        return (t1 - t0) * REFERENCE_BLOCK_S / statistics.median(self.blocks[lo:hi])


# ------------------------------------------------------------------ client

KIND_PART = dict(
    [(k, "query") for k in _LATENCY_KINDS]
    + [(k, "sweep") for k in _SWEEP_KINDS]
    + [("fine", "campaign"), ("uninformative", "campaign")]
)


class Samples:
    """Per kind of operation: start and end of every call, and decisions."""

    def __init__(self) -> None:
        self.spans = {k: [] for k in KIND_PART}
        self.decisions = {k: [] for k in _SWEEP_KINDS}

    def raw(self) -> dict[str, list[float]]:
        return {k: [t1 - t0 for t0, t1 in v] for k, v in self.spans.items()}

    def normalized(self, speed: SpeedTrack) -> dict[str, list[float]]:
        return {k: [speed.normalize(t0, t1) for t0, t1 in v] for k, v in self.spans.items()}


class Client:
    """Runs rounds, checks every answer and keeps the samples."""

    def __init__(self, speed: SpeedTrack, tracer=None) -> None:
        import spincouple.campaigns
        import spincouple.cli

        self.cli = spincouple.cli
        self.campaigns = spincouple.campaigns
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.unverified = 0

    def run_round(self, ops, samples: Samples, traced: bool) -> None:
        for part, kind, args, data in ops:
            if traced:
                self.tracer.part = part
            self.attempted += 1
            try:
                failure = self._execute(kind, args, data, samples)
            except Exception:  # a crash is a failed operation, not a failed run
                failure = f"{args}: {traceback.format_exc(limit=3)}"
            if failure is not None:
                self.failures.append(f"{kind}: {failure}")

    def _main(self, argv, out):
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def _execute(self, kind, args, data, samples: Samples):
        if kind == "fine":
            result, t0, t1 = self.speed.call(lambda: self.campaigns.fine_agreement_campaign(*args))
            samples.spans[kind].append((t0, t1))
            ok = result.all_agree and result.n == args[0]
            return None if ok else f"fine campaign mismatches {result.mismatch_indices}"
        if kind == "uninformative":
            result, t0, t1 = self.speed.call(lambda: self.campaigns.uninformativeness_campaign(*args))
            samples.spans[kind].append((t0, t1))
            ok = result.all_ok and result.pairs == args[0]
            return None if ok else f"{result.successes}/{result.constructions} constructions"

        out = io.StringIO()
        code, t0, t1 = self.speed.call(lambda: self._main(args, out))
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(text))
        doc = json.loads(text)
        samples.spans[kind].append((t0, t1))
        if kind in _SWEEP_KINDS:
            vector, family = data
            samples.decisions[kind].append(doc["samples_checked"])
            return oracles.check_set_role(doc, code, vector, family, SET_ROLE_N)
        if kind == "connections":
            failure, verified = oracles.check_connections(doc, code, *data)
            self.unverified += not verified and failure is None
            return failure
        check = {
            "range": oracles.check_range,
            "existence": oracles.check_existence,
            "identity": oracles.check_identity,
            "check": oracles.check_check,
            "conditionalize": oracles.check_conditionalize,
        }[kind]
        return check(doc, code, *data)


# ----------------------------------------------------------------- metrics


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(values, n=100, method="inclusive")[q - 1])
    return best


def end_to_end(times: dict[str, list[float]], decisions: dict[str, list[int]]) -> dict[str, float]:
    """The end-to-end metrics, plus the per-command LP medians, from the
    seconds of every call by kind."""
    out = {}
    lp = [t for kind in _LP_KINDS for t in times[kind]]
    if lp:
        out["lp_query_s"] = sum(lp) / len(lp)
    for kind in _LATENCY_KINDS:
        if times[kind]:
            out[f"{kind}_p50_s"] = statistics.median(times[kind])
    # A random vector is refuted after one full-tableau decision or, now
    # and then, after six; that tail would swamp a rate pooled with the
    # sign vectors' cheap decisions, so the two kinds are rated apart.  A
    # run holds about a dozen full decisions, too few for a bounded metric,
    # so sweep_full_decision_s is reported beside the metrics.
    if times["sign_vector"]:
        out["sweep_decisions_per_s"] = sum(decisions["sign_vector"]) / sum(times["sign_vector"])
        out["sweep_request_p50_s"] = statistics.median(times["sign_vector"] + times["random_vector"])
    if times["random_vector"]:
        out["sweep_full_decision_s"] = sum(times["random_vector"]) / sum(decisions["random_vector"])
    if times["fine"]:
        out["fine_scenarios_per_s"] = FINE_SLICE * len(times["fine"]) / sum(times["fine"])
    if times["uninformative"]:
        out["uninformative_pairs_per_s"] = (
            UNINFORMATIVE_SLICE * len(times["uninformative"]) / sum(times["uninformative"])
        )
    return out


def part_seconds(times: dict[str, list[float]]) -> dict[str, float]:
    out = dict.fromkeys(PARTS, 0.0)
    for kind, values in times.items():
        out[KIND_PART[kind]] += sum(values)
    return out


def sample_summary(norm: dict[str, list[float]], raw: dict[str, list[float]]) -> dict[str, dict]:
    """Per kind: sample count, normalized median and tail, raw seconds."""
    summary = {}
    for kind, values in norm.items():
        if not values:
            continue
        entry = {"n": len(values), "p50_s": statistics.median(values), "raw_s": raw[kind]}
        tail = tail_percentile(values)
        if tail is not None:
            entry[f"p{tail[0]}_s"] = tail[1]
        summary[kind] = entry
    return summary
