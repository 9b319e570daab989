"""Command-line front door: JSON in, JSON out, meaningful exit codes.

One binary with subcommands (check, couple, connections, conditionalize,
demo).  Scenario probabilities travel as canonical rational strings such
as "3/10"; correlation and connection inputs may be decimal and are then
rationalized at denominator <= 10^6, with the original echoed back under
"metadata".  Exit codes: 0 affirmative, 1 negative verdict, 2 usage or
parse error.  All randomized commands take --seed and reproduce bit for
bit; configuration is flags only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .campaigns import fine_agreement_campaign, uninformativeness_campaign
from .conditionalization import (
    KINDS,
    ConditionDistribution,
    build_conditional,
    two_condition_tree,
    verify_conditionals,
)
from .connections import (
    test_equivalent,
    test_fitting,
    test_forcing,
)
from .couplings import (
    CONNECTION_NAMES,
    ConnectionVector,
    connection_range,
    coupling_exists,
    identity_coupling_exists,
    pattern_key,
)
from .distributions import (
    CONTEXTS,
    RATIONALIZE_MAX_DENOMINATOR,
    PairDistribution,
    Scenario,
    as_rational,
    check_no_signaling,
    rationalize,
    scenario_from_correlations,
)
from .errors import DomainError, SpincoupleError
from .inequalities import (
    DEFAULT_EPSILON,
    FAMILIES,
    family_report,
)
from .quantum import singlet_correlations, standard_chsh_settings

SCHEMA_VERSION = "1"

_CTX_KEYS = ("11", "12", "21", "22")
_CELL_KEYS = ("pp", "pm", "mp", "mm")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Anything that should terminate with exit code 2."""


# ---------------------------------------------------------------- documents


def _tagged(where: str, fn, *args):
    """fn(*args), with a library error turned into a CliError that names the
    flag or document key the rejected input came from."""
    try:
        return fn(*args)
    except SpincoupleError as exc:
        raise CliError(f"{where}: {exc}") from None


def parse_scenario_document(doc) -> tuple[Scenario, dict]:
    """ScenarioDocument -> (Scenario, metadata).  Raises CliError on shape
    or value problems."""
    if not isinstance(doc, dict):
        raise CliError("scenario document must be a JSON object")
    pairs_doc = doc.get("pairs")
    if not isinstance(pairs_doc, dict):
        raise CliError('scenario document needs an object under "pairs"')
    unknown = sorted(set(pairs_doc) - set(_CTX_KEYS))
    if unknown:
        raise CliError(f'unknown context keys {unknown}; expected "11","12","21","22"')
    pairs = {}
    for key, ctx in zip(_CTX_KEYS, CONTEXTS):
        cell_doc = pairs_doc.get(key)
        if not isinstance(cell_doc, dict):
            raise CliError(f'context "{key}" must be an object with cells {_CELL_KEYS}')
        for cell in _CELL_KEYS:
            if cell not in cell_doc:
                raise CliError(f'context "{key}" is missing cell "{cell}"')
        cells = (cell_doc[cell] for cell in _CELL_KEYS)
        pairs[ctx] = _tagged(f'context "{key}"', PairDistribution, *cells)
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise CliError('"metadata" must be an object when present')
    return Scenario(pairs), dict(metadata or {})


def scenario_document(s: Scenario, metadata: dict | None = None) -> dict:
    doc = {
        "pairs": {
            key: {
                cell: str(v)
                for cell, v in zip(_CELL_KEYS, s.pairs[ctx].cells())
            }
            for key, ctx in zip(_CTX_KEYS, CONTEXTS)
        }
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path!r} as UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path!r}: {exc}") from None
    except ValueError as exc:  # an integer longer than Python's int-string limit
        raise CliError(f"cannot read the JSON in {path!r}: {exc}") from None
    except RecursionError:
        raise CliError(f"JSON in {path!r} is nested too deeply to read") from None


def _load_scenario(path: str) -> tuple[Scenario, dict]:
    return parse_scenario_document(_read_json(path))


def _split_four(text: str, where: str) -> list[str]:
    toks = text.split(",")
    if len(toks) != 4:
        raise CliError(f"{where}: expected four comma-separated components, got {len(toks)}")
    return toks


def _parse_four(text: str, where: str) -> tuple[list[Fraction], dict]:
    """Four correlation/connection components from the command line.

    'a/b' and integers are taken exactly; decimal notation goes through
    float and is rationalized at denominator <= 10^6, and the original
    float is reported back under "rationalized_from".
    """
    values = []
    originals = {}
    for k, tok in enumerate(_split_four(text, where)):
        at = f"{where}[{k}]"
        tok = tok.strip()
        exact = "/" in tok or tok.lstrip("+-").replace("_", "").isdecimal()
        try:
            v = as_rational(tok) if exact else float(tok)
        except (DomainError, ValueError):
            raise CliError(
                f"{at}: cannot parse {tok!r}; rationalize first "
                f"(write a fraction like '70711/100000' or a decimal)"
            ) from None
        if not exact:
            originals[str(k)] = v
            v = _tagged(at, rationalize, v, RATIONALIZE_MAX_DENOMINATOR)
        elif v < -1 or v > 1:
            raise CliError(f"{at}: {v} is outside [-1, 1]")
        values.append(v)
    meta = {}
    if originals:
        meta["rationalized_from"] = originals
        meta["max_denominator"] = RATIONALIZE_MAX_DENOMINATOR
    return values, meta


def _family_doc(rep) -> dict:
    return {
        "satisfied": rep.satisfied,
        "max_lhs": str(rep.max_lhs) if isinstance(rep.max_lhs, Fraction) else rep.max_lhs,
        "bound": str(rep.bound) if isinstance(rep.bound, Fraction) else rep.bound,
        "tight": rep.tight,
    }


# ---------------------------------------------------------------- commands
#
# Each command returns (body, summary, verdict); main wraps the body in the
# document envelope, prints both and maps the verdict to the exit code.


def cmd_check(args) -> tuple[dict, str, bool]:
    if args.correlations is not None:
        if args.input != "-":
            raise CliError("give either a scenario document or --correlations, not both")
        comps, metadata = _parse_four(args.correlations, "--correlations")
        scenario = scenario_from_correlations(comps)
    else:
        scenario, metadata = _load_scenario(args.input)
    families = args.family or list(FAMILIES)
    cors = scenario.correlations()
    nosig = check_no_signaling(scenario)
    reports = {fam: family_report(fam, cors, args.tolerance) for fam in families}
    all_ok = all(rep.satisfied for rep in reports.values())
    body = {
        "scenario": scenario_document(scenario, metadata),
        "correlations": {
            name: str(v) if isinstance(v, Fraction) else v
            for name, v in zip(("e11", "e12", "e21", "e22"), cors.components())
        },
        "no_signaling": {"holds": nosig.holds, "violations": list(nosig.violations)},
        "families": {fam: _family_doc(rep) for fam, rep in reports.items()},
        "all_satisfied": all_ok,
    }
    verdicts = ", ".join(
        f"{fam}={'ok' if rep.satisfied else 'violated'}" for fam, rep in sorted(reports.items())
    )
    return body, f"no-signaling={'ok' if nosig.holds else 'violated'}; {verdicts}", all_ok


def _witness_doc(verdict) -> dict | None:
    if verdict.witness is None:
        return None
    return {pattern_key(p): str(m) for p, m in sorted(verdict.witness.mass.items())}


def cmd_couple(args) -> tuple[dict, str, bool]:
    modes = [m for m in ("identity", "connections", "range") if getattr(args, m) not in (None, False)]
    if len(modes) > 1:
        raise CliError("at most one of --identity, --connections, --range")
    scenario, metadata = _load_scenario(args.input)
    body = {"scenario": scenario_document(scenario, metadata)}

    if args.range is not None:
        lo, hi = _tagged("--range", connection_range, scenario, args.range)
        body["mode"] = "range"
        body["range"] = {"connection": args.range, "lo": str(lo), "hi": str(hi)}
        return body, f"connection {args.range} expectation range: [{lo}, {hi}]", True

    if args.identity:
        body["mode"] = "identity"
        verdict = identity_coupling_exists(scenario)
    elif args.connections is not None:
        targets, meta = _parse_four(args.connections, "--connections")
        body["mode"] = "connections"
        body["connections"] = {name: str(v) for name, v in zip(CONNECTION_NAMES, targets)}
        if meta:
            body["metadata"] = meta
        verdict = coupling_exists(scenario, ConnectionVector(*targets))
    else:
        # no mode flag: plain existence under the marginal constraints only
        body["mode"] = "existence"
        verdict = coupling_exists(scenario)

    body["feasible"] = verdict.feasible
    body["witness"] = _witness_doc(verdict)
    summary = f"coupling {'exists' if verdict.feasible else 'does not exist'} (mode {body['mode']})"
    return body, summary, verdict.feasible


def cmd_connections(args) -> tuple[dict, str, bool]:
    targets, meta = _parse_four(args.conn, "--conn")
    runner = {"fitting": test_fitting, "forcing": test_forcing, "equivalent": test_equivalent}[
        args.role
    ]
    result = runner(ConnectionVector(*targets), args.family, args.seed, args.n)
    body = {
        "conn": {name: str(v) for name, v in zip(CONNECTION_NAMES, targets)},
        "family": result.family,
        "role": result.role,
        "n": args.n,
        "seed": args.seed,
        "verdict": result.verdict,
        "samples_checked": result.samples_checked,
        "counterexample": None,
    }
    if meta:
        body["metadata"] = meta
    if result.counterexample is not None:
        s, detail = result.counterexample
        body["counterexample"] = {"scenario": scenario_document(s), "detail": detail}
    summary = (
        f"{args.role} for {args.family}: {result.verdict} "
        f"({result.samples_checked} samples checked)"
    )
    return body, summary, result.verdict


def cmd_conditionalize(args) -> tuple[dict, str, bool]:
    scenario, metadata = _load_scenario(args.input)
    toks = _split_four(args.pi, "--pi")
    pi = _tagged("--pi", ConditionDistribution, {c: t.strip() for c, t in zip(CONTEXTS, toks)})
    cc = build_conditional(args.kind, scenario, pi)
    ok = verify_conditionals(cc, scenario)
    table = {key: {} for key in _CTX_KEYS}
    for (ctx, pattern), v in sorted(cc.table.items()):
        table[f"{ctx[0]}{ctx[1]}"][pattern_key(pattern)] = str(v)
    marginal = cc.condition_marginal()
    body = {
        "scenario": scenario_document(scenario, metadata),
        "kind": args.kind,
        "pi": {key: str(pi.pi[ctx]) for key, ctx in zip(_CTX_KEYS, CONTEXTS)},
        "table": table,
        "condition_marginal": {
            key: str(marginal[ctx]) for key, ctx in zip(_CTX_KEYS, CONTEXTS)
        },
        "conditionals_verified": ok,
    }
    cells = sum(len(v) for v in table.values())
    return body, f"{args.kind} construction: {cells} nonzero cells, verified={ok}", ok


def _demo_fine(args) -> tuple[dict, str, bool]:
    result = fine_agreement_campaign(1000 if args.n is None else args.n, args.seed)
    body = {
        "name": "fine",
        "n": result.n,
        "seed": args.seed,
        "agreements": result.agreements,
        "mismatch_indices": list(result.mismatch_indices),
    }
    summary = (
        f"identity-coupling existence vs classical bound: "
        f"{result.agreements}/{result.n} agreements"
    )
    return body, summary, result.all_agree


def _demo_tsirelson(args) -> tuple[dict, str, bool]:
    cors = singlet_correlations(*standard_chsh_settings())
    bell, quantum, tsirelson = (
        family_report(fam, cors, args.tolerance) for fam in ("bell", "quantum", "tsirelson")
    )
    m = float(tsirelson.max_lhs)
    a = quantum.max_lhs
    body = {
        "name": "tsirelson-tight",
        "correlations": {
            k: v for k, v in zip(("e11", "e12", "e21", "e22"), map(float, cors.components()))
        },
        "chsh_max": m,
        "chsh_bound": tsirelson.bound,
        "chsh_delta": abs(m - tsirelson.bound),
        "arcsin_max": a,
        "arcsin_bound": quantum.bound,
        "arcsin_delta": abs(a - quantum.bound),
        "bell_satisfied": bell.satisfied,
        "tolerance": args.tolerance,
    }
    summary = (
        f"standard settings: CHSH max {m:.15f} (bound {tsirelson.bound:.15f}), "
        f"arcsin max {a:.15f} (bound {quantum.bound:.15f}), bell violated={not bell.satisfied}"
    )
    return body, summary, tsirelson.tight and quantum.tight and not bell.satisfied


def _demo_uninformative(args) -> tuple[dict, str, bool]:
    result = uninformativeness_campaign(500 if args.n is None else args.n, args.seed)
    body = {
        "name": "uninformative",
        "pairs": result.pairs,
        "seed": args.seed,
        "constructions": result.constructions,
        "successes": result.successes,
        "per_stratum": {
            name: {"successes": s, "total": t}
            for name, (s, t) in sorted(result.per_stratum.items())
        },
    }
    summary = (
        f"conditionalization constructions verified: "
        f"{result.successes}/{result.constructions} across strata "
        + ", ".join(f"{k}={s}/{t}" for k, (s, t) in sorted(result.per_stratum.items()))
    )
    return body, summary, result.all_ok


def _demo_tree(args) -> tuple[dict, str, bool]:
    p = _tagged("--p", as_rational, args.p)
    q = _tagged("--q", as_rational, args.q)
    pi_root = _tagged("--pi-root", as_rational, args.pi_root)
    table = two_condition_tree(p, q, pi_root)
    body = {
        "name": "tree",
        "p": str(p),
        "q": str(q),
        "pi_root": str(pi_root),
        "table": {
            f"condition={c},outcome={'+' if o > 0 else '-'}": str(v)
            for (c, o), v in sorted(table.items())
        },
    }
    branches = ", ".join(f"{k}: {v}" for k, v in body["table"].items())
    return body, f"two-condition tree joint table: {branches}", True


_DEMOS = {
    "fine": _demo_fine,
    "tsirelson-tight": _demo_tsirelson,
    "uninformative": _demo_uninformative,
    "tree": _demo_tree,
}


def cmd_demo(args) -> tuple[dict, str, bool]:
    return _DEMOS[args.name](args)


# ------------------------------------------------------------------ parser


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite float >= 0.  A NaN tolerance
    fails every comparison and an infinite one passes every one, so the
    verdicts would say nothing."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincouple",
        description=(
            "Exact coupling analysis for the 2x2 Alice-Bob spin scenario: "
            "inequality families, coupling existence, connection set roles, "
            "conditionalization constructions."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    tolerance_help = f"float comparison slack, finite and >= 0 (default {DEFAULT_EPSILON})"

    p_check = sub.add_parser(
        "check", help="classify a scenario against the three inequality families"
    )
    p_check.add_argument("input", nargs="?", default="-", help="ScenarioDocument path or - for stdin")
    p_check.add_argument(
        "--correlations",
        help="four comma-separated correlations instead of a document; "
        "decimals are rationalized at denominator <= 10^6",
    )
    p_check.add_argument(
        "--family",
        action="append",
        choices=list(FAMILIES),
        help="restrict the verdict to these families (repeatable; default all)",
    )
    p_check.add_argument("--tolerance", type=_tolerance, default=DEFAULT_EPSILON, help=tolerance_help)
    p_check.set_defaults(func=cmd_check)

    p_couple = sub.add_parser(
        "couple", help="decide coupling existence or compute a connection range"
    )
    p_couple.add_argument("input", nargs="?", default="-", help="ScenarioDocument path or - for stdin")
    p_couple.add_argument(
        "--identity", action="store_true", help="require same-setting variables almost surely equal"
    )
    p_couple.add_argument(
        "--connections", help="four comma-separated connection expectation targets"
    )
    p_couple.add_argument(
        "--range",
        metavar="WHICH",
        help=f"attainable expectation range of one connection ({', '.join(CONNECTION_NAMES)})",
    )
    p_couple.set_defaults(func=cmd_couple)

    p_conn = sub.add_parser(
        "connections", help="sampled fitting/forcing/equivalence test of a connection vector"
    )
    p_conn.add_argument("--conn", required=True, help="four comma-separated targets")
    p_conn.add_argument("--family", required=True, choices=list(FAMILIES))
    p_conn.add_argument(
        "--role", required=True, choices=["fitting", "forcing", "equivalent"]
    )
    p_conn.add_argument("--n", type=int, default=100, help="samples per quantifier (default 100)")
    p_conn.add_argument("--seed", type=int, default=0)
    p_conn.set_defaults(func=cmd_connections, n_min=1)

    p_cond = sub.add_parser(
        "conditionalize", help="build a conditionalization coupling and verify it"
    )
    p_cond.add_argument("input", nargs="?", default="-", help="ScenarioDocument path or - for stdin")
    p_cond.add_argument(
        "--pi",
        default="1/4,1/4,1/4,1/4",
        help="condition probabilities p11,p12,p21,p22 (rationals, strictly positive)",
    )
    p_cond.add_argument("--kind", default="simple", choices=list(KINDS))
    p_cond.set_defaults(func=cmd_conditionalize)

    p_demo = sub.add_parser("demo", help="curated walkthroughs of the headline results")
    p_demo.add_argument("name", choices=list(_DEMOS))
    p_demo.add_argument(
        "--n", type=int, default=None, help="campaign size (default fine 1000, uninformative 500)"
    )
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--tolerance", type=_tolerance, default=DEFAULT_EPSILON, help=tolerance_help)
    p_demo.add_argument("--p", default="1/2", help="tree: first branch success probability")
    p_demo.add_argument("--q", default="1/2", help="tree: second branch success probability")
    p_demo.add_argument("--pi-root", default="3/10", help="tree: probability of the first condition")
    p_demo.set_defaults(func=cmd_demo, n_min=0)

    return parser


# main builds the parser once per process; parsing does not change it
_shared_parser = functools.cache(build_parser)

# flags whose value is a comma-separated number list, which may start with "-"
_NUMBER_LIST_FLAGS = ("--conn", "--connections", "--correlations", "--pi")
_LEADING_MINUS = re.compile(r"-[0-9./]")


def _join_negative_values(argv) -> list[str]:
    """Write "--conn -1,1,1,1" as "--conn=-1,1,1,1": argparse takes a
    separate value that starts with "-" and is not a plain number for an
    option.  Only number-list flags followed by a value that looks like a
    number list are joined; everything else is left for argparse."""
    out = []
    for tok in argv:
        if out and out[-1] in _NUMBER_LIST_FLAGS and _LEADING_MINUS.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _shared_parser().parse_args(_join_negative_values(argv))
    n = getattr(args, "n", None)
    if n is not None and n < args.n_min:
        print(f"error: --n must be >= {args.n_min}, got {n}", file=sys.stderr)
        return EXIT_USAGE
    seed = getattr(args, "seed", None)
    if seed is not None and not (0 <= seed < 2**64):
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        body, summary, verdict = args.func(args)
        doc = {"schema_version": SCHEMA_VERSION, "command": args.subcommand, **body}
        print(summary, file=sys.stderr)
        print(json.dumps(doc, indent=2, sort_keys=True))
    except (CliError, SpincoupleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE
    return EXIT_OK if verdict else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
