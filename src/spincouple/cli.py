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
    RATIONALIZE_MAX_DENOMINATOR,
    exact_connection,
    rationalize,
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
    PairDistribution,
    Scenario,
    check_no_signaling,
    scenario_from_correlations,
)
from .errors import SpincoupleError
from .inequalities import (
    DEFAULT_EPSILON,
    FAMILIES,
    TSIRELSON_BOUND,
    arcsin_sum_max,
    chsh_max,
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


def _rat(s: Fraction) -> str:
    # str(Fraction) is canonical: lowest terms, positive denominator, no
    # "/1" suffix
    return str(s)


def _parse_exact(value, where: str) -> Fraction:
    """A probability cell: rational string or int, never a float."""
    if isinstance(value, bool):
        raise CliError(f"{where}: booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise CliError(
            f"{where}: probabilities must be exact rational strings like '3/10', "
            f"got the JSON number {value!r}"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"{where}: cannot parse {value!r} as a rational") from None
    raise CliError(f"{where}: expected a rational string, got {type(value).__name__}")


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
        cells = []
        for cell in _CELL_KEYS:
            if cell not in cell_doc:
                raise CliError(f'context "{key}" is missing cell "{cell}"')
            cells.append(_parse_exact(cell_doc[cell], f'pairs.{key}.{cell}'))
        try:
            pairs[ctx] = PairDistribution(*cells)
        except SpincoupleError as exc:
            raise CliError(f'context "{key}": {exc}') from None
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise CliError('"metadata" must be an object when present')
    return Scenario(pairs), dict(metadata or {})


def scenario_document(s: Scenario, metadata: dict | None = None) -> dict:
    doc = {
        "pairs": {
            key: {
                cell: _rat(v)
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
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path!r}: {exc}") from None


def _load_scenario(path: str) -> tuple[Scenario, dict]:
    return parse_scenario_document(_read_json(path))


def _parse_number_token(tok: str, where: str) -> tuple[Fraction, float | None]:
    """One correlation/connection component from the command line.

    'a/b' and integers are taken exactly; decimal notation goes through
    float and is rationalized at denominator <= 10^6 (the original float is
    reported back).  Returns (exact value, original float or None).
    """
    tok = tok.strip()
    if not tok:
        raise CliError(f"{where}: empty component")
    if "/" in tok:
        try:
            return Fraction(tok), None
        except (ValueError, ZeroDivisionError):
            raise CliError(
                f"{where}: cannot parse {tok!r} as a rational; rationalize first "
                f"(write a fraction like '70711/100000')"
            ) from None
    try:
        return Fraction(int(tok)), None
    except ValueError:
        pass
    try:
        f = float(tok)
    except ValueError:
        raise CliError(
            f"{where}: cannot parse {tok!r}; rationalize first "
            f"(write a fraction like '70711/100000' or a decimal)"
        ) from None
    if math.isnan(f) or math.isinf(f):
        raise CliError(f"{where}: {tok!r} is not a finite number")
    if abs(f) > 1.0:
        raise CliError(f"{where}: {f} is outside [-1, 1]")
    return rationalize(f, RATIONALIZE_MAX_DENOMINATOR), f


def _parse_four(text: str, where: str) -> tuple[list[Fraction], dict]:
    toks = text.split(",")
    if len(toks) != 4:
        raise CliError(f"{where}: expected four comma-separated components, got {len(toks)}")
    values = []
    originals = {}
    for k, tok in enumerate(toks):
        v, orig = _parse_number_token(tok, f"{where}[{k}]")
        if v < -1 or v > 1:
            raise CliError(f"{where}[{k}]: {v} is outside [-1, 1]")
        values.append(v)
        if orig is not None:
            originals[str(k)] = orig
    meta = {}
    if originals:
        meta["rationalized_from"] = originals
        meta["max_denominator"] = RATIONALIZE_MAX_DENOMINATOR
    return values, meta


def _emit(doc: dict, summary: str | None = None) -> None:
    if summary:
        print(summary, file=sys.stderr)
    print(json.dumps(doc, indent=2, sort_keys=True))


def _family_doc(rep) -> dict:
    return {
        "satisfied": rep.satisfied,
        "max_lhs": _rat(rep.max_lhs) if isinstance(rep.max_lhs, Fraction) else rep.max_lhs,
        "bound": _rat(rep.bound) if isinstance(rep.bound, Fraction) else rep.bound,
        "tight": rep.tight,
    }


# ---------------------------------------------------------------- commands


def cmd_check(args) -> int:
    if args.correlations is not None:
        if args.input != "-":
            raise CliError("give either a scenario document or --correlations, not both")
        comps, meta = _parse_four(args.correlations, "--correlations")
        scenario = scenario_from_correlations(comps)
        metadata = meta
    else:
        scenario, metadata = _load_scenario(args.input)
    families = args.family or list(FAMILIES)
    cors = scenario.correlations()
    nosig = check_no_signaling(scenario)
    reports = {fam: family_report(fam, cors, args.tolerance) for fam in families}
    all_ok = all(rep.satisfied for rep in reports.values())
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "scenario": scenario_document(scenario, metadata),
        "correlations": {
            name: _rat(v) if isinstance(v, Fraction) else v
            for name, v in zip(("e11", "e12", "e21", "e22"), cors.components())
        },
        "no_signaling": {"holds": nosig.holds, "violations": list(nosig.violations)},
        "families": {fam: _family_doc(rep) for fam, rep in reports.items()},
        "all_satisfied": all_ok,
    }
    verdicts = ", ".join(
        f"{fam}={'ok' if rep.satisfied else 'violated'}" for fam, rep in sorted(reports.items())
    )
    _emit(doc, f"no-signaling={'ok' if nosig.holds else 'violated'}; {verdicts}")
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _witness_doc(verdict) -> dict | None:
    if verdict.witness is None:
        return None
    return {pattern_key(p): _rat(m) for p, m in sorted(verdict.witness.mass.items())}


def cmd_couple(args) -> int:
    modes = [m for m in ("identity", "connections", "range") if getattr(args, m) not in (None, False)]
    if len(modes) > 1:
        raise CliError("at most one of --identity, --connections, --range")
    scenario, metadata = _load_scenario(args.input)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "couple",
        "scenario": scenario_document(scenario, metadata),
    }

    if args.range is not None:
        which = args.range
        if which not in CONNECTION_NAMES:
            raise CliError(f"--range takes one of {CONNECTION_NAMES}, got {which!r}")
        lo, hi = connection_range(scenario, which)
        doc["mode"] = "range"
        doc["range"] = {"connection": which, "lo": _rat(lo), "hi": _rat(hi)}
        _emit(doc, f"connection {which} expectation range: [{lo}, {hi}]")
        return EXIT_OK

    if args.identity:
        doc["mode"] = "identity"
        verdict = identity_coupling_exists(scenario)
    elif args.connections is not None:
        targets, meta = _parse_four(args.connections, "--connections")
        conn = ConnectionVector(*targets)
        doc["mode"] = "connections"
        doc["connections"] = {
            name: _rat(v) for name, v in zip(CONNECTION_NAMES, conn.rational_components())
        }
        if meta:
            doc["metadata"] = meta
        verdict = coupling_exists(scenario, conn)
    else:
        # no mode flag: plain existence under the marginal constraints only
        doc["mode"] = "existence"
        verdict = coupling_exists(scenario)

    doc["feasible"] = verdict.feasible
    doc["witness"] = _witness_doc(verdict)
    _emit(doc, f"coupling {'exists' if verdict.feasible else 'does not exist'} (mode {doc['mode']})")
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def cmd_connections(args) -> int:
    targets, meta = _parse_four(args.conn, "--conn")
    conn = exact_connection(ConnectionVector(*targets))
    runner = {"fitting": test_fitting, "forcing": test_forcing, "equivalent": test_equivalent}[
        args.role
    ]
    result = runner(conn, args.family, args.seed, args.n)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "connections",
        "conn": {name: _rat(v) for name, v in zip(CONNECTION_NAMES, conn.rational_components())},
        "family": result.family,
        "role": result.role,
        "n": args.n,
        "seed": args.seed,
        "verdict": result.verdict,
        "samples_checked": result.samples_checked,
        "counterexample": None,
    }
    if meta:
        doc["metadata"] = meta
    if result.counterexample is not None:
        s, detail = result.counterexample
        doc["counterexample"] = {"scenario": scenario_document(s), "detail": detail}
    _emit(
        doc,
        f"{args.role} for {args.family}: {result.verdict} "
        f"({result.samples_checked} samples checked)",
    )
    return EXIT_OK if result.verdict else EXIT_NEGATIVE


def cmd_conditionalize(args) -> int:
    scenario, metadata = _load_scenario(args.input)
    toks = args.pi.split(",")
    if len(toks) != 4:
        raise CliError(f"--pi: expected four comma-separated components, got {len(toks)}")
    try:
        values = [Fraction(t.strip()) for t in toks]
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--pi: cannot parse {args.pi!r}; components must be rationals") from None
    pi = ConditionDistribution({ctx: v for ctx, v in zip(CONTEXTS, values)})
    cc = build_conditional(args.kind, scenario, pi)
    ok = verify_conditionals(cc, scenario)
    table = {key: {} for key in _CTX_KEYS}
    for (ctx, pattern), v in sorted(cc.table.items()):
        table[f"{ctx[0]}{ctx[1]}"][pattern_key(pattern)] = _rat(v)
    marginal = cc.condition_marginal()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "conditionalize",
        "scenario": scenario_document(scenario, metadata),
        "kind": args.kind,
        "pi": {key: _rat(pi.pi[ctx]) for key, ctx in zip(_CTX_KEYS, CONTEXTS)},
        "table": table,
        "condition_marginal": {
            key: _rat(marginal[ctx]) for key, ctx in zip(_CTX_KEYS, CONTEXTS)
        },
        "conditionals_verified": ok,
    }
    cells = sum(len(v) for v in table.values())
    _emit(doc, f"{args.kind} construction: {cells} nonzero cells, verified={ok}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _demo_fine(args) -> tuple[dict, str, int]:
    result = fine_agreement_campaign(args.n, args.seed)
    doc = {
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
    return doc, summary, EXIT_OK if result.all_agree else EXIT_NEGATIVE


def _demo_tsirelson(args) -> tuple[dict, str, int]:
    cors = singlet_correlations(*standard_chsh_settings())
    m = float(chsh_max(cors))
    a = arcsin_sum_max(cors)
    bell = family_report("bell", cors)
    ok = (
        abs(m - TSIRELSON_BOUND) <= args.tolerance
        and abs(a - math.pi) <= args.tolerance
        and not bell.satisfied
    )
    doc = {
        "name": "tsirelson-tight",
        "correlations": {
            k: v for k, v in zip(("e11", "e12", "e21", "e22"), map(float, cors.components()))
        },
        "chsh_max": m,
        "chsh_bound": TSIRELSON_BOUND,
        "chsh_delta": abs(m - TSIRELSON_BOUND),
        "arcsin_max": a,
        "arcsin_bound": math.pi,
        "arcsin_delta": abs(a - math.pi),
        "bell_satisfied": bell.satisfied,
        "tolerance": args.tolerance,
    }
    summary = (
        f"standard settings: CHSH max {m:.15f} (bound {TSIRELSON_BOUND:.15f}), "
        f"arcsin max {a:.15f} (bound {math.pi:.15f}), bell violated={not bell.satisfied}"
    )
    return doc, summary, EXIT_OK if ok else EXIT_NEGATIVE


def _demo_uninformative(args) -> tuple[dict, str, int]:
    result = uninformativeness_campaign(args.n, args.seed)
    doc = {
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
    return doc, summary, EXIT_OK if result.all_ok else EXIT_NEGATIVE


def _demo_tree(args) -> tuple[dict, str, int]:
    p = _parse_exact(args.p, "--p")
    q = _parse_exact(args.q, "--q")
    pi_root = _parse_exact(args.pi_root, "--pi-root")
    table = two_condition_tree(p, q, pi_root)
    doc = {
        "name": "tree",
        "p": _rat(p),
        "q": _rat(q),
        "pi_root": _rat(pi_root),
        "table": {
            f"condition={c},outcome={'+' if o > 0 else '-'}": _rat(v)
            for (c, o), v in sorted(table.items())
        },
    }
    branches = ", ".join(f"{k}: {v}" for k, v in doc["table"].items())
    return doc, f"two-condition tree joint table: {branches}", EXIT_OK


def cmd_demo(args) -> int:
    runners = {
        "fine": _demo_fine,
        "tsirelson-tight": _demo_tsirelson,
        "uninformative": _demo_uninformative,
        "tree": _demo_tree,
    }
    body, summary, code = runners[args.name](args)
    doc = {"schema_version": SCHEMA_VERSION, "command": "demo"}
    doc.update(body)
    _emit(doc, summary)
    return code


# ------------------------------------------------------------------ parser


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
    p_check.add_argument("--tolerance", type=float, default=DEFAULT_EPSILON)
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
    p_conn.set_defaults(func=cmd_connections)

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
    p_demo.add_argument(
        "name", choices=["fine", "tsirelson-tight", "uninformative", "tree"]
    )
    p_demo.add_argument("--n", type=int, default=None, help="campaign size override")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--tolerance", type=float, default=DEFAULT_EPSILON)
    p_demo.add_argument("--p", default="1/2", help="tree: first branch success probability")
    p_demo.add_argument("--q", default="1/2", help="tree: second branch success probability")
    p_demo.add_argument("--pi-root", default="3/10", help="tree: probability of the first condition")
    p_demo.set_defaults(func=cmd_demo)

    return parser


# main builds the parser once per process; parsing does not change it
_shared_parser = functools.cache(build_parser)

_DEMO_DEFAULT_N = {"fine": 1000, "uninformative": 500}

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
    if args.subcommand == "demo" and args.n is None:
        args.n = _DEMO_DEFAULT_N.get(args.name, 0)
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    seed = getattr(args, "seed", None)
    if seed is not None and not (0 <= seed < 2**64):
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (CliError, SpincoupleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
