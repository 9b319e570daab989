"""Independent checks of the answers the benchmark receives.

Each check returns None when the answer is right and a one-line reason
when it is not.  The arithmetic here is the benchmark's own and exact; it
reuses from spincouple only the established references:
coupling_from_pattern_map to rebuild witnesses, bell_ch_fine for Fine's
theorem and the S1'/S2' predicates for set-role verdicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

CTX_KEYS = ("11", "12", "21", "22")
CELL_SIGNS = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}
CONNECTIONS = ("A1", "A2", "B1", "B2")
# witness pattern order: a11 a12 a21 a22 b11 b12 b21 b22
_PAIR_POS = {"11": (0, 4), "12": (1, 5), "21": (2, 6), "22": (3, 7)}
_CONN_POS = {"A1": (0, 1), "A2": (2, 3), "B1": (4, 6), "B2": (5, 7)}
# one minus sign: the four CHSH expressions
_CHSH_SIGNS = ((1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1))
_ODD_SIGNS_8 = tuple(s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 1)


def cells(doc: dict) -> dict[str, dict[tuple[int, int], Fraction]]:
    """Scenario document -> {context key: {(a, b): probability}}."""
    return {
        key: {CELL_SIGNS[c]: Fraction(v) for c, v in doc["pairs"][key].items()}
        for key in CTX_KEYS
    }


def correlations(sc) -> tuple[Fraction, ...]:
    return tuple(sum(a * b * p for (a, b), p in sc[key].items()) for key in CTX_KEYS)


def plus_marginals(sc) -> dict[str, tuple[Fraction, Fraction]]:
    """Context key -> (Pr[A = +1], Pr[B = +1])."""
    return {
        key: (
            sum(p for (a, _), p in sc[key].items() if a == 1),
            sum(p for (_, b), p in sc[key].items() if b == 1),
        )
        for key in CTX_KEYS
    }


def no_signaling(sc) -> bool:
    m = plus_marginals(sc)
    return (
        m["11"][0] == m["12"][0]
        and m["21"][0] == m["22"][0]
        and m["11"][1] == m["21"][1]
        and m["12"][1] == m["22"][1]
    )


def uniform(sc) -> bool:
    half = Fraction(1, 2)
    return all(a == half and b == half for a, b in plus_marginals(sc).values())


def bell_holds(e) -> bool:
    return all(abs(sum(s * v for s, v in zip(signs, e))) <= 2 for signs in _CHSH_SIGNS)


def cycle_feasible(e, conn) -> bool:
    """Uniform-marginal coupling with connection targets conn = (A1, A2, B1,
    B2) exists iff the edge vector of the cycle a11-b11-b21-a21-a22-b22-b12-a12
    meets every cycle inequality: the sum of its entries with an odd number
    of them negated is at most 6 (cut polytope of a cycle)."""
    e11, e12, e21, e22 = e
    cA1, cA2, cB1, cB2 = conn
    edges = (e11, cB1, e21, cA2, e22, cB2, e12, cA1)
    return all(sum(s * x for s, x in zip(signs, edges)) <= 6 for signs in _ODD_SIGNS_8)


def frechet_range(p: Fraction, q: Fraction) -> tuple[Fraction, Fraction]:
    """Range of E[XY] for +-1 variables with Pr[X=1]=p, Pr[Y=1]=q."""
    lo = max(Fraction(0), p + q - 1)
    hi = min(p, q)
    return 4 * lo - 2 * p - 2 * q + 1, 4 * hi - 2 * p - 2 * q + 1


def connection_marginals(sc) -> dict[str, tuple[Fraction, Fraction]]:
    m = plus_marginals(sc)
    return {
        "A1": (m["11"][0], m["12"][0]),
        "A2": (m["21"][0], m["22"][0]),
        "B1": (m["11"][1], m["21"][1]),
        "B2": (m["12"][1], m["22"][1]),
    }


def _witness(doc: dict, sc, targets) -> str | None:
    """Rebuild the witness; it must reproduce every pair marginal and, when
    targets are given, every connection expectation exactly."""
    from spincouple import coupling_from_pattern_map

    witness = doc.get("witness")
    if not isinstance(witness, dict):
        return "feasible verdict without a witness"
    coupling = coupling_from_pattern_map(witness)  # mass sums to 1, no negatives
    pair = {key: {} for key in CTX_KEYS}
    conn = dict.fromkeys(CONNECTIONS, Fraction(0))
    for pattern, mass in coupling.mass.items():
        for key, (u, v) in _PAIR_POS.items():
            cell = (pattern[u], pattern[v])
            pair[key][cell] = pair[key].get(cell, Fraction(0)) + mass
        for name, (u, v) in _CONN_POS.items():
            conn[name] += pattern[u] * pattern[v] * mass
    for key in CTX_KEYS:
        for cell, p in sc[key].items():
            if pair[key].get(cell, Fraction(0)) != p:
                return f"witness marginal of context {key} cell {cell} is off"
    if targets is not None:
        for name, t in zip(CONNECTIONS, targets):
            if conn[name] != t:
                return f"witness gives E[{name}] = {conn[name]}, asked {t}"
    return None


def check_connections(doc, code, sc, targets, uniform_scenario) -> tuple[str | None, bool]:
    """(failure, verified): infeasible verdicts are verified by the cycle
    inequalities on uniform scenarios and by pairwise Frechet bounds
    elsewhere; an infeasible verdict neither can certify counts as
    unverified, not as failed."""
    if doc.get("mode") != "connections":
        return "wrong mode", False
    echoed = tuple(Fraction(doc["connections"][n]) for n in CONNECTIONS)
    if echoed != tuple(targets):
        return f"targets echoed as {echoed}, asked {tuple(targets)}", False
    feasible = doc["feasible"]
    if code != (0 if feasible else 1):
        return f"exit code {code} for feasible={feasible}", False
    if uniform_scenario:
        expected = cycle_feasible(correlations(sc), targets)
        if feasible != expected:
            return f"verdict {feasible}, cycle inequalities say {expected}", False
    if feasible:
        return _witness(doc, sc, targets), True
    if uniform_scenario:
        return None, True
    margins = connection_marginals(sc)
    for name, t in zip(CONNECTIONS, targets):
        lo, hi = frechet_range(*margins[name])
        if not lo <= t <= hi:
            return None, True
    return None, False


def check_identity(doc, code, sc) -> str | None:
    from spincouple import bell_ch_fine

    feasible = doc["feasible"]
    if doc.get("mode") != "identity" or code != (0 if feasible else 1):
        return f"mode {doc.get('mode')} / exit code {code} for feasible={feasible}"
    if not no_signaling(sc):
        if feasible:
            return "identity coupling reported for a signaling scenario"
        return None
    if uniform(sc):
        fine = bell_ch_fine(correlations(sc)).satisfied
        if feasible != fine:
            return f"identity verdict {feasible}, Fine's theorem says {fine}"
    if feasible:
        return _witness(doc, sc, (1, 1, 1, 1))
    return None


def check_existence(doc, code, sc) -> str | None:
    if doc.get("mode") != "existence" or code != 0 or doc["feasible"] is not True:
        return f"plain existence must hold: mode {doc.get('mode')}, exit {code}"
    return _witness(doc, sc, None)


def check_range(doc, code, sc, which) -> str | None:
    rng = doc.get("range") or {}
    if code != 0 or rng.get("connection") != which:
        return f"range of {which}: exit {code}, answered {rng.get('connection')}"
    lo, hi = Fraction(rng["lo"]), Fraction(rng["hi"])
    p, q = connection_marginals(sc)[which]
    product_expectation = (2 * p - 1) * (2 * q - 1)
    if not -1 <= lo <= product_expectation <= hi <= 1:
        return f"product-coupling expectation {product_expectation} outside [{lo}, {hi}]"
    return None


def check_check(doc, code, sc) -> str | None:
    e = correlations(sc)
    got = tuple(Fraction(doc["correlations"][k]) for k in ("e11", "e12", "e21", "e22"))
    if got != e:
        return f"correlations {got}, expected {e}"
    if doc["no_signaling"]["holds"] != no_signaling(sc):
        return "no-signaling verdict is wrong"
    if doc["families"]["bell"]["satisfied"] != bell_holds(e):
        return "bell verdict is wrong"
    tsirelson = max(abs(sum(s * float(v) for s, v in zip(signs, e))) for signs in _CHSH_SIGNS)
    if doc["families"]["tsirelson"]["satisfied"] != (tsirelson <= 2 * math.sqrt(2) + 1e-9):
        return "tsirelson verdict is wrong"
    if code != (0 if doc["all_satisfied"] else 1):
        return f"exit code {code} for all_satisfied={doc['all_satisfied']}"
    return None


def check_conditionalize(doc, code, sc, kind, pi) -> str | None:
    """Recompute every conditional of the relevant pair from the table."""
    if code != 0 or doc.get("conditionals_verified") is not True or doc.get("kind") != kind:
        return f"conditionalize {kind}: exit {code}, verified={doc.get('conditionals_verified')}"
    for n, key in enumerate(CTX_KEYS):
        i, j = int(key[0]), int(key[1])
        weight = Fraction(0)
        pair: dict[tuple[int, int], Fraction] = {}
        for pattern_key, v in doc["table"][key].items():
            signs = [{"+": 1, "-": -1, "0": 0}[ch] for ch in pattern_key]
            rel = (signs[i - 1], signs[2 + j - 1])
            mass = Fraction(v)
            weight += mass
            pair[rel] = pair.get(rel, Fraction(0)) + mass
        if weight != pi[n]:
            return f"condition {key} carries {weight}, pi asks {pi[n]}"
        for cell, p in sc[key].items():
            if pair.get(cell, Fraction(0)) / weight != p:
                return f"conditional of context {key} cell {cell} is off"
    return None


def check_set_role(doc, code, conn, family, n) -> str | None:
    from spincouple import satisfies_s1_prime, satisfies_s2_prime

    verdict = doc["verdict"]
    if code != (0 if verdict else 1) or doc["role"] != "equivalent" or doc["family"] != family:
        return f"connections: exit {code} for verdict={verdict}"
    if not 1 <= doc["samples_checked"] <= 2 * n:
        return f"samples_checked {doc['samples_checked']} outside [1, {2 * n}]"
    if verdict == (doc["counterexample"] is not None):
        return "counterexample presence disagrees with the verdict"
    if family == "bell":
        expected = satisfies_s1_prime(conn)
    elif family == "quantum":
        expected = False  # no random vector is quantum-equivalent
    else:
        expected = satisfies_s2_prime(conn)
    if verdict != expected:
        return f"{family} equivalence verdict {verdict}, expected {expected}"
    return None
