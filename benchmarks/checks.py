"""Correctness checks on the JSON reports that ``qaskey verify`` writes.

They read the reports only: the identity domain of each family is
written out here rather than taken from qaskey, and the structure
relations are re-checked by the independent :mod:`oracle`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction

from oracle import STRUCTURE_IDS, Oracle

_EVERY = ("eq28", "eq31", "eq32", "eq71", "coeff-match", "eigen", "gamma-lambda",
          "commutator", "skew-l", "sym-d", "sym-x", "orthogonality", "dual-path")

#: identities ``verify --identity all`` runs on each family
DOMAIN = {
    "askey-wilson": _EVERY + ("eq18", "eq76", "eq77", "bangerezako", "eq73",
                              "sklyanin", "qdiff-derive", "d-from-l"),
    "jacobi": _EVERY + ("eq26", "eq02", "d-from-l", "string"),
    "continuous-q-jacobi": _EVERY + ("eq59", "eq59t", "d-from-l"),
    "continuous-q-ultraspherical": _EVERY + ("eq54", "eq51", "eq52", "eq53", "eq55",
                                             "qdiff2", "combo54", "eq53-nonskew",
                                             "d-from-l"),
    "big-q-jacobi": _EVERY + ("eq40", "eq42", "eq41", "qdiff-derive"),
}

#: informational identities: recorded, never asserted
INFO = ("eq73",)


def cli_family(report_family: str) -> str:
    """The command-line family name of a report's family field (continuous
    q-Jacobi reports carry the embedding, ``continuous-q-jacobi-e49``)."""
    for name in DOMAIN:
        if report_family == name or report_family.startswith(name + "-e"):
            return name
    return report_family


def _point(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def _sampled_key(params: dict) -> tuple:
    """eq73 re-anchors an Askey-Wilson point at q' = q^2: the key its
    entries carry for the sampled point ``params``."""
    q2 = Fraction(params["q"]) ** 2
    return _point({**params, "q": f"{q2.numerator}/{q2.denominator}"})


class Tally:
    """Counts asserted entries and collects problems across reports."""

    def __init__(self):
        self.asserted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def check_report(doc: dict, families: tuple, samples: int, n_max: int,
                 identity: str, tally: Tally) -> None:
    """Check one report of ``verify --family F --identity I --samples K``.

    Every asserted entry must pass; each of the ``samples`` points of each
    family must carry every identity of its domain (``identity='all'``)
    or the one identity asked for, with at least one asserted entry each
    except the informational ones.  Structure-relation entries of the
    oracle's families are re-checked pointwise, and the oracle's negative
    control must fire once per point.
    """
    by_point = defaultdict(lambda: defaultdict(list))
    for row in doc.get("results", ()):
        by_point[(cli_family(row["family"]), _point(row["params"]))][row["identity_id"]].append(row)
        if row["status"] == "info":
            continue
        tally.asserted += 1
        if row["status"] != "pass":
            tally.failed += 1
            if row["status"] != "fail":
                tally.problem(f"unknown status {row['status']!r}")

    for family in families:
        wanted = DOMAIN[family] if identity == "all" else (identity,)
        points = {key[1]: ids for key, ids in by_point.items() if key[0] == family}
        sampled = [p for p, ids in points.items()
                   if set(ids) - set(INFO)]
        if len(sampled) != samples:
            tally.problem(f"{family}: {len(sampled)} points, expected {samples}")
        for pt in sampled:
            ids = points[pt]
            anchored = points.get(_sampled_key(dict(pt)), {}) if family == "askey-wilson" else {}
            for ident in wanted:
                rows = ids.get(ident) or anchored.get(ident)
                if not rows:
                    tally.problem(f"{family} {dict(pt)}: no {ident} entry")
                elif ident not in INFO and not any(r["status"] != "info" for r in rows):
                    tally.problem(f"{family} {dict(pt)}: {ident} asserts nothing")
            if identity == "eq28" and len(ids.get("eq28", ())) != n_max:
                tally.problem(f"{family} {dict(pt)}: {len(ids.get('eq28', ()))} eq28 "
                              f"entries, expected {n_max}")
            _oracle(family, pt, ids, tally)


def _oracle(family: str, pt: tuple, ids: dict, tally: Tally) -> None:
    if family not in STRUCTURE_IDS:
        return
    oracle = Oracle(family, dict(pt))
    checked = None
    for ident in STRUCTURE_IDS[family]:
        for row in ids.get(ident, ()):
            if row["status"] != "pass":
                continue
            at = oracle.mismatch(row["n"])
            if at is not None:
                tally.problem(f"oracle: {ident} {family} {dict(pt)} n={row['n']} "
                              f"differs at {at}")
            checked = row["n"]
    if checked is not None and oracle.mismatch(checked, perturb=True) is None:
        tally.problem(f"oracle negative control did not fire: {family} {dict(pt)}")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
