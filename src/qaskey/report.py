"""JSON report serialization.

Schema (field names are part of the interface):

    {
      "run": {"seed": ..., "degree_cap": ..., "timestamp": ...},
      "results": [
        {"identity_id": ..., "family": ..., "params": {name: "num/den"},
         "n": ..., "status": "pass"|"fail"|"info",
         "residual": null | {"degree": ..., "coeffs": ["num/den", ...]}}
      ]
    }

Rationals always serialize as exact "num/den" strings, never floats, so
a report is a reproducible input.  With the timestamp suppressed, the
same seed and configuration produce a byte-identical file.

The file is written entry by entry, in the layout that
``json.dumps(doc, indent=2, sort_keys=True)`` gives.  What the writer
holds grows with reports and points, not entries: one row per report
holds that report's entries, the identity and family text is built once
per (identity, family) and the params text once per point, and an
entry's own text (its n, residual and status) is rendered as it is
written, so no entry dict, entry text or whole-report string is ever
held.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

#: json.dumps of an int or None; typed, so that True never reads as 1
_num = lru_cache(maxsize=256, typed=True)(json.dumps)

#: ``"status": ...`` closing an entry, by status
_STATUS_TAIL = {s: f',\n      "status": {_str(s)}\n    }}' for s in ("pass", "fail", "info")}


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def _block(items, indent: str, brackets: str) -> str:
    """A JSON array or object of the item texts ``items``, laid out as
    ``indent=2`` lays it out with its items at ``indent``."""
    if not items:
        return brackets
    return (f"{brackets[0]}\n{indent}" + f",\n{indent}".join(items)
            + f"\n{indent[:-2]}{brackets[1]}")


def _residual(entry) -> str:
    if entry.zero:
        return "null"
    coeffs = _block([_str(frac_str(c)) for c in entry.coeffs or ()], " " * 10, "[]")
    return _block([f'"coeffs": {coeffs}', f'"degree": {_num(entry.degree)}'],
                  " " * 8, "{}")


def build_report(reports, seed, degree_cap, timestamp: bool = True) -> tuple:
    """``(run, rows)``: the text of the run object, and the entries in
    report order as rows of one report each.

    A row is ``(form, entries)``: ``entries`` are one report's
    :class:`~qaskey.relations.ResidualEntry` records, sorted by n, and
    ``form`` is ``(identity_id, family, head, mid, statuses)``.  ``head``
    is an entry's text up to its n, ``mid`` the text between n and the
    residual, and ``statuses[entry.zero]`` its status.  ``head`` is built
    once per (identity, family), and ``mid`` and the sort key once per
    params mapping, so the reports of one point share them.  Reports are
    stably sorted by (identity_id, family, the params'
    ``json.dumps(..., sort_keys=True)``); the entries of reports that
    share such a key are then stably sorted by n, None first, each one
    keeping its own report's form.  A report without entries gives no row.
    """
    run = [f'"degree_cap": {_num(degree_cap)}', f'"seed": {_num(seed)}']
    if timestamp:
        from datetime import datetime, timezone

        run.append(f'"timestamp": {_str(datetime.now(timezone.utc).isoformat())}')
    heads, points = {}, {}
    keyed = []
    for rep in reports:
        head = heads.get((rep.identity_id, rep.family))
        if head is None:
            head = heads[rep.identity_id, rep.family] = (
                f'    {{\n      "family": {_str(rep.family)},\n'
                f'      "identity_id": {_str(rep.identity_id)},\n      "n": ')
        # keyed by id, as the reports of one point share one params
        # mapping; the value holds the mapping, so no other takes its id
        point = points.get(id(rep.params))
        if point is None:
            params = {k: frac_str(v) for k, v in sorted(rep.params.items())}
            mid = (",\n      \"params\": "
                   + _block([f"{_str(k)}: {_str(v)}" for k, v in params.items()], " " * 8, "{}")
                   + ',\n      "residual": ')
            point = points[id(rep.params)] = (rep.params, json.dumps(params, sort_keys=True), mid)
        _, key, mid = point
        statuses = ("info", "info") if rep.status == "info" else ("fail", "pass")
        keyed.append(((rep.identity_id, rep.family, key),
                      (rep.identity_id, rep.family, head, mid, statuses), rep.entries))
    keyed.sort(key=itemgetter(0))
    rows = []
    for _, group in groupby(keyed, itemgetter(0)):
        # the entries of the reports that share a key, stably by n; a row
        # holds a run of consecutive entries of one report
        for form, e in sorted(((form, e) for _, form, entries in group for e in entries),
                              key=lambda row: -1 if row[1].n is None else row[1].n):
            if rows and rows[-1][0] is form:
                rows[-1][1].append(e)
            else:
                rows.append((form, [e]))
    return _block(run, " " * 4, "{}"), rows


def dump_report(doc: tuple, fh) -> None:
    """Write the report ``doc`` of :func:`build_report` to the text file
    ``fh``, rendering each entry's text as it goes."""
    run, rows = doc
    write = fh.write
    write('{\n  "results": [')
    sep = "\n"
    for (_, _, head, mid, statuses), entries in rows:
        for e in entries:
            write(f"{sep}{head}{_num(e.n)}{mid}{_residual(e)}{_STATUS_TAIL[statuses[e.zero]]}")
            sep = ",\n"
    write("\n  ],\n" if rows else "],\n")
    write(f'  "run": {run}\n}}\n')


def dump_csv(doc: tuple, fh) -> None:
    """Write one ``identity_id,family,n,status`` line per report entry."""
    fh.write("identity_id,family,n,status\n")
    for (ident, family, _, _, statuses), entries in doc[1]:
        for e in entries:
            fh.write(f"{ident},{family},{e.n},{statuses[e.zero]}\n")


def summary_lines(reports) -> list:
    """One human-readable line per (identity, family): pass/fail counts."""
    agg = {}
    for rep in reports:
        key = (rep.identity_id, rep.family)
        ok, bad = agg.get(key, (0, 0))
        for e in rep.entries:
            if e.zero:
                ok += 1
            else:
                bad += 1
        if rep.status == "info":
            bad = 0
        agg[key] = (ok, bad)
    lines = []
    for (ident, family), (ok, bad) in sorted(agg.items()):
        verdict = "PASS" if bad == 0 else "FAIL"
        lines.append(f"{verdict} {ident:14s} {family:28s} {ok} zero / {bad} nonzero residuals")
    return lines
