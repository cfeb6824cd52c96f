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
``json.dumps(doc, indent=2, sort_keys=True)`` gives: each entry's text
is built once, in place at depth 2 of the document, and no entry dict
or whole-report string is ever made.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _str

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
    """``(run, rows)``: the text of the run object, and one row per entry
    in report order.

    A row is ``(key, text, n, status)``.  ``key`` is (identity_id, family,
    the params' ``json.dumps(..., sort_keys=True)``, n or -1), and the
    rows are stably sorted by it; ``text`` is the entry as it stands in
    the report; ``n`` and ``status`` complete the CSV line.
    """
    run = [f'"degree_cap": {_num(degree_cap)}', f'"seed": {_num(seed)}']
    if timestamp:
        from datetime import datetime, timezone

        run.append(f'"timestamp": {_str(datetime.now(timezone.utc).isoformat())}')
    rows = []
    for rep in reports:
        params = {k: frac_str(v) for k, v in sorted(rep.params.items())}
        pkey = json.dumps(params, sort_keys=True)
        head = (f'    {{\n      "family": {_str(rep.family)},\n'
                f'      "identity_id": {_str(rep.identity_id)},\n      "n": ')
        mid = (",\n      \"params\": "
               + _block([f"{_str(k)}: {_str(v)}" for k, v in params.items()], " " * 8, "{}")
               + ',\n      "residual": ')
        for e in rep.entries:
            status = rep.status if rep.status == "info" else ("pass" if e.zero else "fail")
            rows.append(((rep.identity_id, rep.family, pkey, -1 if e.n is None else e.n),
                         f"{head}{_num(e.n)}{mid}{_residual(e)}{_STATUS_TAIL[status]}",
                         e.n, status))
    rows.sort(key=lambda row: row[0])
    return _block(run, " " * 4, "{}"), rows


def dump_report(doc: tuple, fh) -> None:
    """Write the report ``doc`` of :func:`build_report` to the text file
    ``fh``, one entry at a time."""
    run, rows = doc
    write = fh.write
    write('{\n  "results": [')
    sep = "\n"
    for row in rows:
        write(sep)
        write(row[1])
        sep = ",\n"
    write("\n  ],\n" if rows else "],\n")
    write(f'  "run": {run}\n}}\n')


def dump_csv(doc: tuple, fh) -> None:
    """Write one ``identity_id,family,n,status`` line per report entry."""
    fh.write("identity_id,family,n,status\n")
    for (ident, family, _, _), _, n, status in doc[1]:
        fh.write(f"{ident},{family},{n},{status}\n")


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
