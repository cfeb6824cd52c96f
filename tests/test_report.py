"""The report writer against ``json.dumps(doc, indent=2, sort_keys=True)``.

``report.build_report`` and ``report.dump_report`` write each entry's
text straight into the layout the indenting encoder gives.  The oracle
below builds the document the plain way, one dict per entry sorted by
the report's key, and encodes it with the standard library; the two must
give the same bytes on reports that reach every branch of the layout:
failing residuals with integer, negative and Fraction coefficients or
none at all, error entries without a degree, info reports, entries that
share a sort key, params of one or several keys, and the timestamp.
"""

import io
import json
from datetime import datetime, timezone
from fractions import Fraction as F

from hypothesis import given, strategies as st

from qaskey import report
from qaskey.relations import ResidualEntry, VerificationReport


# -- the oracle ------------------------------------------------------------

def naive_doc(reports, seed, degree_cap, timestamp=None) -> dict:
    def text(v):
        v = F(v)
        return f"{v.numerator}/{v.denominator}"

    run = {"seed": seed, "degree_cap": degree_cap}
    if timestamp is not None:
        run["timestamp"] = timestamp
    results = []
    for rep in reports:
        for e in rep.entries:
            if rep.status == "info":
                status = "info"
            else:
                status = "pass" if e.zero else "fail"
            residual = None if e.zero else {"degree": e.degree,
                                            "coeffs": [text(c) for c in e.coeffs or ()]}
            results.append({"identity_id": rep.identity_id, "family": rep.family,
                            "params": {k: text(v) for k, v in rep.params.items()},
                            "n": e.n, "status": status, "residual": residual})
    results.sort(key=lambda r: (r["identity_id"], r["family"],
                                json.dumps(r["params"], sort_keys=True),
                                -1 if r["n"] is None else r["n"]))
    return {"run": run, "results": results}


def naive_bytes(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def naive_csv(doc) -> str:
    return "identity_id,family,n,status\n" + "".join(
        f"{r['identity_id']},{r['family']},{r['n']},{r['status']}\n" for r in doc["results"])


def written(doc, dump=report.dump_report) -> str:
    out = io.StringIO()
    dump(doc, out)
    return out.getvalue()


# -- generated reports -----------------------------------------------------

# few identities, families, keys, values and degrees, so that sort keys
# collide often: equal keys must keep their report order
coeffs = st.lists(st.one_of(st.integers(-9, 9),
                            st.fractions(min_value=-5, max_value=5, max_denominator=9)),
                  max_size=4).map(tuple)
entries = st.one_of(
    st.builds(ResidualEntry, n=st.integers(0, 3), zero=st.just(True)),
    st.builds(ResidualEntry, n=st.integers(0, 3), zero=st.just(False),
              degree=st.integers(0, 12), coeffs=coeffs),
    st.just(ResidualEntry(None, False)),
)
params = st.dictionaries(st.sampled_from(["a", "alpha", "beta", "q", "s"]),
                         st.sampled_from([F(1, 3), F(-1, 2), F(2), F(0), 1]),
                         min_size=1, max_size=4)
reports = st.lists(st.builds(
    VerificationReport,
    identity_id=st.sampled_from(["eq28", "eq41", "qdiff-derive"]),
    family=st.sampled_from(["askey-wilson", "jacobi"]),
    params=params,
    entries=st.lists(entries, max_size=5),
    status=st.sampled_from(["pass", "fail", "info"])), max_size=6)


@given(reports, st.integers(0, 2 ** 40), st.integers(0, 20), st.booleans())
def test_writer_matches_indenting_encoder(reps, seed, degree_cap, timestamp):
    doc = report.build_report(reps, seed, degree_cap, timestamp=timestamp)
    text = written(doc)
    stamp = None
    if timestamp:
        stamp = json.loads(text)["run"]["timestamp"]
        assert datetime.fromisoformat(stamp).utcoffset() == timezone.utc.utcoffset(None)
    naive = naive_doc(reps, seed, degree_cap, stamp)
    assert text == naive_bytes(naive)
    assert written(doc, report.dump_csv) == naive_csv(naive)


def shared_key_reports() -> list:
    """Two reports at one point whose entries share the key of n = 2."""
    point = {"alpha": F(1, 2), "beta": F(-3)}
    return [VerificationReport("coeff-match", "jacobi", point,
                               [ResidualEntry(2, False, 1, (F(-1, 3), 4)),
                                ResidualEntry(None, False)], "fail"),
            VerificationReport("coeff-match", "jacobi", dict(point),
                               [ResidualEntry(2, True), ResidualEntry(1, True)])]


def test_equal_keys_keep_report_order():
    reps = shared_key_reports()
    doc = report.build_report(reps, 7, 16, timestamp=False)
    results = json.loads(written(doc))["results"]
    assert [(r["n"], r["status"]) for r in results] == [
        (None, "fail"), (1, "pass"), (2, "fail"), (2, "pass")]
    assert written(doc) == naive_bytes(naive_doc(reps, 7, 16))


def test_oracle_sees_equal_keys_swapped():
    # negative control: writing the two n = 2 entries in the other order
    # keeps the JSON valid but must not pass the byte comparison
    reps = shared_key_reports()
    run, rows = report.build_report(reps, 7, 16, timestamp=False)
    rows[2], rows[3] = rows[3], rows[2]
    assert rows[2][0] == rows[3][0]
    swapped = written((run, rows))
    json.loads(swapped)
    assert swapped != naive_bytes(naive_doc(reps, 7, 16))


def test_empty_report():
    doc = report.build_report([], 0, 16, timestamp=False)
    assert written(doc) == naive_bytes(naive_doc([], 0, 16))
    assert written(doc, report.dump_csv) == "identity_id,family,n,status\n"


def test_report_without_entries_next_to_others():
    # an empty report gives no row; an empty run still writes "results": []
    point = {"q": F(1, 2)}
    empty = VerificationReport("eq28", "jacobi", point, [])
    full = VerificationReport("eq41", "jacobi", point, [ResidualEntry(1, True)])
    for reps in ([empty], [empty, full], [full, empty], [empty, full, empty]):
        doc = report.build_report(reps, 3, 16, timestamp=False)
        text = written(doc)
        assert text == naive_bytes(naive_doc(reps, 3, 16)), reps
        assert written(doc, report.dump_csv) == naive_csv(naive_doc(reps, 3, 16))
    assert '"results": [],' in written(report.build_report([empty, empty], 3, 16,
                                                             timestamp=False))


def test_key_shared_by_info_and_pass_reports():
    # one key, two statuses: each entry keeps its own report's status
    point = {"a": F(1, 3), "q": F(1, 2)}
    reps = [VerificationReport("eq73", "askey-wilson", point,
                               [ResidualEntry(0, True), ResidualEntry(2, False, 0, (F(1, 5),))],
                               "info"),
            VerificationReport("eq73", "askey-wilson", dict(point),
                               [ResidualEntry(1, True), ResidualEntry(2, True)])]
    doc = report.build_report(reps, 7, 16, timestamp=False)
    results = json.loads(written(doc))["results"]
    assert [(r["n"], r["status"]) for r in results] == [
        (0, "info"), (1, "pass"), (2, "info"), (2, "pass")]
    assert written(doc) == naive_bytes(naive_doc(reps, 7, 16))
    assert written(doc, report.dump_csv) == naive_csv(naive_doc(reps, 7, 16))
