"""The derived second-order q-difference equation, pinned exactly, and the
two-dimensional branch of its solver."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from qaskey import cli
from qaskey import families as fam
from qaskey import qdiff

# sha256 over one line per point: the derived (A, B, C, E), each as
# (lo, numerators, denominator), and the eigenvalues as strings, or the
# error's type and text.  The points are the 3 drawn by each of seeds 0-19,
# built to n = 8, and for Askey-Wilson the +-sqrt(q) pair of EXTRA, where
# ansatz degrees 4 and 5 leave several equations and degree 3 gives one.
DIGESTS = {
    fam.AW: "e59ee8b7fa549d47246fc18f138e8a234c5a4c1018a68df73a239445bae8e029",
    fam.BIGQ: "ce66ecfa5cadb54be13e533d0dfa00d996f72b8ebd00fb15ccb31967eaef88c3",
}
EXTRA = {fam.AW: [fam.aw_spec(F(-4, 5), F(-1, 2), F(-1, 2), F(1, 2), F(1, 4))], fam.BIGQ: []}


def _record(fd):
    try:
        qd = qdiff.derive_second_order_qdiff(fd)
    except (qdiff.NoSolution, qdiff.VerificationFailure) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (tuple((p.lo, p.nums, p.den) for p in (qd.A, qd.B, qd.C, qd.E))
            + (tuple(map(str, qd.lambdas)),))


@pytest.mark.parametrize("family", [fam.AW, fam.BIGQ])
def test_derived_equations_are_pinned(family):
    specs = [s for seed in range(20) for s in fam.sample_specs(family, 3, seed, n_max=8)]
    lines = [repr(_record(fam.build_family(s, 8))) for s in specs + EXTRA[family]]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[family]


def test_two_dim_eigen_ray_branch(tmp_path, monkeypatch):
    # d = 1/2 = sqrt(q): at ansatz degree 4 the solution space stays
    # 2-dimensional, and only one of its eigen-rays verifies at every degree
    dims = []
    real = qdiff._nullspace
    monkeypatch.setattr(qdiff, "_nullspace",
                        lambda rows, width: dims.append(len(b := real(rows, width))) or b)
    rep = tmp_path / "r.json"
    assert cli.main(["verify", "--family", "askey-wilson", "--identity", "all",
                     "--params", "a=-2/3,b=-3/4,c=-1/3,d=1/2,q=1/4",
                     "--no-timestamp", "--report", str(rep)]) == 0
    rows = json.loads(rep.read_text())["results"]
    assert {r["status"] for r in rows if r["identity_id"] == "qdiff-derive"} == {"pass"}
    # one solve per n_rows = 2..5, all at degree 4; degree 5 is never tried
    assert dims == [6, 3, 2, 2]
