"""``cli.IDENTITIES`` is the one statement of the identity vocabulary.

The benchmark keeps its own copies on purpose, since it reads reports and
never imports qaskey; these tests pin them, and the README's table of
keys, to the registry.  They also check the degree guard every
per-degree checker shares.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from qaskey import cli
from qaskey import families as fam
from qaskey import registry

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"


def _bench_module(name):
    """benchmarks/<name>.py loaded by path (checks.py imports oracle.py by
    plain name, so benchmarks/ is on sys.path while it loads)."""
    spec = importlib.util.spec_from_file_location(f"qaskey_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(BENCH))
    return mod


def _keys(family):
    return {key for key, (families, _) in cli.IDENTITIES.items() if family in families}


def test_benchmark_domain_is_the_registry():
    checks = _bench_module("checks")
    assert set(checks.DOMAIN) == set(fam.CLI_FAMILIES)
    for family in fam.CLI_FAMILIES:
        assert set(checks.DOMAIN[family]) == _keys(family), family


def test_benchmark_info_is_the_registry():
    checks = _bench_module("checks")
    assert set(checks.INFO) == {key for key, (_, check) in cli.IDENTITIES.items()
                                if check.info}


def test_tracer_keys_are_the_registry():
    assert set(_bench_module("tracer").IDENTITY_KEYS) == set(cli.IDENTITIES)


def test_traced_run_times_every_identity(tmp_path):
    tracer = _bench_module("tracer").Tracer()
    flags = ["--samples", "1", "--seed", "1", "--n-max", "2", "--degree-cap", "2",
             "--no-timestamp", "--report", str(tmp_path / "r.json")]
    with tracer:
        assert cli.main(["verify", "--family", "all", "--identity", "all", *flags]) == 0
    assert tracer.missing == set()
    calls = {name: c for name, (c, _, _) in tracer.self_times().items()}
    assert [key for key in cli.IDENTITIES if not calls.get(f"relations.{key}")] == []


def test_readme_identity_table_is_the_registry():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Identity keys", 1)[1].split("\n\n", 2)[1]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert keys == set(cli.IDENTITIES)


@pytest.fixture(scope="module")
def points():
    """The first seed-1 sample of each command-line family, to degree 8."""
    return {f: fam.build_family(fam.sample_specs(f, 1, seed=1, n_max=8)[0], 8)
            for f in fam.CLI_FAMILIES}


@pytest.mark.parametrize("key", [key for key, (_, check) in cli.IDENTITIES.items()
                                 if check.domain in registry.PER_DEGREE])
def test_per_degree_check_rejects_degrees_off_its_point(points, key):
    # n = -1 would read p_{-1} and lam_{-1}, the top entries; n_max + 1 runs
    # past the stored data
    families, check = cli.IDENTITIES[key]
    args = cli.make_parser().parse_args(["verify"])
    fd, _ = registry.DOMAINS[check.domain](points[families[0]], args)
    for n in (-1, fd.n_max + 1):
        with pytest.raises(ValueError, match=key):
            check.run(fd, [n])
