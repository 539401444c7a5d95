"""Reports on barcodes with pi endpoints stay as recorded, byte for byte.

``pi_keys_golden.json`` holds 30 seeded pairs of bar files of 1 to 20 bars a
side, pi pairs, pi against Fraction pairs and pi barcodes against near
copies, with the stdout of ``bottleneck`` under each of its four flag sets,
and the stdout of ``radial --homotopy`` on the bundled fold family.  A
distance, shift or endpoint read back with another type (``"1/2"`` for
``["1/2", "0"]``) or another value fails.

Run ``python tests/test_pi_keys.py`` to rewrite the golden file, only for a
change of output that is meant.
"""

import json
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from floerbar.cli import main
from floerbar.oracles import _near_copy, _scan_pair

GOLDEN = Path(__file__).with_name("pi_keys_golden.json")
FLAG_SETS = ((), ("--mod-shift",), ("--degree-blind",), ("--mod-shift", "--degree-blind"))


def _pairs():
    """Seed k draws a pi pair of 1 + k % 20 bars a side; on k = 1 mod 3 its
    first side goes against the second of a Fraction pair, swapped on odd k,
    and on k = 2 mod 3 against a copy of it moved by at most 1/10 or 1/100."""
    for k in range(30):
        rng = random.Random(k)
        n = 1 + k % 20
        a, b = _scan_pair(rng, n, True)
        if k % 3 == 1:
            b = _scan_pair(rng, n, False)[1]
            if k % 2:
                a, b = b, a
        elif k % 3 == 2:
            b = _near_copy(rng, a, Fraction(1, rng.choice((10, 100))))
        yield [{"bars": [bar.to_json() for bar in x.bars]} for x in (a, b)]


def _stdout(files: dict, *args) -> str:
    """stdout of the command ``args`` run in an empty directory holding
    ``files``, name -> text, so the report names the same paths anywhere."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in files.items():
            Path(name).write_text(text)
        result = runner.invoke(main, list(args))
    assert result.exception is None or isinstance(result.exception, SystemExit)
    return result.stdout


def _bottleneck_runs(pair) -> list:
    files = {f"{name}.json": json.dumps(data) for name, data in zip("ab", pair)}
    return [_stdout(files, "bottleneck", "a.json", "b.json", *flags) for flags in FLAG_SETS]


def _radial_homotopy() -> str:
    family = resources.files("floerbar").joinpath("fixtures", "radial_fold_family.json")
    return _stdout({"family.json": family.read_text()}, "radial", "family.json", "--homotopy")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("k", range(30))
def test_bottleneck_reports_match_golden(k):
    case = _golden()["bottleneck"][k]
    assert _bottleneck_runs(case["files"]) == case["stdout"]


def test_radial_homotopy_report_matches_golden():
    assert _radial_homotopy() == _golden()["radial_homotopy"]


if __name__ == "__main__":
    cases = [{"files": pair, "stdout": _bottleneck_runs(pair)} for pair in _pairs()]
    GOLDEN.write_text(json.dumps({"bottleneck": cases, "radial_homotopy": _radial_homotopy()},
                                 indent=1) + "\n")
