"""The seeded samplers: frozen streams, and the planted-complex scan against
its Fraction oracle.

Benchmark inputs and every randomized test are drawn from these samplers,
so a seeded draw must never change.  The digests below were taken from the
samplers before the partner scan of ``random_complex`` moved to int keys.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from floerbar import oracles
from floerbar.complexes import complex_to_json
from floerbar.novikov import NovikovSpec
from floerbar.sampling import (perturb_actions, random_barcode, random_complex,
                               random_sphere_diagram, random_tent_spectrum,
                               random_unroll_case)

_COMPLEX_SPECS = (None, NovikovSpec("q", 3, F(2, 3)), NovikovSpec("t", 1, F(5, 7)))


def _window(w):
    return None if w is None else [str(x) for x in w]


def _payloads():
    """One JSON-able list of seeded draws per sampler."""
    out = {}
    for i, spec in enumerate(_COMPLEX_SPECS):
        rng = random.Random(100 + i)
        draws = []
        for n in (1, 7, 40, 90):
            cx, planted = random_complex(rng, n, spec)
            draws.append([complex_to_json(cx), planted.to_json()])
        draws.append(rng.random())
        out[f"random_complex/{i}"] = draws
    rng = random.Random(7)
    draws = []
    for n in (5, 30, 80):
        cx, _ = random_complex(rng, n)
        moved, used = perturb_actions(rng, cx, F(1, 10))
        draws.append([complex_to_json(moved), str(used)])
    out["perturb_actions"] = draws
    rng = random.Random(11)
    out["random_barcode"] = [random_barcode(rng, 12).to_json() for _ in range(20)]
    rng = random.Random(13)
    out["random_unroll_case"] = [
        [complex_to_json(cx), _window(aw), _window(dw)]
        for cx, aw, dw in (random_unroll_case(rng) for _ in range(20))]
    rng = random.Random(17)
    out["random_sphere_diagram"] = [random_sphere_diagram(rng, c).to_json()
                                    for c in (2, 4, 6, 8, 10)]
    rng = random.Random(19)
    spectra = [random_tent_spectrum(rng) for _ in range(10)]
    out["random_tent_spectrum"] = [
        [[s.params.dim, s.params.maslov, str(s.params.disk_area)],
         [[e.degree, str(e.action), list(e.source), e.k] for e in s.entries]]
        for s in spectra]
    return out


def _digests():
    return {name: hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            for name, payload in _payloads().items()}


FROZEN = {
    "random_complex/0": "ca8668cc1fb6cfc07cff518ab4b9babd4ff011fd493e0349a2823015ef8ee3af",
    "random_complex/1": "2856e4bb6b7da8f477b0531b05cfdaeef78ff5002b38358a64100a9d9ffcdc3e",
    "random_complex/2": "970886bd6c53b4db1eb0b589226990bc29108b1bd1dc51bd5782f2bc0893d5a5",
    "perturb_actions": "a36814147ecd04eaa11103ced8f2f95375d5fcc22faa2858fe38376462c8291f",
    "random_barcode": "136af53e7eff717b19bce8781eb9b4a244a7425541d8e606c88e0508f73cdea4",
    "random_unroll_case": "1a79651b3f6eb2287e594ecbe165911afc1c66d8d036de174b54ad97cc5c007b",
    "random_sphere_diagram": "77c65eab96480884a5694bbab16190979ca917b6771cf39ec8c1ebd037237bf8",
    "random_tent_spectrum": "311038875987dca28521eb2889413d4d377dd2045654becdb0b83d4b967caa88",
}


def test_seeded_streams_are_frozen():
    assert _digests() == FROZEN


def test_random_complex_matches_the_fraction_oracle():
    """520 seeded draws, n from 0 to 200, degree steps 1 to 4 and
    non-integer action steps: the same complex, the same planted barcode
    and the same generator state afterwards."""
    specs = [None] + [NovikovSpec(var, step, F(num, den))
                      for var, step, num, den in (("q", 1, 5, 7), ("q", 2, 3, 2),
                                                  ("t", 3, 2, 3), ("q", 4, 7, 12),
                                                  ("q", 2, 1, 1))]
    for seed in range(520):
        size = random.Random(seed)
        n = size.randint(0, 200) if seed % 10 == 0 else size.randint(0, 40)
        spec = size.choice(specs)
        fast, slow = random.Random(seed), random.Random(seed)
        cx, planted = random_complex(fast, n, spec)
        ocx, oplanted = oracles.fraction_random_complex(slow, n, spec)
        assert complex_to_json(cx) == complex_to_json(ocx)
        assert planted == oplanted
        assert fast.getstate() == slow.getstate()
