"""Command-line surface: parse JSON inputs, run pipelines, emit JSON reports.

Every command prints one JSON report on stdout (inputs digested by sha256,
structured outputs, and the list of re-asserted checks) and a short human
summary on stderr.  Exit codes: 0 success, 1 validation failure or failed
check, 2 malformed input or a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import re
import stat
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Tuple

from . import seidel
from .exactpi import PiRational
from .novikov import LagrangianParams, format_rational, parse_int, parse_rational

__all__ = ["main"]


class SchemaError(ValueError):
    """Input file malformed or missing required fields."""


# what a parser raises on malformed input: exit 2
_MALFORMED = (SchemaError, KeyError, ValueError, TypeError)


@dataclass
class RunReport:
    command: str
    inputs: Dict[str, str] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, passed: bool) -> bool:
        self.checks.append((name, bool(passed)))
        return passed

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": [{"name": n, "passed": p} for n, p in self.checks],
        }

    @property
    def ok(self) -> bool:
        return all(p for _n, p in self.checks)


def _read_input(report: RunReport, path: str):
    """Read ``path`` once: record its sha256 digest in ``report`` and return
    its JSON, decoded as a UTF-8 text file with universal newlines."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        report.inputs[path] = hashlib.sha256(raw).hexdigest()
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, the same text: the standard library
    indents only in its pure-Python encoder, and this walk, which quotes
    strings with the C ``encode_basestring_ascii``, takes about half its
    time on a report.  Like ``json.dumps`` it refuses a value or a key of
    another type with ``TypeError``; it does not detect cycles."""
    out: List[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(x, out: List[str], newline: str) -> None:
    # the type tests of json.encoder._make_iterencode, in its order
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float_text(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            if type(item) is str:
                out.append(sep + _quote(item))
            else:
                out.append(sep)
                _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in x.items():
            head = sep + _quote(key if isinstance(key, str) else _key_text(key)) + ": "
            if type(item) is str:
                out.append(head + _quote(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _emit(report: RunReport, summary: str, code: int = 0) -> None:
    """Print the report and terminate the command (exit 1 on failed checks)."""
    print(_json_text(report.to_json()))
    print(summary, file=sys.stderr)
    if code == 0 and not report.ok:
        code = 1
    raise SystemExit(code)


def _fail(command: str, exc: Exception, code: int) -> None:
    print(_json_text({"command": command, "error": str(exc)}))
    print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(code)


def _value_json(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, PiRational):
        return v.to_json()
    from .persistence import INF  # after the common cases: an import per call is slow

    return "inf" if v is INF else v


def _oracle_check(report: RunReport, cx, bc, window=None) -> None:
    """Cross-check ``bc`` against the rank-function oracle.  A complex past
    the oracle's size cap fails the check ``oracle-size-cap`` instead."""
    from . import oracles

    try:
        oc = oracles.brute_force_barcode(cx, window)
    except oracles.OracleSizeError as exc:
        report.outputs["oracle_error"] = str(exc)
        report.check("oracle-size-cap", False)
        return
    report.check("oracle-match", oc == bc)


def _window_cap(report: RunReport, exc: Exception) -> None:
    """A degree window past the reduction's size cap fails the check
    ``window-size-cap``."""
    report.outputs["window_error"] = str(exc)
    report.check("window-size-cap", False)


# ---------------------------------------------------------------------------
# barcode
# ---------------------------------------------------------------------------


def cmd_barcode(complex_file, window, oracle, svg_path, fund_degree, point_degree):
    """Barcode, bar-length spectrum, boundary depth and spectral norm of a
    filtered complex."""
    from . import complexes, persistence, svgout

    report = RunReport("barcode")
    try:
        cx = complexes.complex_from_json(_read_input(report, complex_file))
    except complexes.ComplexValidationError as exc:
        report.check("complex-valid", False)
        report.outputs["error"] = str(exc)
        _emit(report, f"invalid complex: {exc}", 1)
    except _MALFORMED as exc:
        _fail("barcode", exc, 2)
    report.check("complex-valid", True)
    win = tuple(window) if window else cx.default_degree_window()
    try:
        bc = complexes.barcode(cx, win)
    except complexes.WindowSizeError as exc:
        _window_cap(report, exc)
        _emit(report, f"window too large: {exc}", 1)
    depth = persistence.boundary_depth(bc)
    report.outputs["barcode"] = bc.to_json()
    report.outputs["bar_length_spectrum"] = persistence.bar_length_spectrum_json(bc)
    report.outputs["boundary_depth"] = _value_json(depth)
    # gamma reads the two infinite bars off ``bc`` when its window holds both
    # degrees; only a window missing one of them needs a second reduction
    lo, hi = min(fund_degree, point_degree), max(fund_degree, point_degree) + 1
    covered = win[0] <= lo and hi <= win[1]
    try:
        g = complexes.gamma(bc if covered else complexes.barcode(cx, (lo, hi)),
                            fund_degree, point_degree)
        report.outputs["gamma"] = _value_json(g)
        report.check("beta-le-gamma", depth <= g)
    except complexes.GammaUndefinedError as exc:
        report.outputs["gamma"] = None
        report.outputs["gamma_note"] = str(exc)
    except complexes.WindowSizeError as exc:
        report.outputs["gamma"] = None
        _window_cap(report, exc)
    if oracle:
        _oracle_check(report, cx, bc, win)
    if svg_path:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svgout.barcode_svg(bc))
        report.outputs["svg"] = svg_path
    _emit(report, f"boundary depth {report.outputs['boundary_depth']}, "
                  f"gamma {report.outputs.get('gamma')}")


# ---------------------------------------------------------------------------
# bottleneck
# ---------------------------------------------------------------------------


def cmd_bottleneck(barcode1, barcode2, mod_shift, degree_blind):
    """Bottleneck distance between two barcode files."""
    from . import persistence

    report = RunReport("bottleneck")
    try:
        b1 = persistence.Barcode.from_json(_read_input(report, barcode1))
        b2 = persistence.Barcode.from_json(_read_input(report, barcode2))
    except _MALFORMED as exc:
        _fail("bottleneck", exc, 2)
    sensitive = not degree_blind
    try:
        d = persistence.bottleneck_distance(b1, b2, degree_sensitive=sensitive)
    except persistence.BarCountError as exc:
        report.outputs["bar_count_error"] = str(exc)
        report.check("bar-count-cap", False)
        _emit(report, f"too many bars: {exc}", 1)
    except persistence.KeySizeError as exc:
        report.outputs["key_size_error"] = str(exc)
        report.check("key-size-cap", False)
        _emit(report, f"keys too long: {exc}", 1)
    report.outputs["distance"] = _value_json(d)
    if mod_shift:
        dd, shift = persistence.shifted_bottleneck(b1, b2, degree_sensitive=sensitive)
        report.outputs["shifted_distance"] = _value_json(dd)
        report.outputs["best_shift"] = _value_json(shift)
        report.check("shifted-le-plain", not (dd > d))
    _emit(report, f"distance {report.outputs['distance']}" +
          (f", mod-shift {report.outputs.get('shifted_distance')}" if mod_shift else ""))


# ---------------------------------------------------------------------------
# combfloer
# ---------------------------------------------------------------------------


def cmd_combfloer(diagram_file, max_wind, oracle, emit_complex, svg_path):
    """Lune table, differential, boundary depth and spectral norm of a
    two-curve diagram."""
    from . import complexes, diagrams, persistence, svgout

    report = RunReport("combfloer")
    try:
        dg = diagrams.TwoCurveDiagram.from_json(_read_input(report, diagram_file))
    except _MALFORMED as exc:
        _fail("combfloer", exc, 2)
    try:
        lunes = diagrams.enumerate_lunes(dg, max_wind)
        cx = diagrams.build_complex(dg, max_wind)
    except (diagrams.DiagramError, diagrams.InadmissibleDiagramError) as exc:
        report.check("diagram-valid", False)
        report.outputs["error"] = str(exc)
        _emit(report, f"inadmissible diagram: {exc}", 1)
    except diagrams.LuneCandidateError as exc:
        report.outputs["lune_error"] = str(exc)
        report.check("lune-candidate-cap", False)
        _emit(report, f"too many lune candidates: {exc}", 1)
    report.check("diagram-valid", True)
    report.outputs["lunes"] = [
        {"from": l.source, "to": l.target, "area": format_rational(l.area),
         "windings": dict(l.w)} for l in lunes]
    report.outputs["differential"] = {
        gid: [[str(c), t] for c, t in terms] for gid, terms in sorted(cx.differential.items())}
    bc = complexes.barcode(cx)
    depth = persistence.boundary_depth(bc)
    report.outputs["barcode"] = bc.to_json()
    report.outputs["boundary_depth"] = _value_json(depth)
    report.outputs["gamma"] = None
    if dg.surface == "sphere":
        try:
            g = diagrams.diagram_gamma(dg, max_wind)
            report.outputs["gamma"] = _value_json(g)
            report.check("beta-le-gamma", depth <= g)
        except complexes.GammaUndefinedError as exc:
            report.outputs["gamma_note"] = str(exc)
    if oracle:
        from . import oracles

        _oracle_check(report, cx, bc)
        report.check("lune-oracle-match", oracles.brute_force_lunes(dg, max_wind) == lunes)
    if emit_complex:
        with open(emit_complex, "w", encoding="utf-8") as fh:
            fh.write(_json_text(complexes.complex_to_json(cx)))
        report.outputs["complex_file"] = emit_complex
    if svg_path:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svgout.diagram_svg(dg))
        report.outputs["svg"] = svg_path
    _emit(report, f"boundary depth {report.outputs['boundary_depth']}, "
                  f"gamma {report.outputs.get('gamma')}")


# ---------------------------------------------------------------------------
# radial
# ---------------------------------------------------------------------------


def _parse_params(data: dict) -> LagrangianParams:
    return LagrangianParams(
        dim=parse_int(data["n"]), maslov=parse_int(data["N_L"]),
        disk_area=PiRational.from_json(data["A_L"]))


def _parse_ranks(data: dict, maslov: int) -> Dict[int, int]:
    """Infinite-bar counts keyed by degree; keys are decimal strings (JSON
    object keys), values JSON integers, and no two keys share a degree class
    mod ``maslov``."""
    from .radial import rank_quotas

    if not isinstance(data, dict):
        raise SchemaError(f"ranks must be an object, not {data!r}")
    for key in data:
        if not re.fullmatch(r"-?[0-9]+", key):
            raise SchemaError(f"a rank key must be a decimal degree, not {key!r}")
    ranks = {int(k): parse_int(v) for k, v in data.items()}
    rank_quotas(ranks, maslov)
    return ranks


def cmd_radial(profile_file, feasible, homotopy):
    """Generator spectrum, feasible barcodes and certified boundary-depth
    bound of a radial profile (or a sampled family with --homotopy)."""
    from . import persistence, radial

    report = RunReport("radial")
    try:
        data = _read_input(report, profile_file)
        params = _parse_params(data["params"])
        ranks = _parse_ranks(data.get("ranks", {}), params.maslov)
        if homotopy:
            if "family" not in data:
                raise SchemaError("--homotopy needs a 'family' list in the input")
            if not isinstance(data["family"], list) or not data["family"]:
                raise SchemaError("'family' must be a nonempty list of profiles")
            profiles = [radial.RadialProfile.from_json(p) for p in data["family"]]
            C = parse_rational(data.get("C", "2"))
            if C < 1:
                raise SchemaError("the continuity constant must be at least 1")
        else:
            prof = radial.RadialProfile.from_json(data.get("profile", data))
    except _MALFORMED as exc:
        _fail("radial", exc, 2)
    try:
        if homotopy:
            trace = radial.homotopy_filter(profiles, params, ranks, C)
            report.outputs["kept_counts"] = [len(k) for k in trace.kept]
            report.outputs["final_barcodes"] = [bc.to_json() for bc in
                                                sorted(trace.kept[-1], key=repr)]
            report.check("pruning-nonempty", all(trace.kept))
            _emit(report, f"homotopy kept {report.outputs['kept_counts']}")
        spectrum = radial.generators(prof, params)
        report.outputs["spectrum"] = [
            {"degree": e.degree, "action": _value_json(e.action),
             "source": list(map(str, e.source))} for e in spectrum.entries]
        report.outputs["degree_class_actions"] = {
            str(d): [_value_json(a) for a in radial.degree_class_actions(spectrum, d)]
            for d in range(params.maslov)}
        feas = radial.feasible_barcodes(spectrum, ranks)
        report.outputs["feasible_count"] = len(feas)
        if feasible:
            report.outputs["feasible_barcodes"] = [bc.to_json()
                                                   for bc in sorted(feas, key=repr)]
        bound = radial.forced_bar_bound(spectrum, ranks)
        report.outputs["forced_bar_bound"] = _value_json(bound)
        report.check("bound-is-minimum", not persistence.least_depth(feas) < bound)
    except (radial.SlopeDegeneracyError, radial.InfeasibleRanksError,
            radial.PruningEmptyError, ValueError) as exc:
        report.outputs["error"] = str(exc)
        _emit(report, f"radial failure: {exc}", 1)
    _emit(report, f"forced bound {report.outputs['forced_bar_bound']}, "
                  f"{report.outputs['feasible_count']} feasible barcodes")


# ---------------------------------------------------------------------------
# seidel
# ---------------------------------------------------------------------------


def cmd_seidel(case_name, n, params_json):
    """Verify ring-power hypotheses and compute the averaging bound."""
    report = RunReport("seidel")
    try:
        if case_name is None and params_json is None:
            raise SchemaError("need --case or --params")
        if case_name is None:
            raw = json.loads(params_json)
            pres = seidel.QHPresentation(
                params=LagrangianParams(parse_int(raw["n"]), parse_int(raw["N_L"]),
                                        parse_rational(raw["A_L"])),
                power=parse_int(raw["M"]), twist=parse_int(raw["E"]),
                point_power=parse_int(raw["P"]))
            element = seidel.RingElement(parse_int(raw["S"]["t"]), parse_int(raw["S"]["X"]))
    except _MALFORMED as exc:
        _fail("seidel", exc, 2)
    try:
        if case_name is not None:
            case = seidel.example_case(case_name, n)
            pres, data = case.presentation, case.seidel
            bound = case.bound
            tele = case.telescoping
        else:
            data = seidel.verify_hypotheses(pres, element)
            tele = seidel.telescoping_check(data.k, data.p, data.m, data.r, pres.kappa)
            bound = seidel.averaging_bound(data.k, data.p, data.m, data.r, pres.kappa)
    except seidel.HypothesisError as exc:
        report.outputs["error"] = str(exc)
        report.check("hypotheses-verified", False)
        _emit(report, f"hypothesis failure: {exc}", 1)
    report.outputs["hypotheses"] = {"k": data.k, "p": data.p, "m": data.m, "r": data.r}
    report.outputs["kappa"] = format_rational(pres.kappa)
    report.outputs["bound"] = format_rational(bound)
    report.outputs["telescoping"] = "ok" if tele.ok else "failed"
    report.check("hypotheses-verified", True)
    report.check("telescoping", tele.ok)
    report.check("bound-below-disk-area",
                 bound < Fraction(pres.params.disk_area))
    _emit(report, f"(k,p,m,r) = ({data.k},{data.p},{data.m},{data.r}), "
                  f"bound {bound}")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(seed, trials):
    """Run the property table of floerbar.oracles, which the tier-1 tests
    run too, on cases drawn from one seeded generator."""
    from . import oracles

    report = RunReport("check")
    report.outputs["seed"] = seed
    rng = random.Random(seed)
    for p in oracles.PROPERTIES:
        report.check(p.name, all(p.holds(*c) for c in p.cases(rng, trials)))
    _emit(report, "all checks passed" if report.ok else "CHECK FAILURES")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _input_file(path: str) -> str:
    """``path`` if it names a readable file; a missing path, a directory or
    an unreadable file is a usage error."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        raise argparse.ArgumentTypeError(f"'{path}' does not exist.") from None
    if stat.S_ISDIR(mode):
        raise argparse.ArgumentTypeError(f"'{path}' is a directory.")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"'{path}' is not readable.")
    return path


def _int_at_least(low: int):
    """An argument type: an int no less than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"'{text}' is not a valid integer.") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}.")
        return value

    return parse


class _DegreeWindow(argparse.Action):
    """``--window LO HI``, a usage error unless ``LO <= HI``."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if lo > hi:
            raise argparse.ArgumentError(self, f"LO {lo} exceeds HI {hi}")
        setattr(namespace, self.dest, (lo, hi))


def _help(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """``parser`` with ``--help`` (no ``-h``) added."""
    parser.add_argument("--help", action="help", help="show this message and exit")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    # every parser refuses abbreviated options: --wind is not --window
    parser = _help(argparse.ArgumentParser(
        prog="floerbar", add_help=False, allow_abbrev=False,
        description="Exact persistence toolkit: barcodes, curve diagrams, radial "
                    "profiles and quantum-ring averaging bounds."))
    subparsers = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, fn):
        doc = " ".join(fn.__doc__.split())
        sub = _help(subparsers.add_parser(name, help=doc, description=doc,
                                          add_help=False, allow_abbrev=False))
        sub.set_defaults(command=fn)
        return sub

    cmd = command("barcode", cmd_barcode)
    cmd.add_argument("complex_file", metavar="COMPLEX_FILE", type=_input_file)
    cmd.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"), action=_DegreeWindow,
                     help="degree window LO HI (half open)")
    cmd.add_argument("--oracle", action="store_true",
                     help="cross-check against the rank-function oracle")
    cmd.add_argument("--svg", dest="svg_path", metavar="PATH")
    cmd.add_argument("--fund-degree", type=int, default=1, help="default: %(default)s")
    cmd.add_argument("--point-degree", type=int, default=0, help="default: %(default)s")

    cmd = command("bottleneck", cmd_bottleneck)
    cmd.add_argument("barcode1", metavar="BARCODE1", type=_input_file)
    cmd.add_argument("barcode2", metavar="BARCODE2", type=_input_file)
    cmd.add_argument("--mod-shift", action="store_true", help="also minimize over action shifts")
    cmd.add_argument("--degree-blind", action="store_true", help="allow matches across degrees")

    cmd = command("combfloer", cmd_combfloer)
    cmd.add_argument("diagram_file", metavar="DIAGRAM_FILE", type=_input_file)
    cmd.add_argument("--max-wind", type=_int_at_least(0), default=2, metavar="N",
                     help="largest number of extra full windings of a lune's boundary "
                          "(default: %(default)s)")
    cmd.add_argument("--oracle", action="store_true",
                     help="cross-check against the rank-function and lune oracles")
    cmd.add_argument("--emit-complex", metavar="PATH")
    cmd.add_argument("--svg", dest="svg_path", metavar="PATH")

    cmd = command("radial", cmd_radial)
    cmd.add_argument("profile_file", metavar="PROFILE_FILE", type=_input_file)
    cmd.add_argument("--feasible", action="store_true", help="list all feasible barcodes")
    cmd.add_argument("--homotopy", action="store_true",
                     help="run continuity pruning along the family")

    cmd = command("seidel", cmd_seidel)
    cmd.add_argument("--case", dest="case_name", choices=seidel.EXAMPLE_CASE_NAMES)
    cmd.add_argument("--n", type=_int_at_least(1), default=1, metavar="N",
                     help="default: %(default)s")
    cmd.add_argument("--params", dest="params_json", metavar="JSON",
                     help='explicit presentation, e.g. {"n":1,"N_L":2,"A_L":"1","M":2,'
                          '"E":-1,"P":1,"S":{"t":1,"X":1}}')

    cmd = command("check", cmd_check)
    cmd.add_argument("--seed", type=int, default=2026, help="default: %(default)s")
    cmd.add_argument("--trials", type=_int_at_least(1), default=40, metavar="N",
                     help="cases drawn for each randomized property (default: %(default)s)")
    return parser


_PARSER = _build_parser()


def main(args=None, prog_name=None) -> None:
    """Run the command that ``args`` (default ``sys.argv[1:]``) names.  Ends
    in ``SystemExit``: the command's exit code, 0 after ``--help``, and 2 on
    a usage error, whose message goes to stderr with nothing on stdout.
    ``prog_name`` is accepted for callers that name the program; usage lines
    say ``floerbar``, the name the parser is built with."""
    opts = vars(_PARSER.parse_args(args))
    try:
        opts.pop("command")(**opts)
    except BrokenPipeError:
        # the reader of stdout is gone: exit 1 without a traceback, with
        # stdout on the null device so that the last flush cannot fail again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
