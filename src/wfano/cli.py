"""Command line front end.

Subcommands: certify, enumerate, moments (s-value | table), okounkov, wps
(normalize | stratum | index | base-locus), blowup (build | intersect |
transform).  The library returns exact values and this module alone lays
them out.  Each subcommand's handler is a function of the parsed arguments
alone: it returns a report, or a CSV table (``enumerate --csv``, ``moments
table`` and ``okounkov --csv-samples``) of formatted lines, and :func:`run`
alone writes it and picks the exit code.  Reports are emitted as JSON
(default) or aligned text; all rationals are exact fraction strings "p/q", and ``--approx`` adds a
clearly labelled block with a 12-significant-digit decimal for each of
them.  Exit codes: 0 success, 2 precondition or usage violation
(machine-readable error object), 3 internal invariant failure.  The
``wfano`` command exits 1, with no output of its own, when its reader closes
the output early (``| head``).  The library signals a precondition
violation with ``ValueError`` (or a subclass); :func:`run` maps it to exit 2
with kind "precondition", and any other exception to exit 3.  :func:`run`
pulls a table's first item before its header, so a refused table prints a
lone error object, and a table streams (``| head`` ends it).  ``moments
table`` renders each (n, a, k) record of reduced integer pairs as one
string of 2n lines, each cell formatted once; the two other tables lay out
their rows through ``csv.writer`` (:func:`_csv_lines`).  CSV has no
decimals and no aligned text, so :func:`run` refuses ``--approx`` and
``--format text`` for a table as usage errors.
A run builds only the parsers on the path it names, one per level, and
``--help`` through :func:`run` writes the help to its ``out`` and returns
0.  A run imports only the modules its subcommand uses: ``csv`` loads for
``enumerate --csv`` and ``okounkov --csv-samples``, ``blowup`` for
``blowup``, ``wpoly`` for ``blowup transform`` and ``convex`` for
``okounkov``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import engine as ce
from . import moments as mo
from .lattice import WeightVector, base_locus, fano_index, normalize, stratum
from .schema import SCHEMA_VERSION


class CLIError(Exception):
    """Usage or weights violation; maps to exit code 2 with its own kind."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _Exit(Exception):
    """``--help`` ends the parse: the help text, which :func:`run` writes to
    its ``out`` before it returns 0."""


class _Table(NamedTuple):
    """A handler's CSV output: :func:`run` writes the header, then each item
    of ``lines``, a string of one or more whole CSV lines."""

    header: Sequence[str]
    lines: Iterable[str]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`CLIError`; ``--help`` raises :class:`_Exit`."""

    def print_help(self, file=None):
        raise _Exit(self.format_help())

    def error(self, message):
        raise CLIError("usage", message)


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose parsers are made only when a parse names them.

    Every level of the command line uses it, so a run builds only the parsers
    on its path, one per level.  Until a parse names a subcommand the map
    holds its builder; argparse's choice checks, error messages and help read
    only the keys.  The builder adds the subcommand's arguments, and its own
    subcommands through this class.  As in argparse, a subcommand gets a line
    in its parent's help only when ``help`` is given."""

    def add_parser(self, name, *, build, help=None):
        if help is not None:
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = build

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        build = self._name_parser_map[name]
        if not isinstance(build, argparse.ArgumentParser):
            sub = self._name_parser_map[name] = self._parser_class(
                prog=f"{self._prog_prefix} {name}")
            build(sub)
        super().__call__(parser, namespace, values, option_string)


def _fmt(value) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return str(value)


def _approx(value) -> object:
    """12-significant-digit decimals of the Fractions in ``value``.

    Dict entries without a Fraction are dropped; list positions are kept.
    None when ``value`` holds no Fraction at all.
    """
    if isinstance(value, Fraction):
        return f"{float(value):.12g}"
    if isinstance(value, (list, tuple)):
        items = [_approx(v) for v in value]
        return items if any(a is not None for a in items) else None
    if isinstance(value, dict):
        return {k: a for k, v in value.items() if (a := _approx(v)) is not None} or None
    return None


def _report(command: str, inputs: dict, outputs: dict, trace=None) -> dict:
    """A report whose outputs stay exact; :func:`run` formats them."""
    rep = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _fmt(inputs),
        "outputs": outputs,
    }
    if trace is not None:
        rep["trace"] = trace
    return rep


def _emit(rep: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(rep, out, indent=2)
        out.write("\n")
        return
    out.write(f"# {rep['command']}\n")
    for section in ("inputs", "outputs"):
        out.write(f"{section}:\n")
        for k, v in rep[section].items():
            out.write(f"  {k:<24} {v}\n")
    if "approx" in rep:
        out.write("approx (12 significant digits, not exact):\n")
        for k, v in rep["approx"].items():
            out.write(f"  {k:<24} {v}\n")
    for t in rep.get("trace", []):
        tag = "EXTERNAL " if t["external"] else ""
        out.write(f"rule {t['rule_id']} [{t['scope']}] {tag}-> {t['output']}\n")
        out.write(f"    {t['statement']}\n")
        if t.get("citation"):
            out.write(f"    citation: {t['citation']}\n")


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[str]:
    """Each row as the line ``csv.writer`` writes for it, made as it is
    pulled; ``writerow`` returns what its file's ``write`` returns, here the
    line itself."""
    import csv

    class _Line:
        write = str

    return map(csv.writer(_Line(), lineterminator="\n").writerow, rows)


def _weights(text: str) -> WeightVector:
    try:
        return WeightVector.parse(text)
    except ValueError as exc:
        raise CLIError("weights", str(exc))


def _indices(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma separated indices")


def build_parser() -> _Parser:
    """The root parser.  A subcommand's parser is made, and its arguments
    added by its builder (next to its handler), when a parse names it."""
    p = _Parser(prog="wfano",
                description="Exact lower bounds for the stability thresholds of weighted "
                            "Fano hypersurfaces, and the weighted blowups, Okounkov bodies "
                            "and flag moments behind them.")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--approx", action="store_true",
                   help="add approximate decimal values (12 significant digits)")
    sub = p.add_subparsers(dest="command", required=True, action=_Subcommands)
    sub.add_parser("certify", help="certify a stability-threshold lower bound",
                   build=_certify_parser)
    sub.add_parser("enumerate", help="sweep weight tuples and certify each",
                   build=_enumerate_parser)
    sub.add_parser("moments", help="flag moment integrals", build=_moments_parser)
    sub.add_parser("okounkov", help="Okounkov bodies of the supported surfaces",
                   build=_okounkov_parser)
    sub.add_parser("wps", help="weighted projective space arithmetic", build=_wps_parser)
    sub.add_parser("blowup", help="standard weighted blowups", build=_blowup_parser)
    return p


_CERTIFICATE_OUTPUTS = ("polarization", "bound", "strict", "upper", "index",
                        "anticanonical_bound", "anticanonical_upper", "verdict")


def _certificate(cert: ce.DeltaCertificate) -> tuple[dict, list[dict]]:
    """The exact outputs of ``cert`` in report key order, and its trace with
    each entry's ``inputs`` as strings in sorted key order."""
    outputs = {k: getattr(cert, k) for k in _CERTIFICATE_OUTPUTS}
    trace = [{**t._asdict(), "inputs": {k: str(v) for k, v in sorted(t.inputs.items())}}
             for t in cert.trace]
    return outputs, trace


def _certify_parser(c: _Parser) -> None:
    c.add_argument("--weights", required=True)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--eckardt", action="store_true",
                   help="assert a generalized Eckardt point at the last vertex")
    c.add_argument("--m", type=int, default=None, help="vertex escape level")
    c.add_argument("--general", action="store_true", help="assert a general member")
    c.add_argument("--b1", choices=["yes", "no", "unknown"], default="unknown",
                   help="assert containment of the weight-one base locus")
    c.set_defaults(handler=_run_certify)


def _run_certify(args) -> dict:
    w = _weights(args.weights)
    flags = ce.Flags(
        eckardt_at_p=args.eckardt,
        m=args.m,
        b1_in_x=args.b1,
        general_member=args.general,
    )
    datum = ce.FanoDatum(ambient=w, d=args.degree, flags=flags)
    outputs, trace = _certificate(ce.certify(datum))
    return _report(
        "certify",
        {"weights": w.text(), "degree": args.degree, "index": datum.index,
         "flags": {"eckardt_at_P": args.eckardt, "m": args.m, "b1_in_x": args.b1,
                   "general_member": args.general, "quasi_smooth": True}},
        outputs, trace=trace)


_ENUMERATE_HEADER = ("weights", "degree", "index", "bound", "anticanonical_bound",
                     "upper", "verdict", "rules")


def _enumerate_values(row: ce.EnumerationRow, rules) -> tuple:
    """One row's exact values in :data:`_ENUMERATE_HEADER` order; ``rules``
    lays out the tuple of fired rule ids: joined for CSV, a list for JSON."""
    datum, c = row
    return (datum.ambient.text(), datum.d, c.index, c.bound, c.anticanonical_bound,
            c.upper, c.verdict, rules(row.fired_rules()))


def _enumerate_parser(e: _Parser) -> None:
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--max-weight", type=int, required=True)
    e.add_argument("--index", type=int, default=None)
    e.add_argument("--degree", type=int, default=None)
    e.add_argument("--eckardt", action="store_true")
    e.add_argument("--general", action="store_true")
    e.add_argument("--csv", action="store_true", help="emit a CSV table instead of JSON")
    e.set_defaults(handler=_run_enumerate)


def _run_enumerate(args) -> dict | _Table:
    """CSV rows are certified as :func:`run` writes them; JSON needs them all
    first for ``row_count``."""
    rows = ce.enumerate_data(
        n=args.n, max_weight=args.max_weight, index=args.index,
        degree=args.degree, eckardt=args.eckardt, general=args.general,
    )
    if args.csv:
        return _Table(_ENUMERATE_HEADER,
                      _csv_lines(_enumerate_values(row, ";".join) for row in rows))
    payload = [dict(zip(_ENUMERATE_HEADER, _enumerate_values(row, list))) for row in rows]
    return _report("enumerate",
                   {"n": args.n, "max_weight": args.max_weight, "index": args.index,
                    "degree": args.degree, "eckardt": args.eckardt,
                    "general": args.general},
                   {"rows": payload, "row_count": len(payload)})


def _moments_parser(m: _Parser) -> None:
    def s_value(ms: _Parser) -> None:
        ms.add_argument("--n", type=int, required=True)
        ms.add_argument("--a", type=int, required=True)
        ms.add_argument("--k", type=int, required=True)
        ms.add_argument("--j", type=int, required=True)
        ms.add_argument("--q-in-w1", action="store_true")

    def table(mt: _Parser) -> None:
        mt.add_argument("--n-max", type=int, default=8)
        mt.add_argument("--a-max", type=int, default=6)
        mt.add_argument("--k-max", type=int, default=6)

    msub = m.add_subparsers(dest="moments_command", required=True, action=_Subcommands)
    msub.add_parser("s-value", build=s_value)
    msub.add_parser("table", build=table)
    m.set_defaults(handler=_run_moments)


def _run_moments(args) -> dict | _Table:
    if args.moments_command == "s-value":
        s = mo.s_value(args.n, args.a, args.k, args.j, args.q_in_w1)
        cf = mo.s_value_closed_form(args.n, args.a, args.k, args.j, args.q_in_w1)
        return _report("moments s-value",
                       {"n": args.n, "a": args.a, "k": args.k, "j": args.j,
                        "q_in_w1": args.q_in_w1},
                       {"s_value": s, "closed_form": cf, "match": s == cf})
    if args.n_max < 2 or args.a_max < 1 or args.k_max < 1:
        raise CLIError("precondition", "empty table: need --n-max >= 2, --a-max >= 1 "
                                       "and --k-max >= 1")
    return _Table(mo.TABLE_HEADER,
                  _moment_lines(mo.moment_table(range(2, args.n_max + 1),
                                                range(1, args.a_max + 1),
                                                range(1, args.k_max + 1))))


def _moment_lines(records: Iterable[mo.MomentRecord]) -> Iterator[str]:
    """Each record's 2n CSV lines as one string.  Each entry is formatted
    once, as an "S,closed_form,match" line end: a reduced pair as "p/q", or
    "p" when q = 1 (as ``str(Fraction)``), the S cell reused for a matching
    closed form.  A template made once per n places the ends after "n,a,k,"
    and each row's "j,q_in_W1," in the rows of :func:`moments.row_layout`.
    No cell needs CSV quoting, so the bytes are those of ``csv.writer``."""
    def cell(p, q):
        return f"{p}/{q}" if q != 1 else f"{p}"

    def end(s, closed_form, match):
        s = cell(*s)
        return f"{s},{s},True\n" if match else f"{s},{cell(*closed_form)},False\n"

    n = None
    for r in records:
        if r.n != n:
            n = r.n
            template = "".join(f"{{0}}{j},{q},{{{entry + 1}}}"
                               for j, q, entry in mo.row_layout(n))
        yield template.format(f"{n},{r.a},{r.k},", *map(end, r.s, r.closed_form, r.match))


def _okounkov_parser(o: _Parser) -> None:
    def case(oc: _Parser) -> None:
        oc.add_argument("name", choices=["hirzebruch", "hirzebruch2", "perhaps-useful"])
        oc.add_argument("--a", type=int, default=0)
        oc.add_argument("--b", type=int, default=0)
        oc.add_argument("--k", type=int, default=0)
        oc.add_argument("--flag-in-surface", action="store_true")
        oc.add_argument("--csv-samples", type=int, default=0,
                        help="emit a CSV of boundary samples instead of JSON")

    osub = o.add_subparsers(dest="okounkov_command", required=True, action=_Subcommands)
    osub.add_parser("case", build=case)
    o.set_defaults(handler=_run_okounkov)


def _run_okounkov(args) -> dict | _Table:
    from . import convex as cx

    case = cx.okounkov_body_surface(args.name, a=args.a, b=args.b, k=args.k,
                                    flag_in_surface=args.flag_in_surface)
    if args.csv_samples:
        return _Table(("x", "upper"), _csv_lines(case.body.boundary_samples(args.csv_samples)))
    return _report("okounkov case",
                   {"case": args.name, "a": args.a, "b": args.b, "k": args.k,
                    "flag_in_surface": args.flag_in_surface},
                   {"body": {"breakpoints": case.body.breakpoints,
                             "pieces": case.body.pieces},
                    "area": case.area,
                    "L2": case.L2, "eps": case.eps, "t_max": case.t_max,
                    "s_value": case.s_value,
                    "second_coordinate": case.second_coordinate})


def _wps_parser(w: _Parser) -> None:
    def normalize(wn: _Parser) -> None:
        wn.add_argument("--weights", required=True)

    def stratum(ws: _Parser) -> None:
        ws.add_argument("--weights", required=True)
        ws.add_argument("--vanish", required=True, type=_indices,
                        help="comma separated indices")

    def index(wi: _Parser) -> None:
        wi.add_argument("--weights", required=True)
        wi.add_argument("--degree", type=int, required=True)

    def base_locus(wb: _Parser) -> None:
        wb.add_argument("--weights", required=True)
        wb.add_argument("--threshold", type=int, required=True)
        wb.add_argument("--point", type=int, default=None)

    wsub = w.add_subparsers(dest="wps_command", required=True, action=_Subcommands)
    wsub.add_parser("normalize", build=normalize)
    wsub.add_parser("stratum", build=stratum)
    wsub.add_parser("index", build=index)
    wsub.add_parser("base-locus", build=base_locus)
    w.set_defaults(handler=_run_wps)


def _run_wps(args) -> dict:
    w = _weights(args.weights)
    if args.wps_command == "normalize":
        rep = normalize(w)
        return _report("wps normalize",
                       {"weights": w.text()},
                       {"weights": rep.output.text(), "g_i": list(rep.g_i),
                        "g": rep.g, "well_formed_input": w.is_well_formed})
    if args.wps_command == "stratum":
        st = stratum(w, args.vanish)
        return _report("wps stratum",
                       {"weights": w.text(), "vanish": args.vanish},
                       {"quotient_weights": st.quotient_weights.text(),
                        "scale": st.scale, "mult": st.mult,
                        "dimension": st.dimension})
    if args.wps_command == "base-locus":
        loc = base_locus(w, args.threshold, args.point)
        return _report("wps base-locus",
                       {"weights": w.text(), "threshold": args.threshold,
                        "point": args.point},
                       {"vanishing": sorted(loc.vanishing),
                        "dimension": loc.dimension,
                        "is_empty": loc.is_empty,
                        "quotient_weights":
                            None if loc.stratum is None
                            else loc.stratum.quotient_weights.text(),
                        "scale": None if loc.stratum is None else loc.stratum.scale})
    idx = fano_index(w, args.degree)
    return _report("wps index",
                   {"weights": w.text(), "degree": args.degree},
                   {"index": idx, "fano": idx > 0})


def _blowup_parser(b: _Parser) -> None:
    def build(bb: _Parser) -> None:
        bb.add_argument("--weights", required=True)
        bb.add_argument("--r", type=int, required=True)

    def intersect(bi: _Parser) -> None:
        build(bi)
        bi.add_argument("--k", type=int, required=True)

    def transform(bt: _Parser) -> None:
        build(bt)
        bt.add_argument("--poly", required=True)

    bsub = b.add_subparsers(dest="blowup_command", required=True, action=_Subcommands)
    bsub.add_parser("build", build=build)
    bsub.add_parser("intersect", build=intersect)
    bsub.add_parser("transform", build=transform)
    b.set_defaults(handler=_run_blowup)


def _run_blowup(args) -> dict:
    from . import blowup as bl

    w = _weights(args.weights)
    frame = bl.build(w, args.r)
    if args.blowup_command == "build":
        exc_data = bl.exceptional_class(frame)
        return _report("blowup build",
                       {"weights": w.text(), "r": args.r},
                       {"frame": {"ambient": frame.ambient.text(), "r": frame.r,
                                  "h": frame.h, "hp": frame.hp, "app": frame.app,
                                  "gi": frame.gi, "g": frame.g, "gp": frame.gp,
                                  "ap": frame.ap_left + frame.ap_right,
                                  "v_rep": frame.v_rep, "bezout": frame.bezout},
                        "exceptional_class": list(exc_data.cls),
                        "exceptional_product": {
                            "left": list(exc_data.left_factor),
                            "right": list(exc_data.right_factor),
                            "restriction_scale": list(exc_data.restriction_scale),
                            "self_restriction": list(exc_data.self_restriction)},
                        "psi_pullback_o1": list(bl.psi_pullback_o1(frame)),
                        "pi_pullback_o1": list(bl.pi_pullback_o1(frame))})
    if args.blowup_command == "intersect":
        return _report("blowup intersect",
                       {"weights": w.text(), "r": args.r, "k": args.k},
                       {"value": bl.intersection_bi(frame, args.k)})
    from . import wpoly as wp

    ft = wp.strict_transform(wp.parse(args.poly, w), args.r)
    return _report("blowup transform",
                   {"weights": w.text(), "r": args.r, "poly": args.poly},
                   {"bidegree": list(ft.bidegree),
                    "terms": [[list(e), str(c)] for e, c in ft.terms],
                    "variables": list(ft.variables(ft.frame))})


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        result = args.handler(args)
        if isinstance(result, _Table):
            lines = iter(result.lines)
            first = next(lines, "")  # the producer's checks run here, before any CSV
            # decimals and aligned text do not apply to CSV: refused, not ignored
            if args.approx:
                raise CLIError("usage", "--approx does not apply to CSV output")
            if args.format != "json":
                raise CLIError("usage", "--format text does not apply to CSV output")
            out.write(",".join(result.header) + "\n")
            out.write(first)
            for line in lines:
                out.write(line)
            return 0
        if args.approx and (approx := _approx(result["outputs"])) is not None:
            result["approx"] = approx
        result["outputs"] = _fmt(result["outputs"])
        _emit(result, args.format, out)
        return 0
    except _Exit as exc:
        out.write(str(exc))
        return 0
    except Exception as exc:
        if isinstance(exc, (CLIError, ValueError)):
            code, kind, message = 2, getattr(exc, "kind", "precondition"), str(exc)
        else:  # internal invariant violation
            code, kind, message = 3, "internal", f"{type(exc).__name__}: {exc}"
        json.dump({"schema_version": SCHEMA_VERSION,
                   "error": {"kind": kind, "message": message}}, out, indent=2)
        out.write("\n")
        return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): exit 1 quietly, with
        # stdout on the null device so the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
