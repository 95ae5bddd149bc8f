"""Command-line interface.

Every run echoes its full effective configuration (including the
defaulted seed and tolerances) in the output header, emits JSON by
default (CSV for `report`), and uses exit status 0 on success, 2 on
invalid input, 3 on unsupported sizes and 130 when interrupted (Ctrl-C).

`extremes` and `facets` write their rows a block at a time, after every
check has passed, so an interrupted listing, or one whose reader closes
early, leaves truncated output and exits 130 or 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

from . import mermin as _mermin_mod
from . import polytopes, volume
from .classify import EPS_BOUNDARY, EPS_CLASS
from .classify import classify as _classify_state
from .decompose import certify_midpoint, cube_vertex_decomposition
from .errors import GhzPolytopeError, InvalidArgumentError, UnsupportedSizeError
from .indices import (
    MC_MAX_QUBITS,
    REPORT_MAX_QUBITS,
    Bipartition,
    check_qubit_count,
    dimension,
    from_bits,
)
from .states import GhzDiagonalState

SEED_ENV_VAR = "GHZPOLYTOPE_SEED"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED_SIZE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

_POLYTOPE_FAMILY = {"ghz": "GHZ", "bisep": "BISEP", "fbi": "FBI"}


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"{what}: expected an integer, got {text!r}") from None


def _parse_prob_vector(spec: str, n: int) -> GhzDiagonalState:
    """Inline comma list, or a file with one decimal per line."""
    check_qubit_count(n)
    if os.path.isfile(spec):
        with open(spec) as fh:
            raw = [line.strip() for line in fh if line.strip()]
    else:
        raw = spec.split(",")
    d = dimension(n)
    if len(raw) != d:
        raise InvalidArgumentError(
            f"probability vector has {len(raw)} entries, expected {d} for n={n}"
        )
    values = []
    for k, tok in enumerate(raw):
        try:
            values.append(float(tok))
        except ValueError:
            raise InvalidArgumentError(f"entry {k} is not a number: {tok!r}") from None
    return GhzDiagonalState(n, np.array(values))


def _fmt(x: float) -> str:
    return format(x, ".17g")


_encode_scalar = json.JSONEncoder().encode  # the C encoder, json's defaults


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for str-keyed trees, byte for byte.

    Exact ints and finite exact floats are written with ``repr`` (a flat
    list of them in one pass) and exact strs with
    ``encode_basestring_ascii``, which is what ``json`` writes for them;
    every other leaf goes through the C encoder, since ``json`` leaves it
    unused once ``indent`` is set.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        body = (
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if obj:
            if {int, float}.issuperset(map(type, obj)):
                text = ("," + inner).join(map(repr, obj))
                if "n" not in text:  # no nan, inf or -inf, which json spells otherwise
                    return "[" + inner + text + pad + "]"
            body = ("," + inner).join(_json_text(x, inner) for x in obj)
            return "[" + inner + body + pad + "]"
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return repr(obj)
    return _encode_scalar(obj)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number_texts(values: np.ndarray, before: str = "", after: str = "") -> np.ndarray:
    """json's text of each float64 value, between ``before`` and ``after``, as
    an object array: one ``repr`` per distinct bit pattern, so -0.0 keeps its sign."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct = np.unique(bits)
    texts = [before + _JSON_NONFINITE.get(text, text) + after
             for text in map(repr, distinct.view(np.float64).tolist())]
    return np.array(texts, dtype=object)[np.searchsorted(distinct, bits)]


def _row_pieces(block: np.ndarray, head: str, sep: str, close: str, tails) -> list[str]:
    """Strings whose concatenation is, for each row of a 2-D float64 block,
    ``head``, json's text of its numbers joined by ``sep``, ``close`` and its
    entry of ``tails`` (one str for every row, or one per row).

    Only the entries that are not +0.0 (by bit pattern, so -0.0 is one) are
    written one by one. Each run of +0.0 before one of them or before a
    row's end is one piece, with the text around it, built once per run
    length that occurs: a row costs its nonzero entries, not its width.
    """
    m, d = block.shape
    flat = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    marks = np.ones((m, d + 1), dtype=bool)  # column d: each row's end
    marks[:, :d] = flat.view(np.uint64).reshape(m, d) != 0
    event = np.flatnonzero(marks)
    row, col = np.divmod(event, d + 1)
    starts = np.ones(event.size, dtype=bool)  # the first event of its row
    starts[1:] = row[1:] != row[:-1]
    past = np.zeros(event.size, dtype=np.intp)  # past the row's previous event
    past[1:] = col[:-1] + 1
    past[starts] = 0
    ends = col == d
    # each run by kind (2 if it starts a row, plus 1 if it ends one) and length
    codes = (2 * starts + ends) * (d + 1) + col - past
    distinct = np.unique(codes)
    runs = []
    for code in distinct.tolist():
        kind, zeros = divmod(code, d + 1)
        text = (head if kind & 2 else sep) + ("0.0" + sep) * zeros
        runs.append(text[: len(text) - len(sep)] + close if kind & 1 else text)
    pieces = np.empty(2 * event.size, dtype=object)
    pieces[0::2] = np.array(runs, dtype=object)[np.searchsorted(distinct, codes)]
    after = pieces[1::2]  # the number after each run, or the row's tail
    after[~ends] = _number_texts(flat[(event - row)[~ends]])
    after[ends] = tails
    return pieces.tolist()


def _vertex_rows(block: np.ndarray, inner: str) -> list[str]:
    """json's text of the vertex rows of ``block`` at indent ``inner``, their d
    coordinates, as pieces; each row is led by ``","`` and ``inner``."""
    keys = inner + "  "
    return _row_pieces(block, "," + inner + "[" + keys, "," + keys, inner + "]", "")


def _facet_rows(block: polytopes.FacetBlock, inner: str) -> list[str]:
    """json's text of the facets of ``block`` at indent ``inner``,
    ``coeffs``/``label``/``offset`` objects, as pieces; each is led by
    ``","`` and ``inner``."""
    keys = inner + "  "
    offsets = _number_texts(block.offsets, f',{keys}"offset": ', inner + "}").tolist()
    tails = [encode_basestring_ascii(label) + offset
             for label, offset in zip(block.labels, offsets)]
    return _row_pieces(block.coeffs, f',{inner}{{{keys}"coeffs": [{keys}  ',
                       "," + keys + "  ", f'{keys}],{keys}"label": ', tails)


# each listing command's payload key, block enumerator and row count
_LISTINGS = {
    "extremes": ("vertices", polytopes.vertex_blocks, polytopes.vertex_count),
    "facets": ("facets", polytopes.facet_blocks, polytopes.facet_count),
}


def _emit_json(payload: dict, out) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline to
    ``out``, for a non-empty payload.

    An iterator value is a listing of vertex blocks (arrays) or facet blocks
    (``FacetBlock``), written as it is consumed: each block's pieces in one
    join and one write, with the text held since the last write in front.
    """
    text, sep, pad, inner = "", "{", "\n  ", "\n    "
    for key, value in sorted(payload.items()):
        text += sep + pad + encode_basestring_ascii(key) + ": "
        sep = ","
        if not isinstance(value, Iterator):
            text += _json_text(value, pad)
            continue
        opener = "["  # in place of the first row's ","
        for block in value:
            rows = _facet_rows if isinstance(block, polytopes.FacetBlock) else _vertex_rows
            pieces = rows(block, inner)
            if pieces:
                pieces[0] = text + opener + pieces[0][1:]
                out.write("".join(pieces))
                text, opener = "", ","
            del pieces  # before the next block is built
        text += "[]" if opener == "[" else pad + "]"
    out.write(text + "\n}\n")


def _config_dict(args: argparse.Namespace, **extra) -> dict:
    cfg = {
        "subcommand": args.command,
        "eps_class": EPS_CLASS,
        "eps_boundary": EPS_BOUNDARY,
    }
    for key in ("n", "family", "p", "seed", "samples", "threads", "limit", "format"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


def _cmd_classify(args, out) -> int:
    state = _parse_prob_vector(args.p, args.n)
    result = _classify_state(state)
    _emit_json({"config": _config_dict(args), "result": result.to_json_dict(args.n)}, out)
    return EXIT_OK


def _cmd_mermin(args, out) -> int:
    state = _parse_prob_vector(args.p, args.n)
    violates, boundary = _mermin_mod.violates_mermin(state)
    result = {
        "expectation": _mermin_mod.mermin_expectation(state),
        "bound": _mermin_mod.mermin_bound(args.n),
        "threshold": _mermin_mod.mermin_threshold(args.n),
        "violates": violates,
        "boundary": boundary,
    }
    _emit_json({"config": _config_dict(args), "result": result}, out)
    return EXIT_OK


def _cmd_listing(args, out) -> int:
    """`extremes` and `facets`: every vertex or facet row, or the first --limit."""
    if args.limit is not None and args.limit < 0:
        raise InvalidArgumentError(f"--limit must be >= 0, got {args.limit}")
    check_qubit_count(args.n)
    key, family_blocks, row_count = _LISTINGS[args.command]
    family = _POLYTOPE_FAMILY[args.family]
    if key == "vertices" and family == "FBI" and args.n > REPORT_MAX_QUBITS:
        raise UnsupportedSizeError(
            f"the F_n vertex count has over 4300 digits past n = {REPORT_MAX_QUBITS}"
        )
    try:  # the full-list cap is checked at the call, before any row is built
        blocks = family_blocks(family, args.n, args.limit)
    except UnsupportedSizeError as exc:
        raise UnsupportedSizeError(f"{exc}; pass --limit to stream fewer") from None
    payload = {
        "config": _config_dict(args),
        "family": args.family,
        "n": args.n,
        "count": row_count(family, args.n),
        key: blocks,
    }
    _emit_json(payload, out)
    return EXIT_OK


def _cmd_ball(args, out) -> int:
    ball = polytopes.inscribed_ball(_POLYTOPE_FAMILY[args.family], args.n)
    payload = {
        "config": _config_dict(args),
        "family": args.family,
        "n": args.n,
        "center": ball.center.p.tolist(),
        "radius": ball.radius,
    }
    _emit_json(payload, out)
    return EXIT_OK


def _cmd_volume(args, out) -> int:
    if args.mc:
        report = volume.mc_relative_volume(
            args.family, args.n, samples=args.samples, seed=args.seed, threads=args.threads
        )
    else:
        report = volume.VolumeReport(
            n=args.n, family=args.family, exact=volume.rel_vol_exact(args.family, args.n)
        )
    result = report.to_json_dict()
    result["vol_hs"] = volume.vol_exact(args.family, args.n)
    if args.family in volume.MC_FAMILIES:
        result["rvr"] = volume.rvr(args.family, args.n)
    _emit_json({"config": _config_dict(args), "result": result}, out)
    return EXIT_OK


def _cmd_certify(args, out) -> int:
    if args.pair is not None:
        bits = args.pair.split(",")
        if len(bits) != 2:
            raise InvalidArgumentError("--pair takes two comma-separated bit strings")
        i, n_i = from_bits(bits[0].strip())
        j, n_j = from_bits(bits[1].strip())
        if n_i != args.n or n_j != args.n:
            raise InvalidArgumentError(f"pair indices must have length n={args.n}")
        cert = certify_midpoint(args.n, i, j)
    elif args.sigma is not None:
        if args.bipartition is None:
            raise InvalidArgumentError("--sigma requires --bipartition")
        sigma = []
        for tok in args.sigma.split(","):
            idx, n_idx = from_bits(tok.strip())
            if n_idx != args.n:
                raise InvalidArgumentError(f"selection indices must have length n={args.n}")
            sigma.append(idx)
        positions = frozenset(_parse_int(t, "--bipartition") for t in args.bipartition.split(","))
        bp = Bipartition(args.n, positions)
        cert = cube_vertex_decomposition(args.n, sigma, bp)
    else:
        raise InvalidArgumentError("certify needs either --pair or --sigma")
    _emit_json({"config": _config_dict(args), "result": cert.to_json_dict()}, out)
    return EXIT_OK


REPORT_COLUMNS = [
    "n",
    "d",
    "rel_genuine",
    "rel_bisep_minus_fbi",
    "rel_fbi",
    "rel_mermin",
    "rvr_genuine",
    "rvr_bisep_minus_fbi",
    "rvr_fbi",
    "rvr_mermin",
    "ball_radius",
    "nu",
    "mu",
    "dist_hm_fbi",
    "bisep_vertices",
    "bisep_facets",
    "fbi_vertices",
    "fbi_facets",
]


def _report_row(n: int, estimates: tuple[volume.VolumeReport, ...]) -> dict:
    d = dimension(n)
    row: dict = {"n": n, "d": d}
    for fam in volume.MC_FAMILIES:
        row[f"rel_{fam}"] = volume.rel_vol_exact(fam, n)
        row[f"rvr_{fam}"] = volume.rvr(fam, n)
    row["ball_radius"] = polytopes.inscribed_ball("GHZ", n).radius
    row["nu"] = _mermin_mod.mermin_threshold(n)
    row["mu"] = _mermin_mod.mermin_bound(n)
    row["dist_hm_fbi"] = _mermin_mod.dist_mermin_to_fbi(n) if n >= 3 else ""
    row["bisep_vertices"] = polytopes.vertex_count("BISEP", n)
    row["bisep_facets"] = polytopes.facet_count("BISEP", n)
    row["fbi_vertices"] = polytopes.vertex_count("FBI", n)
    row["fbi_facets"] = polytopes.facet_count("FBI", n)
    for rep in estimates:
        row[f"mc_{rep.family}"] = rep.mc_estimate
        row[f"mc_{rep.family}_stderr"] = rep.mc_stderr
        row[f"mc_{rep.family}_samples"] = rep.samples
    return row


def _cmd_report(args, out) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise InvalidArgumentError("need 2 <= n-min <= n-max")
    if args.n_max > REPORT_MAX_QUBITS:
        raise UnsupportedSizeError(f"report is capped at n = {REPORT_MAX_QUBITS}")
    columns = list(REPORT_COLUMNS)
    if args.mc:
        for fam in volume.MC_FAMILIES:
            columns += [f"mc_{fam}", f"mc_{fam}_stderr", f"mc_{fam}_samples"]
    mc_ns = range(args.n_min, min(args.n_max, MC_MAX_QUBITS) + 1) if args.mc else ()
    # every family at every n up to the Monte-Carlo cap from one draw per chunk
    estimates = volume.mc_relative_volumes_by_n(
        volume.MC_FAMILIES, mc_ns, args.samples or volume.MC_MIN_SAMPLES, seed=args.seed,
        threads=args.threads) if mc_ns else {}
    rows = [_report_row(n, estimates.get(n, ())) for n in range(args.n_min, args.n_max + 1)]
    config = _config_dict(args, n_min=args.n_min, n_max=args.n_max, mc=args.mc)
    if args.format == "json":
        _emit_json({"config": config, "columns": columns, "rows": rows}, out)
    else:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                val = row.get(col, "")
                if isinstance(val, float):
                    cells.append(_fmt(val))
                else:
                    cells.append(str(val))
            out.write(",".join(cells) + "\n")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting, so that
    ``main`` reports it as one ``error:`` line with exit 2; ``-h`` still exits."""

    def error(self, message):
        raise InvalidArgumentError(message)


@functools.cache  # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ghzpolytope",
        description="Polytope geometry of n-qubit GHZ-diagonal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=int, required=True, help="qubit count")

    p = sub.add_parser("classify", help="membership tests for a probability vector")
    add_n(p)
    p.add_argument("--p", required=True, help="comma list or file path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mermin", help="Mermin expectation, bound, threshold, violation")
    add_n(p)
    p.add_argument("--p", required=True, help="comma list or file path")
    p.set_defaults(func=_cmd_mermin)

    p = sub.add_parser("extremes", help="vertex enumeration")
    add_n(p)
    p.add_argument("--family", choices=sorted(_POLYTOPE_FAMILY), required=True)
    p.add_argument("--limit", type=int, default=None, help="stream at most this many")
    p.set_defaults(func=_cmd_listing)

    p = sub.add_parser("facets", help="facet enumeration")
    add_n(p)
    p.add_argument("--family", choices=sorted(_POLYTOPE_FAMILY), required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_listing)

    p = sub.add_parser("ball", help="largest inscribed ball")
    add_n(p)
    p.add_argument("--family", choices=sorted(_POLYTOPE_FAMILY), required=True)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("volume", help="closed-form and Monte-Carlo volumes")
    add_n(p)
    p.add_argument("--family", choices=sorted(volume.MC_FAMILIES + (volume.GHZ,)), required=True)
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo estimate")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)  # None: $GHZPOLYTOPE_SEED or 0
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("certify", help="separability certificates for extreme points")
    add_n(p)
    p.add_argument("--pair", help="two comma-separated bit strings, e.g. 000,011")
    p.add_argument("--sigma", help="comma-separated selection of bit strings")
    p.add_argument("--bipartition", help="comma-separated 1-based positions of S")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("report", help="per-n table of all closed-form quantities")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--samples", type=int, default=0, help="0 = 10000 per family")
    p.add_argument("--seed", type=int, default=None)  # None: $GHZPOLYTOPE_SEED or 0
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = _parse_int(os.environ.get(SEED_ENV_VAR, "0"), SEED_ENV_VAR)
        # checked here too, so that a run without --mc does not echo them;
        # report's --samples 0 means MC_MIN_SAMPLES per family
        samples = getattr(args, "samples", None)
        if args.func is _cmd_report and samples == 0:
            samples = None
        volume.check_mc_settings(getattr(args, "seed", 0), getattr(args, "threads", 1), samples)
        return args.func(args, out)
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SIZE
    except (GhzPolytopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
