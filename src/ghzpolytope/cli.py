"""Command-line interface.

Every run echoes its full effective configuration (including the
defaulted seed and tolerances) in the output header, emits JSON by
default (CSV for `report`), and uses exit status 0 on success, 2 on
invalid input, 3 on unsupported sizes and 130 when interrupted (Ctrl-C).

`extremes` and `facets` write their rows a block at a time, from each
block's nonzero entries, after every check has passed, so an interrupted
listing, or one whose reader closes early, leaves truncated output and
exits 130 or 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
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
    try:
        mode = os.stat(spec).st_mode
    except (OSError, ValueError):  # as os.path.isfile: no such path, or not a valid one
        mode = None
    if mode is None:
        raw = spec.split(",")
    elif not stat.S_ISREG(mode):  # a directory or a device is not read as a list
        raise InvalidArgumentError(f"--p {spec} is not a regular file")
    else:
        try:
            with open(spec, encoding="utf-8") as fh:
                raw = [line.strip() for line in fh if line.strip()]
        except UnicodeDecodeError:
            raise InvalidArgumentError(f"--p file {spec} is not UTF-8 text") from None
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

# json's text of a leaf by its exact type (not a subclass, such as a NumPy scalar)
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: repr,
    float: lambda x: repr(x) if math.isfinite(x) else _encode_scalar(x),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for str-keyed trees, byte for byte.

    A leaf of a type in ``_LEAF_TEXT`` is written by its writer there (a
    dict's leaves in the dict's own pass, a flat list of ints and finite
    floats in one pass), which is what ``json`` writes for it; every other
    leaf goes through the C encoder, since ``json`` leaves it unused once
    ``indent`` is set.
    """
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        body = (encode_basestring_ascii(key) + ": "
                + (leaf(value) if (leaf := _LEAF_TEXT.get(type(value))) else _json_text(value, inner))
                for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if {int, float}.issuperset(map(type, obj)):
            text = ("," + inner).join(map(repr, obj))
            if "n" not in text:  # no nan, inf or -inf, which json spells otherwise
                return "[" + inner + text + pad + "]"
        body = ("," + inner).join(_json_text(x, inner) for x in obj)
        return "[" + inner + body + pad + "]"
    return _encode_scalar(obj)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the bytes json writes as they are inside a string
_JSON_PLAIN = bytes(c for c in range(32, 127) if chr(c) not in '"\\')


def _number_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """json's text of each distinct float64 bit pattern in ``values`` (so
    -0.0 is one of its own), and the index of each value's text."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct = np.sort(bits)
    distinct = distinct[np.diff(distinct, prepend=~distinct[:1]) != 0]  # the first of each
    texts = [_JSON_NONFINITE.get(text, text) for text in map(repr, distinct.view(np.float64).tolist())]
    return texts, np.searchsorted(distinct, bits)


def _row_pieces(block: polytopes.SparseRows, head: str, sep: str, close: str, *tails) -> list[str]:
    """Strings whose concatenation is, for each row of ``block``, ``head``,
    json's text of its d numbers joined by ``sep``, ``close`` and the row's
    entry of each of ``tails`` (sequences of one str per row).

    Each entry is one piece: the run of +0.0 before it, then its number. So
    is each row's end: the run after its last entry, then ``close``. A
    piece's text is built once per distinct (row start, run length, value)
    that occurs, so a row costs its entries, not its width.
    """
    m, d, e = block.size, block.d, block.rows.size
    numbers, which = _number_texts(block.values)
    at = np.cumsum(np.bincount(block.rows, minlength=m))  # past each row's entries
    entry, end = np.arange(e) + block.rows, at + np.arange(m)  # events, a row's end after its entries
    rows, cols, value = np.empty((3, e + m), dtype=np.intp)
    rows[entry], cols[entry], value[entry] = block.rows, block.cols, which
    rows[end], cols[end], value[end] = np.arange(m), d, len(numbers)  # an end is at column d
    zeros = cols - np.append(0, (cols[:-1] + 1) % (d + 1))  # the run of +0.0 before each event
    seen = np.bincount(zeros) > 0  # the run lengths that occur, so codes stay few
    runs = np.flatnonzero(seen).tolist()
    codes = (value * 2 + (zeros == cols)) * len(runs) + (np.cumsum(seen) - 1)[zeros]  # zeros == cols: row start
    texts = np.empty(codes.max(initial=0) + 1, dtype=object)
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        number, start, run = code // (2 * len(runs)), code // len(runs) % 2, runs[code % len(runs)]
        text = (head if start else sep) + ("0.0" + sep) * run
        texts[code] = text + numbers[number] if number < len(numbers) else text[: len(text) - len(sep)] + close
    pieces = np.empty(e + (1 + len(tails)) * m, dtype=object)
    pieces[np.arange(e + m) + len(tails) * rows] = texts[codes]
    for k, tail in enumerate(tails, 1):
        pieces[at + np.arange(m) * (1 + len(tails)) + k] = tail
    return pieces.tolist()


def _vertex_rows(block: polytopes.SparseRows, inner: str) -> list[str]:
    """json's text of the vertex rows of ``block`` at indent ``inner``, their d
    coordinates, as pieces; each row is led by ``","`` and ``inner``."""
    keys = inner + "  "
    return _row_pieces(block, "," + inner + "[" + keys, "," + keys, inner + "]")


def _facet_rows(block: polytopes.FacetBlock, inner: str) -> list[str]:
    """json's text of the facets of ``block`` at indent ``inner``,
    ``coeffs``/``label``/``offset`` objects, as pieces; each is led by
    ``","`` and ``inner``. A label is one piece, within its neighbours' quotes."""
    keys = inner + "  "
    labels = block.labels
    if "".join(labels).encode().translate(None, _JSON_PLAIN):  # not all plain
        labels = [encode_basestring_ascii(label)[1:-1] for label in labels]
    numbers, which = _number_texts(block.offsets)
    offsets = np.array([f'",{keys}"offset": {text}{inner}}}' for text in numbers], dtype=object)
    return _row_pieces(block.coeffs, f',{inner}{{{keys}"coeffs": [{keys}  ', "," + keys + "  ",
                       f'{keys}],{keys}"label": "', labels, offsets[which])


# each listing command's payload key, block enumerator and row count
_LISTINGS = {
    "extremes": ("vertices", polytopes.vertex_blocks, polytopes.vertex_count),
    "facets": ("facets", polytopes.facet_blocks, polytopes.facet_count),
}


def _emit_json(payload: dict, out) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline to
    ``out``, for a non-empty payload.

    An iterator value is a listing of vertex blocks (``SparseRows``) or facet
    blocks (``FacetBlock``), written as it is consumed: each block's pieces in one
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


REPORT_COLUMNS = (
    ["n", "d"]
    + [f"rel_{fam}" for fam in volume.MC_FAMILIES]
    + [f"rvr_{fam}" for fam in volume.MC_FAMILIES]
    + ["ball_radius", "nu", "mu", "dist_hm_fbi", "bisep_vertices", "bisep_facets", "fbi_vertices", "fbi_facets"]
)


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

    parser.subcommands = sub.choices  # name -> subparser, for main's dispatch
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the parse of the subcommand's
    options alone when ``argv`` starts with a subcommand's name: the full
    parser hands that subparser the rest of ``argv`` anyway, so the namespace,
    and any error or help text, is the same."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args = subparser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = _parse_int(os.environ.get(SEED_ENV_VAR, "0"), SEED_ENV_VAR)
        # checked here too, so that a run without --mc does not echo them;
        # report's --samples 0 means MC_MIN_SAMPLES per family
        samples = getattr(args, "samples", None)
        if args.func is _cmd_report and samples == 0:
            samples = None
        volume.check_mc_settings(getattr(args, "seed", 0), getattr(args, "threads", 1), samples)
        code = args.func(args, out)
        if out is sys.stdout:
            out.flush()  # a reader gone by now shows here, not at the interpreter's exit
        return code
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SIZE
    except (GhzPolytopeError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # the reader closed stdout early: the output ends here, and the
            # interpreter's last flush of stdout goes to os.devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
