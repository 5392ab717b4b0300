"""Command-line front end.

Subcommands: count, table, enumerate, map, verify, export, asymptotic.
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 I/O error,
4 instance too large (an enumeration cutoff, an output over MAX_OUTPUT_BYTES,
an index past an index-sized integer, or recursion or memory exhausted).  All
output is UTF-8 text, newline terminated, byte-deterministic for identical
arguments, and written by _write in batches as it is computed.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from contextlib import nullcontext
from itertools import chain, count, islice
from typing import Iterable, Iterator

import twoline  # its attributes import their module on first access (PEP 562)

from . import counting as cnt
from . import families
from .errors import EmptyPartSet, InstanceTooLarge, InvalidInput, TwolineError, ascii_int

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TOO_LARGE = 4

BATCH_BYTES = 1 << 16  # _write's block: a pipe's default capacity on Linux
MAX_OUTPUT_BYTES = 512 << 20  # 512 MiB: `table` and `export` refuse larger outputs


class UsageError(TwolineError):
    pass


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    """The text of the pieces in whole blocks of BATCH_BYTES characters (bytes:
    the output is ASCII), then the rest, which may be empty.  Whole blocks
    reach a reader on a pipe as whole reads."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH_BYTES:
            text, cut = "".join(batch), size - size % BATCH_BYTES
            yield text[:cut]
            batch, size = [text[cut:]], size - cut
    yield "".join(batch)


def _write(pieces: Iterable[str], out: str | None) -> None:
    """The one writer: text pieces to stdout or to the file `out`, one batch at a
    time.  The first batch is computed before `out` is opened, so a request
    refused before its first line creates no file."""
    batches = _batches(pieces)
    first = next(batches)
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        for batch in chain((first,), batches):
            fh.write(batch)


def _fib_digits(m: int) -> int:
    """Decimal digits of phi^m, a bound on those of F(m) and of the counts below it."""
    return int(m * math.log10(cnt.GOLDEN_RATIO)) + 1


def _factorial_digits(n: int) -> int:
    """Decimal digits of n! = Gamma(n + 1)."""
    return int(math.lgamma(n + 1) / math.log(10)) + 1


def _refuse_oversized(rows: Iterable[tuple[int, int]]) -> None:
    """Raise InstanceTooLarge (exit 4) before any work when the output would
    pass MAX_OUTPUT_BYTES.

    `rows` yields (entries, digits) for each row of the output: that many
    entries of at most that many digits.  Each entry is charged its digits
    and two characters of separators; the sum stops once it passes the cap.
    """
    size = 0
    for entries, digits in rows:
        size += entries * (digits + 2)
        if size > MAX_OUTPUT_BYTES:
            raise InstanceTooLarge(
                f"output would pass the {MAX_OUTPUT_BYTES >> 20} MiB cap "
                "(estimated from the Fibonacci bounds on its entries)"
            )


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"family {args.family!r} needs --{name}")


def _nonnegative(args, name) -> None:
    value = getattr(args, name)
    if value is not None and value < 0:
        raise UsageError(f"--{name} must be nonnegative")


# family -> (required arguments, counter call on the parsed arguments).  The
# count and table calls look up `cnt` when they run, so a substituted module is
# honoured.
COUNTERS = {
    "a": (("k", "n"), lambda a: cnt.a_binomial(a.k, a.n)),
    "b": (("k", "n"), lambda a: cnt.b_value(a.k, a.n)),
    "z": (("n", "k"), lambda a: cnt.z_value(a.n, a.k)),
    "d": (("k", "n"), lambda a: cnt.d_count(a.k, a.n)),
    "m": (("k", "n"), lambda a: cnt.m_count(a.k, a.n)),
    "s": (("n", "k"), lambda a: cnt.s_count(a.n, a.k)),
    "r": (("n",), lambda a: cnt.r_diag(a.n)),
}


def cmd_count(args) -> int:
    names, counter = COUNTERS[args.family]
    _require(args, names)
    _write((f"{counter(args)}\n",), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# kind -> (display rows 0..--max, (entries, digit bound) of row r).  The bounds
# are a(k, n) <= F(k + n), b(k, n) <= F(k + n) and z(m, k) <= F(m + 2).
TABLES = {
    "a": (lambda m: islice(cnt._a_rows(), m + 1), lambda r: (2 * r + 1, _fib_digits(2 * r))),
    "b": (lambda m: islice(cnt._b_diagonals(), m + 1), lambda r: (r + 1, _fib_digits(r))),
    "z": (lambda m: islice(cnt._z_rows(), m + 1), lambda r: (r + 1, _fib_digits(r + 2))),
}


def _json_rows(kind: str, rows) -> Iterator[str]:
    """json.dumps({"kind": kind, "rows": rows}) + newline, one row at a time."""
    import json

    head, tail = json.dumps({"kind": kind, "rows": []}).split("[]")
    yield head + "["
    for i, row in enumerate(rows):
        yield (", " if i else "") + json.dumps(row)
    yield "]" + tail + "\n"


def cmd_table(args) -> int:
    _nonnegative(args, "max")
    rows_of, row_size = TABLES[args.kind]
    _refuse_oversized(map(row_size, range(args.max + 1)))
    rows = rows_of(args.max)
    if args.format == "csv":
        text = (",".join(map(str, row)) + "\n" for row in rows)
    elif args.format == "json":
        text = _json_rows(args.kind, rows)
    else:  # bfile
        text = _bfile(rows)
    _write(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    names, _, call, encode, _ = families.FAMILIES[args.family]
    _require(args, names)
    _nonnegative(args, "limit")
    objects = islice(call(twoline.objects, args), args.limit)
    _write((encode(obj) + "\n" for obj in objects), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------

def _halves(text: str, what: str) -> tuple[str, str]:
    try:
        first, second = text.split(";")
    except ValueError:
        raise UsageError(f"expected {what}") from None
    return first, second


def _s1(text: str):
    return twoline.objects.Composition.decode(text, twoline.ONE_TWO)


# a segment layout (k, n, upper, lower) reads 'upper;lower', k and n come from flags
def _decode_segments(text: str):
    from .objects.chords import decode_pairs

    return tuple(map(decode_pairs, _halves(text, "'upper;lower' segment lists")))


def _encode_segments(layout) -> str:
    return ";".join(",".join(f"{a}-{b}" for a, b in pairs) for pairs in layout[2:])


# object form (see families.BIJECTIONS) -> (decoder, encoder) of its text: each
# object type of families.FAMILIES, and the text shapes
CODECS = {
    **{form: (lambda t, form=form: getattr(twoline.objects, form).decode(t), families.encode)
       for _, form, *_ in families.FAMILIES.values()},
    "segments": (_decode_segments, _encode_segments),
    "s1": (_s1, families.encode),
    "odd": (lambda t: twoline.objects.Composition.decode(t, twoline.ODD), families.encode),
    "tiling": (str.strip, str),
    "s1-pair": (
        lambda t: tuple(map(_s1, _halves(t, "'horizontal;vertical' compositions"))),
        lambda pair: ";".join(map(families.encode, pair)),
    ),
}

# name -> (decoder, map, encoder), every pair in both directions.  A map takes
# the twoline.bijections module, so its modules load only when it runs.
MAPS = {
    name: (CODECS[domain][0], fn, CODECS[image][1])
    for name, domain, image, fn, _ in families.maps()
}


def cmd_map(args) -> int:
    decode, fn, encode = MAPS[args.bijection]
    if args.bijection == "join-horizontals":
        if args.k is None or args.n is None:
            raise UsageError("join-horizontals needs --k and --n")
        obj = (args.k, args.n, *decode(args.object))
    else:
        obj = decode(args.object)
    _write((encode(fn(twoline.bijections, obj)) + "\n",), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    _nonnegative(args, "max")
    if args.max is not None and families.SUITES[args.suite] is None:
        raise UsageError(f"suite {args.suite!r} takes no --max")
    from . import verify

    report = verify.run_suite(args.suite, args.max)
    if args.format == "text":
        lines = [
            f"{'PASS' if c.ok else 'FAIL'} {c.id}: {c.detail}\n" for c in report.checks
        ]
        lines.append(f"overall: {'pass' if report.overall else 'fail'}\n")
        _write(lines, args.out)
    else:
        _write((report.to_json() + "\n",), args.out)
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# sequence -> (entries, digit bound) of its row r: the triangles are read by
# rows, and the r(n) sequences hold one term per row, with r(n) <= F(2n).
SEQUENCES = {
    "A079487": TABLES["z"][1],
    "A051286": lambda n: (1, _fib_digits(2 * n)),
    "A125250": TABLES["b"][1],
    "A078698": lambda n: (1, _fib_digits(2 * n + 2) + 2 * _factorial_digits(n)),  # n!^2 r(n+1)
}


def _bfile(rows, terms: int = sys.maxsize) -> Iterator[str]:
    """'index value' lines, offset 0, one string per row, for the first `terms`
    entries of the rows read left to right."""
    i = 0
    for row in rows:
        row = row[: terms - i]
        if len(row) == 1:  # the r(n) exports: no format to build and no tuple to pack
            yield f"{i} {row[0]}\n"
        else:
            yield ("%s %s\n" * len(row)) % tuple(chain.from_iterable(zip(count(i), row)))
        i += len(row)
        if i >= terms:
            return


def _first_terms(row_size, terms: int) -> Iterator[tuple[int, int]]:
    """(entries, digit bound) of the rows that hold the first `terms` terms."""
    for r in count():
        entries, digits = row_size(r)
        yield min(entries, terms), digits
        terms -= entries
        if terms <= 0:
            return


def _exact_decimal():
    """A decimal context in which integer +, -, * and divmod are exact: the
    largest precision and exponent range, with Inexact, Rounded and
    InvalidOperation trapped, so that a lost digit raises instead of rounding."""
    import decimal  # here, so that only the r(n) exports pay for the import

    return decimal.localcontext(
        decimal.Context(
            prec=decimal.MAX_PREC,
            Emax=decimal.MAX_EMAX,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
        )
    )


def _diagonal_terms(seq: str) -> Iterator:
    """A051286, r(n) from n = 0, or A078698, (n-1)!^2 r(n) from n = 1, as
    Decimals, whose text is linear in their length (an int's is quadratic).
    Run it inside _exact_decimal()."""
    from decimal import Decimal

    r = cnt.r_diag_terms(Decimal)
    if seq == "A051286":
        yield from r
        return
    next(r)  # r(0)
    square = Decimal(1)  # (n-1)!^2
    for n, rn in enumerate(r, 1):
        yield square * rn
        square *= n * n


def cmd_export(args) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be positive")
    _refuse_oversized(_first_terms(SEQUENCES[args.sequence], args.terms))
    if args.sequence in ("A051286", "A078698"):
        # drained inside the context: outside it the Decimals round to 28 digits
        with _exact_decimal():
            _write(_bfile(([v] for v in _diagonal_terms(args.sequence)), args.terms), args.out)
    else:
        rows = cnt._z_rows() if args.sequence == "A079487" else cnt._b_diagonals()
        _write(_bfile(rows, args.terms), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

def cmd_asymptotic(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    est = cnt.asymptotic_estimate(args.n)
    if args.format == "json":
        import json

        text = json.dumps(
            {
                "n": est.n,
                "estimate_log": est.estimate_log,
                "exact_log": est.exact_log,
                "relative_error": est.relative_error,
            }
        )
    else:
        text = (
            f"n={est.n} estimate_log={est.estimate_log:.12f} "
            f"exact_log={est.exact_log:.12f} relative_error={est.relative_error:.3e}"
        )
    _write((text + "\n",), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def integer(text: str) -> int:
    """An integer option's value: an optional '-', then ASCII digits only."""
    return -ascii_int(text[1:]) if text[:1] == "-" else ascii_int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output to PATH")

    p = argparse.ArgumentParser(
        prog="twoline",
        description="Exact counts, enumerations, maps and checks for the "
        "two-line noncrossing matching family.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", parents=[common], help="print one exact count")
    pc.add_argument("family", choices=COUNTERS)
    pc.add_argument("--k", type=integer)
    pc.add_argument("--n", type=integer)
    pc.set_defaults(func=cmd_count)

    pt = sub.add_parser(
        "table",
        parents=[common],
        help="emit a whole triangle (csv/json by rows, bfile as 'index value' "
        "lines over the rows flattened left to right, offset 0)",
    )
    pt.add_argument("kind", choices=TABLES)
    pt.add_argument("--max", type=integer, required=True, help="last row index")
    pt.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    pt.set_defaults(func=cmd_table)

    pe = sub.add_parser(
        "enumerate", parents=[common], help="list objects, one encoding per line"
    )
    pe.add_argument("family", choices=families.FAMILIES)
    pe.add_argument("--k", type=integer)
    pe.add_argument("--n", type=integer)
    pe.add_argument("--m", type=integer, help="fence size for closedsets")
    pe.add_argument("--size", type=integer, help="closed-set cardinality filter")
    pe.add_argument("--cost", type=integer, help="price for weighted paths")
    pe.add_argument("--set", help="part set for compositions: s1, s2, s3 or '1,2,5'")
    pe.add_argument("--part-count", nargs=2, type=integer, metavar=("P", "C"),
                    help="keep compositions with part P appearing exactly C times")
    pe.add_argument("--summands", type=integer, help="keep compositions with this many parts")
    pe.add_argument("--mode", choices=families.LACING_MODES, default="non_self_crossing")
    pe.add_argument("--limit", type=integer, metavar="N", help="stop after N objects")
    pe.set_defaults(func=cmd_enumerate)

    pm = sub.add_parser(
        "map", parents=[common], help="apply a bijection to an encoded object"
    )
    pm.add_argument("bijection", choices=MAPS)
    pm.add_argument("object", help="canonical encoding of the input object")
    pm.add_argument("--k", type=integer, help="line sizes for join-horizontals")
    pm.add_argument("--n", type=integer)
    pm.set_defaults(func=cmd_map)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("--suite", choices=tuple(families.SUITES), default="all")
    pv.add_argument("--max", type=integer, help="override the suite's scale")
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.set_defaults(func=cmd_verify)

    px = sub.add_parser(
        "export",
        parents=[common],
        help="write a b-file (offset 0; A078698 line i holds the count for "
        "i+1 hole pairs)",
    )
    px.add_argument("sequence", choices=SEQUENCES)
    px.add_argument("--terms", type=integer, required=True)
    px.set_defaults(func=cmd_export)

    pa = sub.add_parser(
        "asymptotic", parents=[common], help="leading-term estimate vs exact r(n)"
    )
    pa.add_argument("--n", type=integer, required=True)
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=cmd_asymptotic)
    return p


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11+ caps int -> str
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"twoline: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"twoline: instance too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (UsageError, InvalidInput, EmptyPartSet, ValueError) as exc:
        print(f"twoline: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"twoline: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    """The process entry of `python -m twoline.cli` and the `twoline` script:
    main's status as the exit status.  Whatever main leaves, or argparse's exit,
    is frozen first, so the interpreter's closing collections skip it; reference
    counting still frees it."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
