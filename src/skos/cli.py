"""Command line front end: the ``skos`` tool.

Exit codes: 0 on success, 1 on a computation-level error (non-invertible
supermatrix, method disagreement, window violation, bad input, memory
exhausted), 2 on usage errors.
Output is byte-deterministic for fixed arguments and seed; JSON is the
canonical machine format, CSV is available for cohomology tables.
Dispatch goes through the subparser table: each subcommand binds its handler.
Options are declared once, in ``build_parser``.  A subcommand followed by
plain ``--option value`` pairs is read straight from that subcommand's
actions, with their types, choices, defaults and required flags; everything
else (no arguments, ``-h``, an unknown command or option, ``--opt=value``,
an abbreviation, a value argparse would refuse) goes through argparse, which
alone prints usage, help and errors.  Messages, exit codes and the parsed
namespace are the same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
from itertools import chain
import json
import os
import random
import sys

from skos import berezinian, bott, complexes
from skos.exact_linalg import homology, parse_base, parse_int
from skos.complexes import WindowError


def _int(text: str) -> int:
    """An integer option, in ASCII digits (``parse_int``), refused with argparse's message for ``int``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rank_pair(text: str) -> tuple[int, int]:
    try:
        a, b = map(parse_int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"rank must look like 'a,b', got {text!r}")
    if a < 0 or b < 0:
        raise argparse.ArgumentTypeError("rank components must be nonnegative")
    return a, b


def _int_vector(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(map(parse_int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _base(text: str) -> str:
    """The canonical spelling of a base ring, the one every output prints."""
    try:
        kind, p = parse_base(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return kind if p is None else f"Fp:{p}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``skos`` parser, built on first use and shared by every ``run``."""
    parser = argparse.ArgumentParser(
        prog="skos",
        description="Exact super Koszul / De Rham / Berezinian complexes, "
        "homology, Berezin determinants and super Bott tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(sp, choices=("text", "json")):
        sp.add_argument("--output", choices=choices, default="text")

    def cap_flag(sp, default):  # the window rule of skos.complexes._complex
        sp.add_argument("--cap", type=_int, default=None, help="when b > 0, keep only the positions at most CAP "
                        f"from 0; a slice of rank (a|0) is finite and always whole (default: {default})")

    for name, kind, help_text in (
        ("koszul", "koszul", "weight slice of the contraction (Koszul) complex"),
        ("derham", "derham", "weight slice of the exterior-derivative complex"),
        ("berezinian-complex", "berezinian", "weight slice of the dual (Berezinian) complex"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=_cmd_complex, kind=kind)
        sp.add_argument("--rank", type=_rank_pair, required=True, metavar="a,b")
        sp.add_argument("--weight", type=_int, required=True)
        cap_flag(sp, "max(6, a + 1)" if kind == "berezinian" else "the whole slice")
        out_flag(sp)

    sp = sub.add_parser("specialize", help="classical Koszul complex of a coefficient vector")
    sp.set_defaults(handler=_cmd_complex, kind="specialize")
    sp.add_argument("--rank", type=_rank_pair, required=True, metavar="a,b")
    sp.add_argument("--omega", type=_int_vector, required=True, metavar="w0,w1,...")
    cap_flag(sp, "a + b")
    out_flag(sp)

    sp = sub.add_parser("homology", help="exact homology of a built complex")
    sp.set_defaults(handler=_cmd_homology)
    sp.add_argument("--kind", choices=("koszul", "derham", "berezinian", "specialize"), required=True)
    sp.add_argument("--rank", type=_rank_pair, required=True, metavar="a,b")
    sp.add_argument("--base", type=_base, default="Z", metavar="Z|Q|Fp:<p>")
    sp.add_argument("--weight", type=_int, default=None)
    sp.add_argument("--omega", type=_int_vector, default=None, metavar="w0,w1,...")
    sp.add_argument("--position", type=_int, default=None)
    cap_flag(sp, "the whole slice; a + b for specialize, max(6, a + 1, POSITION + 1) for berezinian")
    out_flag(sp)

    sp = sub.add_parser("ber", help="Berezin determinant of a supermatrix")
    sp.set_defaults(handler=_cmd_ber)
    sp.add_argument("--input", metavar="FILE", help="JSON supermatrix record ('-' for stdin)")
    sp.add_argument("--random-check", type=_int, default=None, metavar="COUNT",
                    help="run COUNT seeded random property checks instead of reading input")
    sp.add_argument("--p", type=_int, default=2)
    sp.add_argument("--q", type=_int, default=2)
    sp.add_argument("--gens", type=_int, default=4)
    sp.add_argument("--seed", type=_int, default=0)
    out_flag(sp)

    sp = sub.add_parser("bott", help="cohomology tables of twisted differential forms")
    sp.set_defaults(handler=_cmd_bott)
    sp.add_argument("--m", type=_int, required=True)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--p", type=_int, required=True)
    sp.add_argument("--r", type=_int, required=True)
    sp.add_argument("--p-max", type=_int, default=None)
    sp.add_argument("--r-max", type=_int, default=None)
    sp.add_argument("--method", choices=("formula", "direct", "both"), default="both")
    sp.add_argument("--base", type=_base, default="Q")
    out_flag(sp, ("text", "json", "csv"))

    sp = sub.add_parser("line-bundle", help="cohomology of a twisted line bundle")
    sp.set_defaults(handler=_cmd_bott, p=0, p_max=None, method="formula", base="Q")  # the p = 0 tables
    sp.add_argument("--m", type=_int, required=True)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--r", type=_int, required=True)
    sp.add_argument("--r-max", type=_int, default=None)
    out_flag(sp, ("text", "json", "csv"))

    return parser


_STR = json.encoder.encode_basestring_ascii  # the C escaper that json.dumps uses


def _json(value, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value nested ``pad`` deep.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, so
    the shapes records are made of are written here: dicts with str keys,
    ints, strs, ``None``, ``True``, ``False`` and lists (or tuples) of
    them.  Any other leaf (a float, a dict with non-str keys, a subclass)
    is handed to ``json.dumps`` on its own and re-indented, which is exact
    because JSON text has no raw newline outside its layout.
    """
    kind = type(value)
    if kind is str:
        return _STR(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        body = sep.join([f"{_STR(k)}: {_json(value[k], inner)}" for k in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        elif kinds == {str}:
            body = sep.join(map(_STR, value))
        elif (kinds <= {list, tuple} and len(widths := set(map(len, value))) == 1 and 0 not in widths
              and set(map(type, chain.from_iterable(value))) == {int}):
            # rows of ints of one width, such as the (row, col, value) entries
            # of a matrix: one template, as "%d" writes an int as int.__repr__
            row = f"[\n{inner}  " + (sep + "  ").join(["%d"] * widths.pop()) + f"\n{inner}]"
            body = sep.join([row % tuple(r) for r in value])
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _emit_json(record, stdout) -> None:
    """Write ``json.dumps(record, sort_keys=True, indent=2)`` and a newline, byte for byte."""
    stdout.write(_json(record, ""))
    stdout.write("\n")


def _build_complex(args, position=None):
    """The complex of kind ``args.kind``; only the options of that kind are read."""
    a, b = args.rank
    if args.kind == "specialize":
        if args.omega is None:
            raise ValueError("--omega is required for the specialized complex")
        return complexes.specialize_koszul(a, b, args.omega, args.cap)
    if args.weight is None:
        raise ValueError("--weight is required for this complex kind")
    if args.kind == "koszul":
        return complexes.build_koszul(a, b, args.weight, args.cap)
    if args.kind == "derham":
        return complexes.build_derham(a, b, args.weight, args.cap)
    cap = max(6, a + 1, -1 if position is None else position + 1)  # homology at a reads a + 1
    return complexes.build_berezinian(a, b, args.weight, cap if args.cap is None else args.cap)


def _head(what: str, C) -> str:
    """``what``, then the rank, weight and omega that ``C`` has: a text output's first line."""
    head = f"{what}, rank ({C.gens.even}|{C.gens.odd})"
    if C.weight is not None:
        head += f", weight {C.weight}"
    if C.omega is not None:
        head += f", omega {list(C.omega)}"
    return head


def _complex_text(C, stdout) -> None:
    stdout.write(_head(f"{C.kind} complex", C) + "\n")
    for pos in C.positions:
        dims = C.basis_at[pos].dims()
        line = f"  position {pos}: dim {dims}"
        if pos in C.diff_at:
            line += f", differential to {pos + 1} with {C.diff_at[pos].nnz} entries"
        stdout.write(line + "\n")


def _cmd_complex(args, stdout) -> int:
    C = _build_complex(args)
    if args.output == "json":
        _emit_json(C.to_record(), stdout)
    else:
        _complex_text(C, stdout)
    return 0


def _cmd_homology(args, stdout) -> int:
    C = _build_complex(args, args.position)
    if args.position is not None:
        summaries = [homology(C, args.base, args.position)]
    else:  # homology raises WindowError before any work at a position on the window's edge
        summaries = []
        for pos in C.positions:
            with contextlib.suppress(WindowError):
                summaries.append(homology(C, args.base, pos))
    if args.output == "json":
        record = {
            "format": "skos.homology/1",
            "kind": C.kind,
            "rank": [C.gens.even, C.gens.odd],
            "weight": C.weight,
            "base": args.base,
            "omega": list(C.omega) if C.omega is not None else None,
            "summaries": [s.to_record() for s in summaries],
        }
        _emit_json(record, stdout)
    else:
        stdout.write(_head(f"homology of {C.kind}", C) + f", base {args.base}\n")
        for s in summaries:
            stdout.write("  " + str(s) + "\n")
    return 0


def _cmd_ber(args, stdout) -> int:
    if args.random_check is not None:
        return _ber_random_check(args, stdout)
    if not args.input:
        raise ValueError("ber needs --input FILE or --random-check COUNT")
    stdin = args.input == "-"
    with contextlib.nullcontext(sys.stdin) if stdin else open(args.input, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except RecursionError:
            raise ValueError(f"{'stdin' if stdin else args.input}: JSON nested too deeply") from None
    M = berezinian.SuperMatrix.from_record(record)
    value = berezinian.ber(M)
    if args.output == "json":
        _emit_json({"format": "skos.ber/1", "ber": value.to_record(), "text": str(value)}, stdout)
    else:
        stdout.write(str(value) + "\n")
    return 0


# Each (M, N) pair of ``ber --random-check`` draws (p+q)^2 * 2^gens
# monomials, every one of them a term kept with chance 1/2.  The largest
# accepted sizes, such as --p 0 --q 1 --gens 13 or --p 45 --q 45
# --gens 0, take 2-4 s for one check on a 2-core Xeon under Python 3.11,
# and --p 1 --q 1 --gens 12, twice the bound, already takes 6 s.
_RANDOM_CHECK_MONOMIALS = 1 << 13


def _ber_random_check(args, stdout) -> int:
    count = args.random_check
    if count <= 0 or args.p < 0 or args.q < 0 or args.gens < 0:
        raise ValueError("--random-check COUNT must be positive and "
                         "--p, --q and --gens nonnegative")
    size = args.p + args.q
    # the first test refuses a huge gens before 2^gens is formed
    if size and (args.gens > _RANDOM_CHECK_MONOMIALS.bit_length()
                 or size * size << args.gens > _RANDOM_CHECK_MONOMIALS):
        raise ValueError(f"--random-check draws (p+q)^2 * 2^gens monomials per check, at most "
                         f"{_RANDOM_CHECK_MONOMIALS}: p={args.p}, q={args.q}, gens={args.gens} "
                         f"is too large")
    ident = berezinian.SuperMatrix.identity(args.p, args.q, args.gens)
    if berezinian.ber(ident) != berezinian.GrassmannElement.scalar(args.gens, 1):
        raise ArithmeticError("identity check failed")
    rng = random.Random(args.seed)
    for _ in range(count):
        M = berezinian.random_invertible_supermatrix(rng, args.p, args.q, args.gens)
        N = berezinian.random_invertible_supermatrix(rng, args.p, args.q, args.gens)
        if berezinian.ber(M @ N) != berezinian.ber(M) * berezinian.ber(N):
            raise ArithmeticError("multiplicativity check failed")
    stdout.write(
        f"ok: {count} seeded supermatrices (p={args.p}, q={args.q}, gens={args.gens}, "
        f"seed={args.seed}) pass multiplicativity and closed-form agreement\n"
    )
    return 0


def _upper(lo: int, hi: int | None, name: str) -> int:
    """Upper end of the inclusive range --NAME..--NAME-max (default --NAME)."""
    if hi is None:
        return lo
    if hi < lo:
        raise ValueError(f"--{name}-max {hi} is below --{name} {lo}: empty range")
    return hi


def _cmd_bott(args, stdout) -> int:
    if args.p < 0:
        raise ValueError(f"--p must be nonnegative, got {args.p}")
    p_hi, r_hi = _upper(args.p, args.p_max, "p"), _upper(args.r, args.r_max, "r")
    tables = bott.bott_table(args.m, args.n, p_hi, args.r, r_hi, args.method, args.base, p_min=args.p)
    _emit_tables(tables, args.output, stdout)
    return 0


def _emit_tables(tables, output, stdout) -> None:
    if output == "json":
        _emit_json({"format": "skos.tables/1", "tables": [t.to_record() for t in tables]}, stdout)
    elif output == "csv":
        stdout.write(bott.CSV_HEADER + "\n")
        for t in tables:
            for row in t.csv_rows():
                stdout.write(row + "\n")
    else:
        for t in tables:
            stdout.write(
                f"m={t.m} n={t.n} p={t.p} r={t.r} [{t.method}]: "
                + "  ".join(f"H^{i}={d}" for i, d in enumerate(t.rows))
                + "\n"
            )


@functools.cache
def _command_table() -> dict[str, tuple]:
    """Subcommand -> its parser, its one-value store actions by exact option
    string, and its actions that set a destination by default (all but
    ``-h``): what ``_parse`` reads, taken from ``build_parser`` on first use."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sp in commands.items():
        actions = [a for a in sp._actions if argparse.SUPPRESS not in (a.dest, a.default)]
        table[name] = (sp, {o: a for a in actions if type(a) is argparse._StoreAction and a.nargs is None
                            for o in a.option_strings}, actions)
    return table


def _plain(command: str, words, sp, options, actions) -> argparse.Namespace | None:
    """The namespace ``sp.parse_known_args(words)`` gives, when ``words`` are
    pairs ``OPTION VALUE`` that parse without a message; None for anything else.

    Each OPTION is an exact option string of a one-value store action, no
    destination is given twice, and no VALUE starts with "-" unless ASCII
    digits alone follow it: argparse reads such a value as a value, as no
    option of skos looks like a negative number.  Each value must pass its action's ``type`` and
    ``choices``, and every required option must be given.  The rest is
    argparse's: an action not given gets its default, passed through its
    ``type`` when the default is a str, and then the parser's ``set_defaults``
    fill what is left.  A ``type`` that raises raises here too.
    """
    if len(words) % 2:
        return None
    given = {}
    for option, value in zip(words[::2], words[1::2]):
        action = options.get(option)
        if action is None or value[:1] == "-" and not (value[1:].isdigit() and value[1:].isascii()):
            return None
        given[action.dest] = value
    if 2 * len(given) != len(words):  # an option given twice
        return None
    values = {"command": command}
    for action in actions:
        if action.dest in given:
            value = given[action.dest]
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                return None
        elif action.required:
            return None
        else:
            value = action.default
            if isinstance(value, str) and action.type is not None:
                value = action.type(value)
        values[action.dest] = value
    for dest, value in sp._defaults.items():
        values.setdefault(dest, value)
    args = argparse.Namespace()
    vars(args).update(values)  # Namespace(**values) sets them one by one, at 3x the cost
    return args


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read without argparse when it can be.

    When ``argv[0]`` is a subcommand and the rest is plain ``--option value``
    pairs, ``_plain`` reads them off that subcommand's actions.  Any other
    rest, or a check of ``_plain`` that fails or raises, goes to that
    subcommand's parser: the full parser would only hand it ``argv[1:]`` and
    copy back the namespace it returns.  Without a subcommand the full parser
    runs.  argparse alone prints usage, help and error messages, so messages,
    exit codes and namespaces are the same on every path.
    """
    commands = _command_table()
    if not argv or argv[0] not in commands:
        return build_parser().parse_args(argv)
    sp, options, actions = commands[argv[0]]
    try:
        args = _plain(argv[0], argv[1:], sp, options, actions)
    except Exception:  # argparse reports it, or raises it again
        args = None
    if args is not None:
        return args
    args, rest = sp.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest:
        build_parser().error("unrecognized arguments: " + " ".join(rest))
    return args


def run(argv, stdout=None, stderr=None) -> int:
    """Parse and execute one invocation; returns the exit code.

    A plain ``--option value`` argv is read from its subcommand's actions,
    anything else by argparse, with identical messages, exit codes and
    namespaces (see ``_parse``).
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parse(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        return args.handler(args, stdout)
    except BrokenPipeError:  # the reader closed stdout: it has what it wanted, and nothing failed
        return 0
    except (ValueError, ArithmeticError, OSError) as e:
        stderr.write(f"skos: error: {e}\n")
        return 1
    except MemoryError:
        stderr.write("skos: error: out of memory\n")
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # so the flush at shutdown writes the rest to devnull, not a warning to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
