"""Command-line entry point: JSON in, JSON out.

Subcommands: betti, algebra-check, simplicial, poisson, pipeline.  Exit
codes: 0 success, 1 internal invariant violation, 2 input error (a ValueError),
3 partial run (grid points skipped over a brute-force budget), 4 resource limit
(the request would exceed a fixed work or memory budget).  Each warning is one
``warning:`` line on stderr.  ``--seed`` and ``--samples`` hand their text to
the value's one reader.  Exact integers are emitted as decimal strings;
Monte Carlo values as floats.  Replies are the text of json.dumps with
indent=2, written by ``_dumps`` in one C-encoder call per container or per
batch of 64 row dicts, nested children stood in by a marker string (a fresh
one if the payload holds it).  Output files are written atomically (temp file
+ rename) onto the regular file --output resolves to, checked before the command
runs.  The argument parser is
built once per process, by the first ``main`` call, and reused; ``main`` is
reentrant, and every call parses afresh from the parser's defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from itertools import combinations_with_replacement, compress, product
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import comb, factorial

from . import betti as betti_mod
from . import graded_algebra as ga
from . import hodge_discrete as hodge
from .errors import InvariantError, ResourceError, fields, strict_int, strict_seed

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_PARTIAL = 3
EXIT_RESOURCE = 4
# Kronecker-sum probes one simplicial run may ask for.
MAX_KRON_PROBES = 1_000
# Rows one algebra-check sweep may hold, and Betti degrees one grid vector may have.
MAX_GRID_ROWS = 6_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise a usage error as ValueError, for main's one line (argv may hold newlines)."""
        raise ValueError(" ".join(message.splitlines()))


def count(text: str) -> int:
    """argparse type of --n-max and --kron-probes: strict_int's rule, so '1_0' and ' 3' are
    refused, and at least 0, so that a bad count is refused as the flags are parsed."""
    try:
        value = strict_int(text, "flag")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _read_json_source(source: str) -> dict:
    """Accept inline JSON (leading '{'), '-' for stdin, or a file path."""
    text = source.strip()
    if text.startswith("{"):
        raw = text
    elif text == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input {source!r}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON input: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("input JSON must be an object")
    return doc


_NESTED = (list, tuple, dict)
_SCALARS = frozenset((str, int, float, bool, type(None)))
# the stand-in of a nested child in the C encoder's text, and the row dicts per C call
_MARKER, _BATCH = "@gammahodge-child@", 64
# indent level -> _level's tuple, built on first use
_LEVELS: dict = {}


def _level(level: int) -> tuple:
    """(encoder, item separator, closing pad, joint, joint's rendering) at one indent level.

    The encoder writes a container's items one per line at level + 1's indent:
    its item separator carries the newline and indent, which is all that an indent
    of 2 puts between items; the C encoder, which ignores indent, honours it.  The
    joint "}" + separator + "{" can only lie between two dicts of a list.
    """
    found = _LEVELS.get(level)
    if found is None:
        separator, close = ",\n" + "  " * (level + 1), "\n" + "  " * level
        encoder = (json.JSONEncoder(separators=(separator, ": ")).iterencode if c_make_encoder is None
                   else c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                       None, ": ", separator, False, False, True))
        found = _LEVELS[level] = (encoder, separator, close, "}" + separator + "{",
                                  f"{close}}},{close}{{{separator[1:]}")
    return found


def _dumps(payload) -> str:
    """The JSON text of payload with an indent of 2, as json.dumps gives it byte for byte.

    A container with no nested child is one C call plus its opening and closing
    pads.  Any other container, or a batch of _BATCH dicts from a list of non-empty
    dicts such as a reply's rows, is encoded in one C call with each nested child
    stood in by _MARKER; split on the marker's encoded form, that text gives the pieces
    around each child's rendering.  More pieces than stand-ins mean that a key or
    string of the payload holds the marker: the text is encoded again with a fresh
    one.  Parts go into one list, joined once, so no subtree's text is copied
    level by level.  Each rendering's parts are memoised by (id, level), with the
    object so that no id is reused, and a shared subtree is rendered once a level.
    """
    out, memo = [], {}

    def splice(batch, level: int, lead: str = "") -> None:
        """Write lead, then batch's containers at level as items of one list, children in place."""
        encode, separator, close, joint, rendered = _LEVELS.get(level) or _level(level)
        marker = _MARKER
        while True:
            shells, children = [], []
            for obj in batch:
                shell = dict(obj) if isinstance(obj, dict) else [*obj]
                for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
                    # the exact scalar types, nearly every value, skip the slower isinstance
                    if type(value) not in _SCALARS and isinstance(value, _NESTED):
                        shell[key] = marker
                        children.append(value)
                shells.append(shell)
            text = "".join(encode(shells, 0))[1:-1]
            pieces = text.replace(joint, rendered).split(f'"{marker}"')
            if len(pieces) == len(children) + 1:
                break
            marker += "+"
        if len(text) > 2:  # an empty container keeps its two brackets
            pieces[0] = text[0] + separator[1:] + pieces[0][1:]
            pieces[-1] = f"{pieces[-1][:-1]}{close}{text[-1]}"
        out.append(lead + pieces[0])
        for i, child in enumerate(children, 1):
            render(child, level + 1)
            out.append(pieces[i])

    def render(obj, level: int) -> None:
        span = memo.get((id(obj), level))
        if span is not None:
            out.extend(out[span[0]:span[1]])
            return
        start = len(out)
        if (isinstance(obj, dict) or not obj or not isinstance(obj[0], dict)
                or not all(isinstance(row, dict) and row for row in obj)):
            encode, separator, close = (_LEVELS.get(level) or _level(level))[:3]
            if _SCALARS.issuperset(map(type, obj.values() if isinstance(obj, dict) else obj)):
                text = "".join(encode(obj, 0))  # no child to stand in: no marker
                out.append(f"{text[0]}{separator[1:]}{text[1:-1]}{close}{text[-1]}"
                           if len(text) > 2 else text)
            else:
                splice((obj,), level)
        else:
            separator, close = (_LEVELS.get(level) or _level(level))[1:3]
            for i in range(0, len(obj), _BATCH):
                splice(obj[i:i + _BATCH], level + 1, separator if i else "[" + separator[1:])
            out.append(close + "]")
        memo[id(obj), level] = (start, len(out), obj)

    if not isinstance(payload, _NESTED):
        return "".join(_level(0)[0](payload, 0))
    render(payload, 0)
    return "".join(out)


def _emit(payload: dict, output: str | None) -> None:
    text = _dumps(payload)
    if output is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left early: send the unflushed rest to devnull so exit stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(output), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write --output {output!r}: {exc}") from exc
        raise


def _check_output(output: str) -> str:
    """The path --output resolves to (a symlink's target), refused before any work unless
    it is a regular file or a missing one in an existing directory: never a FIFO or device."""
    target = os.path.realpath(output)
    if os.path.exists(target) and not os.path.isfile(target):
        what = "a directory" if os.path.isdir(target) else "not a regular file"
        raise ValueError(f"--output {output!r} is {what}")
    directory = os.path.dirname(target)
    if not os.path.isdir(directory):
        raise ValueError(f"--output {output!r}: {directory!r} is not a directory")
    return target


def cmd_betti(args: argparse.Namespace) -> tuple[dict, int]:
    vector = betti_mod.BettiVector.from_json(_read_json_source(args.input))
    return betti_mod.betti_report(vector, args.n_max), EXIT_OK


_DEFAULT_GRID = {
    "l_max": 3,
    "degree_max": 4,
    "dim_max": 2,
    "m_max": 4,
    "n_max": 6,
    "betti_d_max": 3,
    "betti_beta_max": 2,
    "betti_n_max": 6,
}


def _grid_spaces(grid: dict):
    """Component multisets (degree, dim) up to the grid bounds, dims >= 1."""
    pairs = [
        (p, d)
        for p in range(1, grid["degree_max"] + 1)
        for d in range(1, grid["dim_max"] + 1)
    ]
    for size in range(1, grid["l_max"] + 1):
        for comps in combinations_with_replacement(pairs, size):
            yield ga.GradedSpace(comps)


def _grid_rows(grid: dict) -> int:
    """The sweep's row count: exact up to MAX_GRID_ROWS, and over it whenever the count is.

    The spaces, multisets of 1..l_max of the P = degree_max * dim_max pairs,
    number sum_s C(P + s - 1, s) = C(P + l_max, l_max) - 1, with
    (m_max + 1)(n_max + 1) rows each; then (betti_beta_max + 1)^betti_d_max
    vectors have betti_n_max + 1 rows each.  Inputs are clamped where the
    count already passes the budget, so a huge one costs nothing.
    """
    cap = MAX_GRID_ROWS + 1
    pairs = min(grid["degree_max"] * grid["dim_max"], cap)
    sizes = min(grid["l_max"], cap)
    vectors = min(grid["betti_beta_max"] + 1, cap) ** min(grid["betti_d_max"], cap.bit_length())
    return ((comb(pairs + sizes, sizes) - 1) * (grid["m_max"] + 1) * (grid["n_max"] + 1)
            + vectors * (grid["betti_n_max"] + 1))


def _compare(row: dict, expected: int, brute) -> dict:
    """Fill in row's brute count and verdict, or skip it over a budget; misses go to stderr."""
    if isinstance(brute, ga.EnumerationCapError):
        row["status"] = "skipped"
        row["reason"] = str(brute)
    else:
        row["brute"] = str(brute)
        row["status"] = "ok" if brute == expected else "mismatch"
    if row["status"] != "ok":
        label = row.get("space") or row.get("beta")
        print(f"{row['status']:>8}  {row['kind']}  {label}  m={row.get('m', '-')} n={row['n']}",
              file=sys.stderr)
    return row


def cmd_algebra_check(args: argparse.Namespace) -> tuple[dict, int]:
    grid = dict(_DEFAULT_GRID)
    overrides = fields(_read_json_source(args.grid), "grid", optional=grid) if args.grid else {}
    for key, value in overrides.items():
        grid[key] = strict_int(value, f"grid.{key}")
        if grid[key] < 0:
            raise ValueError(f"grid.{key} must be non-negative, got {grid[key]}")
    if grid["betti_d_max"] < 1:
        raise ValueError(f"grid.betti_d_max must be >= 1, got {grid['betti_d_max']}")
    if _grid_rows(grid) > MAX_GRID_ROWS:
        raise ResourceError(f"the grid has more than {MAX_GRID_ROWS} rows, the budget of one sweep")
    # every Betti vector holds betti_d_max entries, even when betti_beta_max = 0 makes one row set
    if grid["betti_d_max"] > MAX_GRID_ROWS:
        raise ResourceError(f"grid.betti_d_max = {grid['betti_d_max']} is over the budget of "
                            f"{MAX_GRID_ROWS} Betti degrees")
    n_max = grid["betti_n_max"]
    # beta_1 = 1 skips row n_max over the permutation budget with n_max! in its reason
    if grid["betti_beta_max"]:
        betti_mod._refuse_digits(factorial(n_max), betti_mod._digit_limit())
    rows = []
    verdicts: dict[tuple, bool] = {}  # one brute-force memo: shapes do not depend on the space

    for space in _grid_spaces(grid):
        # one list per space, shared by its rows, so the reply writer renders it once
        components = [[p, d] for p, d in space.components]
        closed_rows = ga.sym_component_dims(space, grid["m_max"], grid["n_max"])
        brute_rows = ga.sym_component_rows_bruteforce(
            space, grid["m_max"], grid["n_max"], verdicts)
        for m, (closed_row, brute_row) in enumerate(zip(closed_rows, brute_rows)):
            for n, (closed, brute) in enumerate(zip(closed_row, brute_row)):
                row = {
                    "kind": "dims",
                    "space": components,
                    "m": str(m),
                    "n": str(n),
                    "closed": str(closed),
                }
                rows.append(_compare(row, closed, brute))

    d_max = grid["betti_d_max"]
    betas = product(range(grid["betti_beta_max"] + 1), repeat=d_max)
    for beta_tail in betas:
        vector = betti_mod.BettiVector(d=d_max, beta=(0, *beta_tail))
        space = ga.GradedSpace(tuple((k, vector.beta[k]) for k in range(1, d_max + 1)))
        # cells with m > n are 0, so row n sums column n; its first cap in m is its reason
        sums, capped = [0] * (n_max + 1), [None] * (n_max + 1)
        for table_row in ga.sym_component_rows_bruteforce(space, n_max, n_max, verdicts):
            for n in compress(range(n_max + 1), table_row):  # the nonzero and capped cells
                dim = table_row[n]
                if isinstance(dim, ga.EnumerationCapError):
                    capped[n] = capped[n] or dim
                else:
                    sums[n] += dim
        beta = list(vector.beta)
        for n, formula in enumerate(betti_mod.config_betti_series(vector, n_max)):
            row = {
                "kind": "betti",
                "beta": beta,
                "n": str(n),
                "formula": str(formula),
            }
            rows.append(_compare(row, formula, capped[n] or sums[n]))

    statuses = Counter(row["status"] for row in rows)
    mismatches, skipped = statuses["mismatch"], statuses["skipped"]
    summary = {
        "instances": str(len(rows)),
        "ok": str(statuses["ok"]),
        "mismatches": str(mismatches),
        "skipped": str(skipped),
        "word_cap": str(ga.MAX_WORDS),
    }
    print(
        f"algebra-check: {summary['ok']}/{summary['instances']} ok, "
        f"{mismatches} mismatches, {skipped} skipped",
        file=sys.stderr,
    )
    payload = {"summary": summary, "rows": rows}
    if mismatches:
        return payload, EXIT_INVARIANT
    if skipped:
        return payload, EXIT_PARTIAL
    return payload, EXIT_OK


def _kron_probe_rows(probes: int, seed: int) -> tuple[list[dict], bool]:
    from . import poisson_mc  # numpy, loaded only by the probes and the poisson command

    rng = poisson_mc._stream(seed, 0)
    rows = []
    for i in range(probes):
        sizes = rng.integers(1, 7, size=2)
        factors = [rng.integers(-2, 3, size=(int(size) + 1, int(size))).tolist() for size in sizes]
        computed, predicted = hodge.kron_sum_kernel_dim(*factors)
        rows.append(
            {
                "probe": str(i),
                "sizes": [str(int(s)) for s in sizes],
                "computed": str(computed),
                "predicted": str(predicted),
            }
        )
    return rows, all(row["computed"] == row["predicted"] for row in rows)


def cmd_simplicial(args: argparse.Namespace) -> tuple[dict, int]:
    doc = _read_json_source(args.input)
    seed = strict_seed(0 if args.seed is None else args.seed)
    if args.seed is not None and not args.kron_probes:
        raise ValueError("--seed seeds the probes alone: it needs --kron-probes above 0")
    if args.kron_probes > MAX_KRON_PROBES:
        raise ResourceError(
            f"--kron-probes {args.kron_probes} is above the budget of {MAX_KRON_PROBES}"
        )
    complex_ = hodge.load_complex(doc)
    split = hodge.hodge_decomposition_dims(complex_)
    decomposition = [
        {
            "k": str(k),
            "chain_dim": str(complex_.chain_dim(k)),
            "harmonic": str(harmonic),
            "exact": str(exact),
            "coexact": str(coexact),
        }
        for k, (harmonic, exact, coexact) in enumerate(split)
    ]
    payload = {
        "num_vertices": str(complex_.num_vertices),
        "max_dim": str(complex_.max_dim),
        # harmonic = beta_k: hodge_decomposition_dims checks the split fills C_k
        "betti": [str(harmonic) for harmonic, _, _ in split],
        "decomposition": decomposition,
    }
    code = EXIT_OK
    if args.kron_probes:
        rows, all_equal = _kron_probe_rows(args.kron_probes, seed)
        payload["kron_probes"] = rows
        if not all_equal:
            code = EXIT_INVARIANT
    return payload, code


def cmd_poisson(args: argparse.Namespace) -> tuple[dict, int]:
    from . import poisson_mc

    spec = _read_json_source(args.input)
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.samples is not None:
        spec["samples"] = args.samples
    return poisson_mc.run_check(spec), EXIT_OK


def _vector_from_complex(complex_: hodge.SimplicialComplex, zero_b0: bool) -> tuple[betti_mod.BettiVector, list[int]]:
    raw = list(hodge.betti_numbers(complex_))
    beta = list(raw)
    if zero_b0 and beta:
        beta[0] = 0
    while len(beta) < 2:
        beta.append(0)
    return betti_mod.BettiVector(d=len(beta) - 1, beta=tuple(beta)), raw


def cmd_pipeline(args: argparse.Namespace) -> tuple[dict, int]:
    doc = _read_json_source(args.input)
    if "complex" in doc:
        doc = fields(doc, "pipeline input", ("complex",), ("mark",))
    else:
        doc = {"complex": doc}
    base = hodge.load_complex(doc["complex"])
    vector, raw = _vector_from_complex(base, args.infinite_volume)
    source = {
        "complex_betti": [str(b) for b in raw],
        "infinite_volume_override": args.infinite_volume,
    }
    if "mark" in doc:  # by presence: "mark": null is refused, never read as no mark
        mark = hodge.load_complex(doc["mark"], "mark")
        mark_vector, mark_raw = _vector_from_complex(mark, zero_b0=False)
        source["mark_betti"] = [str(b) for b in mark_raw]
        vector = betti_mod.kunneth_product(vector, mark_vector)
    payload = betti_mod.betti_report(vector, args.n_max)
    payload["beta_source"] = source
    return payload, EXIT_OK


_COMMANDS = {
    "betti": cmd_betti,
    "algebra-check": cmd_algebra_check,
    "simplicial": cmd_simplicial,
    "poisson": cmd_poisson,
    "pipeline": cmd_pipeline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammahodge",
        description="Configuration-space Betti numbers and the checks behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument(
                "--input", required=True,
                help="JSON document: a path, '-' for stdin, or inline starting with '{'",
            )
        p.add_argument("--output", help="write the JSON report here (atomic)")

    p = sub.add_parser("betti", help="b_0..b_n from a Betti vector document")
    common(p)
    p.add_argument("--n-max", type=count, default=10)

    p = sub.add_parser("algebra-check", help="closed-form vs brute-force dimension sweep")
    common(p, with_input=False)
    p.add_argument("--grid", help="JSON object overriding the default grid bounds")

    p = sub.add_parser("simplicial", help="Betti numbers + Hodge split of a complex")
    common(p)
    p.add_argument("--kron-probes", type=count, default=0,
                   help="also run this many Kronecker-sum kernel probes of random Gram factors")
    p.add_argument("--seed", help="seed for the probes")

    p = sub.add_parser("poisson", help="run one Monte Carlo identity check")
    common(p)
    p.add_argument("--seed", help="override the spec's seed")
    p.add_argument("--samples", help="override the spec's sample count")

    p = sub.add_parser("pipeline", help="complex -> Betti vector -> configuration b_n")
    common(p)
    p.add_argument("--n-max", type=count, default=10)
    p.add_argument("--infinite-volume", action="store_true",
                   help="zero out beta_0 before the configuration formula (recorded)")

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as one stderr line, with no source path or code line."""
    text = " ".join(str(message).splitlines())
    return f"warning: {category.__name__}: {text}\n"


# Built by the first main call rather than at import, so an import builds
# nothing, and reused by every later call: it holds no request data, so unlike
# a result cache it has nothing to clear between requests.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    # catch_warnings empties the once-per-location registries as it enters, so
    # each call shows its own warnings, and restores the filters as it leaves
    with warnings.catch_warnings():
        formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
        try:
            if _PARSER is None:
                _PARSER = _build_parser()
            args = _PARSER.parse_args(argv)
            output = None if args.output is None else _check_output(args.output)
            payload, code = _COMMANDS[args.command](args)
            _emit(payload, output)
        except InvariantError as exc:
            print(f"internal invariant violated: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        except ResourceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        finally:
            warnings.formatwarning = formatwarning
    return code


if __name__ == "__main__":
    sys.exit(main())
