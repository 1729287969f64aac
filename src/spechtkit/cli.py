"""Command-line interface.

One binary with subcommands; all output goes to stdout, diagnostics to
stderr with machine-parsable one-line prefixes.  Exit codes: 0 success,
1 a conjecture check failed (its report is still printed), 2 usage/domain/io
error, 3 resource-guard refusal, 141 (128 + SIGPIPE) the reader closed
standard output early, which prints nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .chow import chow_graded_dimensions, chow_presentation, hilbert_series_text
from .coefficients import (
    kronecker_coefficient,
    kronecker_matrix,
    lr_coefficient,
    lr_matrix,
    plethysm_coefficient,
    plethysm_matrix,
)
from .combinatorics import Partition, classify_pair, format_label, format_word, word_from_text
from .config import Limits, resolve_limits
from .conjectures import check_conjecture1, check_conjecture2, cyclic_orbit_structures
from .errors import DomainError, ResourceLimitError
from .matroid import (
    LinearMatroid,
    _members,
    format_poly1,
    format_poly2,
    poly1_to_json,
    poly2_to_json,
    specht_matroid,
)
from .polytope import polytope_from_columns, root_polytope_structure_check
from .specht import specht_matrix


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(Limits):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=int, default=None, help=argparse.SUPPRESS)


def _load_matrix_columns(path: str):
    """Columns + labels from a matrix JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise IOError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object with 'entries'")
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise DomainError(f"{path}: missing entries")
    if not all(isinstance(row, list) for row in entries):
        raise DomainError(f"{path}: entries must be a list of rows")
    n_cols = len(entries[0])
    for i, row in enumerate(entries):
        if len(row) != n_cols:
            raise DomainError(
                f"{path}: row {i} has {len(row)} entries, row 0 has {n_cols}"
            )
        for x in row:
            # bool is a subclass of int; JSON true/false are not entries
            if type(x) is not int:
                raise DomainError(f"{path}: row {i}: entry {x!r} is not an integer")
    labels = data.get("col_labels")
    if labels is None:
        labels = list(range(n_cols))
    if isinstance(labels, list):
        # a coefficient matrix labels a column by its factor words, read as "w1|w2|w3"
        labels = ["|".join(x) if _is_word_list(x) else x for x in labels]
    # one label type per file: flats and circuits sort their labels
    if (
        not isinstance(labels, list)
        or len(labels) != n_cols
        or not (
            all(isinstance(x, str) for x in labels) or all(type(x) is int for x in labels)
        )
    ):
        raise DomainError(
            f"{path}: col_labels must be {n_cols} labels, one per column, either all "
            "integers or all strings and non-empty lists of strings"
        )
    columns = [tuple(row[j] for row in entries) for j in range(n_cols)]
    return tuple(labels), tuple(columns)


def _is_word_list(label) -> bool:
    return isinstance(label, list) and bool(label) and all(isinstance(w, str) for w in label)


def _matroid_from_args(args, limits: Limits) -> LinearMatroid:
    if not args.matrix and args.lam:
        return specht_matroid(Partition.parse(args.lam), limits)
    return LinearMatroid(*_columns_from_args(args, limits), limits)


def _columns_from_args(args, limits: Limits):
    """Labels and columns from --matrix or, in full, from --lambda."""
    if getattr(args, "matrix", None):
        return _load_matrix_columns(args.matrix)
    if getattr(args, "lam", None):
        mat = specht_matrix(Partition.parse(args.lam), limits)
        return mat.col_labels, tuple(mat.columns())
    raise DomainError("provide --lambda or --matrix")


# the formats each command, or one action of it, writes; "text" and "json" otherwise
_FORMATS = {
    "specht-matrix": ("text", "json", "csv"),
    "chow presentation": ("text", "json", "macaulay2-text"),
}


def _emit(args, text, data, csv=None, macaulay2=None) -> None:
    """Print the output in ``args.format``, checked by ``main``: each
    argument after *args* is a thunk that builds one format, *data* the JSON
    value, the others the text, and only the one asked for is called."""
    build = {"text": text, "json": data, "csv": csv, "macaulay2-text": macaulay2}[args.format]
    if args.format == "json":
        print(json.dumps(build(), indent=2))
    elif args.format == "csv":
        sys.stdout.write(build())
    else:
        print(build())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_specht_matrix(args, limits):
    mat = specht_matrix(Partition.parse(args.lam), limits)

    def text():
        header = " ".join(format_word(w) for w in mat.col_labels)
        lines = ["# columns: " + header]
        for label, row in zip(mat.row_labels, mat.entries):
            lines.append(
                format_word(label) + ": " + " ".join(f"{x:2d}" for x in row)
            )
        return "\n".join(lines)

    _emit(args, text, mat.to_json_dict, mat.to_csv)


def _cmd_classify(args, limits):
    w1 = word_from_text(args.w1)
    w2 = word_from_text(args.w2)
    cls = classify_pair(w1, w2)
    if not cls.rearrangeable:
        _emit(args, lambda: "not complementary-rearrangeable", lambda: {"rearrangeable": False})
        return
    _emit(
        args,
        lambda: f"partition {cls.partition}; complementary: {cls.is_complementary}",
        lambda: {
            "rearrangeable": True,
            "partition": list(cls.partition.parts),
            "is_complementary": cls.is_complementary,
        },
    )


def _label_sets(m: LinearMatroid, sets) -> list[list]:
    """Each set of elements as its sorted output labels, each label rendered once."""
    name = {lab: format_label(lab) for lab in m.labels}
    return [sorted(map(name.__getitem__, s)) for s in sets]


def _cmd_matroid(args, limits):
    m = _matroid_from_args(args, limits)
    if args.action in ("flats", "circuits"):
        if args.action == "flats":
            names = [format_label(lab) for lab in m.labels]
            out = [sorted([names[i] for i in _members(f)]) for f in m.flat_lattice()[0]]
        else:
            out = _label_sets(m, m.circuits(args.max_size))
        _emit(args, lambda: "\n".join(map(str, out)), lambda: out)
    elif args.action == "bases":
        count = m.bases_count()
        _emit(args, lambda: str(count), lambda: {"bases": count})
    elif args.action == "tutte":
        t = m.tutte_polynomial(args.strategy)
        _emit(args, lambda: format_poly2(t), lambda: poly2_to_json(t))
    elif args.action == "charpoly":
        c = m.characteristic_polynomial()
        _emit(args, lambda: format_poly1(c), lambda: poly1_to_json(c))


def _cmd_chow(args, limits):
    m = _matroid_from_args(args, limits)
    if args.action == "dims":
        dims = chow_graded_dimensions(m)
        _emit(
            args,
            lambda: hilbert_series_text(dims),
            lambda: {"dims": dims, "hilbert": hilbert_series_text(dims)},
        )
    else:
        pres = chow_presentation(m)
        _emit(args, pres.to_macaulay2, pres.to_json_dict, macaulay2=pres.to_macaulay2)


def _cmd_polytope(args, limits):
    if args.action == "root-check":
        if args.k is None:
            raise DomainError("root-check requires --k")
        rep = root_polytope_structure_check(args.k, limits)

        def text():
            claims = [
                ("vertices", rep.n_vertices, args.k * (args.k - 1)),
                ("edges", rep.n_edges, (args.k - 2) * (args.k - 1) * args.k),
                ("facets", rep.n_facets, 2**args.k - 2),
                ("lattice_points", rep.n_lattice_points, args.k * (args.k - 1) + 1),
            ]
            lines = []
            for name, got, want in claims:
                ok = "pass" if got == want else "FAIL"
                lines.append(f"{name}: {got} (expected {want}) {ok}")
            lines.append(f"facet_grids: {'pass' if rep.facet_grids_ok else 'FAIL'}")
            lines.append(
                f"matches_pair_matrix_columns: {rep.matches_pair_matrix_columns}"
            )
            return "\n".join(lines)

        _emit(
            args,
            text,
            lambda: {
                "k": rep.k,
                "dim": rep.dim,
                "vertices": rep.n_vertices,
                "edges": rep.n_edges,
                "facets": rep.n_facets,
                "lattice_points": rep.n_lattice_points,
                "facet_grids_ok": rep.facet_grids_ok,
                "matches_pair_matrix_columns": rep.matches_pair_matrix_columns,
            },
        )
        return
    labels, columns = _columns_from_args(args, limits)
    poly = polytope_from_columns(columns, limits)
    if args.action == "fvector":
        fv = poly.f_vector()
        _emit(args, lambda: "(" + ", ".join(map(str, fv)) + ")", lambda: {"f_vector": fv})
    elif args.action == "dim":
        _emit(args, lambda: str(poly.dim), lambda: {"dim": poly.dim})
    elif args.action == "faces":
        point_label = {}
        for lab, col in zip(labels, columns):
            point_label.setdefault(tuple(col), str(format_label(lab)))
        faces = [
            sorted(point_label[poly.ambient_points[i]] for i in face)
            for face in poly.face_lattice()
        ]
        _emit(args, lambda: "\n".join(map(str, faces)), lambda: faces)
    elif args.action == "lattice-points":
        pts = [list(p) for p in poly.lattice_points(limits)]
        _emit(args, lambda: "\n".join(map(str, pts)), lambda: pts)


def _cmd_coeff(args, limits):
    lam = Partition.parse(args.lam)
    mu = Partition.parse(args.mu)
    nu = Partition.parse(args.nu)
    builders = {
        "kronecker": (kronecker_matrix, kronecker_coefficient),
        "lr": (lr_matrix, lr_coefficient),
        "plethysm": (plethysm_matrix, plethysm_coefficient),
    }
    build_matrix, build_value = builders[args.kind]
    shape = None
    if args.emit_matrix:
        mat = build_matrix(lam, mu, nu, limits)
        with open(args.emit_matrix, "w", encoding="utf-8") as fh:
            fh.write(mat.to_json())
        shape = list(mat.shape)
    # the value path ranks the orbit representatives on row bases, far
    # cheaper than the dense rank, and never refuses what the matrix passed
    value = build_value(lam, mu, nu, limits)
    payload = {
        "kind": args.kind,
        "partitions": [list(p.parts) for p in (lam, mu, nu)],
        "coefficient": value,
    }
    if shape is not None:
        payload["shape"] = shape
    _emit(args, lambda: str(value), lambda: payload)


def _cmd_check(args, limits):
    # each check gives its verdict and thunks for its text line and its JSON
    if args.what == "conjecture1":
        rep = check_conjecture1(
            args.n, args.mode, samples=args.samples, seed=args.seed, limits=limits
        )
        ok, data = rep.passed, rep.to_json_dict
        line = lambda: f"conjecture1 n={rep.n} mode={rep.mode} pairs={rep.pairs_checked}"
    elif args.what == "conjecture2":
        rep = check_conjecture2(args.n, limits)
        ok, data = rep.passed, rep.to_json_dict
        line = lambda: (
            f"conjecture2 n={rep.n}: chow={list(rep.chow_dims)} "
            f"excedance={list(rep.excedance_counts)}"
        )
    else:
        if args.k is None:
            raise DomainError("orbits requires --k")
        conj, fy = cyclic_orbit_structures(args.n, args.k, limits)
        ok = conj == fy
        line = lambda: (
            f"orbits n={args.n} k={args.k}: derangements {conj.counts} "
            f"chain-basis {fy.counts}"
        )
        data = lambda: {  # JSON writes each orbit size as a string key
            "n": args.n,
            "k": args.k,
            "derangement_orbits": conj.counts,
            "fy_orbits": fy.counts,
            "match": ok,
        }
    verdict = ("MISMATCH", "match") if args.what == "orbits" else ("FAIL", "pass")
    _emit(args, lambda: f"{line()}: {verdict[ok]}", data)
    if not ok:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spechtkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix_input=False):
        p.add_argument("--format", choices=["text", "json", "csv", "macaulay2-text"], default="text")
        if matrix_input:
            p.add_argument("--matrix", default=None, metavar="FILE")
        _add_limit_flags(p)

    p = sub.add_parser("specht-matrix", help="pairing matrix of a partition")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)
    p.set_defaults(func=_cmd_specht_matrix)

    p = sub.add_parser("classify", help="classify a pair of words")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("matroid", help="column matroid computations")
    p.add_argument("action", choices=["flats", "circuits", "bases", "tutte", "charpoly"])
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--max-size", type=int, default=None)
    common(p, matrix_input=True)
    p.set_defaults(func=_cmd_matroid)

    p = sub.add_parser("chow", help="Chow ring of the column matroid")
    p.add_argument("action", choices=["dims", "presentation"])
    p.add_argument("--lambda", dest="lam", default=None)
    common(p, matrix_input=True)
    p.set_defaults(func=_cmd_chow)

    p = sub.add_parser("polytope", help="column polytope computations")
    p.add_argument(
        "action",
        choices=["fvector", "dim", "faces", "lattice-points", "root-check"],
    )
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--k", type=int, default=None)
    common(p, matrix_input=True)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("coeff", help="coefficient matrices and ranks")
    p.add_argument("kind", choices=["kronecker", "lr", "plethysm"])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--emit-matrix", default=None, metavar="FILE")
    common(p)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("check", help="conjecture suites")
    p.add_argument("what", choices=["conjecture1", "conjecture2", "orbits"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=["full", "sampled"], default="full")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        limits = resolve_limits(vars(args))
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        if args.format not in _FORMATS.get(command, ("text", "json")):
            raise DomainError(f"{args.format} format not available for this command")
        args.func(args, limits)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ResourceLimitError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
