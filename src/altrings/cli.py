"""Batch command-line frontend.

Every subcommand emits one verdict per line as ``anchor  status  detail``
(tab-separated with --format tsv); anchors are stable machine-readable
names of the checked property.  Exit codes: 0 all verdicts hold, 1 some
verdict fails, 2 some verdict undecided and none fails, 3 usage or
parse error, 141 when stdout closes early (a reader such as ``head``
exited).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import finite as finmod
from . import lietype as ltmod
from .algebra import (
    Algebra,
    AlgebraError,
    BudgetError,
    classify_identities,
    center,
    nucleus,
    torsion_free,
)
from .catalog import (
    CATALOG_NAMES,
    SafError,
    catalog as load_catalog,
    dump_map_table,
    parse as parse_saf,
    parse_linear_map,
    parse_map_table,
    serialize as serialize_saf,
)
from .fields import QQ, FieldError, parse_field
from .linalg import Matrix
from .peirce import (
    PeirceError,
    check_conditions_1_to_4,
    check_offdiag_commutant,
    is_prime,
    peirce_context,
    verify_peirce_relations,
)
from .verdict import Verdict


class CliError(ValueError):
    """Bad usage or unparseable input; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class Emitter:
    """Collects verdict rows and derives the process exit code."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.statuses: list[Verdict] = []

    def emit(self, anchor: str, status: Verdict, detail: str = ""):
        self.statuses.append(status)
        if self.fmt == "tsv":
            print(f"{anchor}\t{status}\t{detail}", file=self.out)
        else:
            print(f"{anchor:<34} {str(status):<10} {detail}", file=self.out)

    def fact(self, anchor: str, detail: str):
        self.emit(anchor, Verdict.HOLDS, detail)

    def from_bool(self, anchor: str, value: bool, detail: str = ""):
        self.emit(anchor, Verdict.HOLDS if value else Verdict.FAILS, detail)

    def exit_code(self) -> int:
        if any(s is Verdict.FAILS for s in self.statuses):
            return 1
        if any(s is Verdict.UNDECIDED for s in self.statuses):
            return 2
        return 0


def _parse_field(text: str):
    try:
        return parse_field(text)
    except FieldError as exc:
        raise CliError(f"bad field {text!r} (use Q or GFp:<p>): {exc}") from exc


def _int_at_least(low: int):
    """An argparse type for integers of at least low (`--budget`, `--n`,
    `--torsion`, `--k`)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _parse_coords(text: str, A: Algebra) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != A.dim:
        raise CliError(f"expected {A.dim} coordinates, got {len(parts)}")
    try:
        return tuple(A.field.parse(p) for p in parts)
    except (ValueError, FieldError) as exc:
        raise CliError(f"bad coordinate in {text!r}: {exc}") from exc


def _load_algebra(args) -> Algebra:
    if args.file:
        return parse_saf(_read(args.file))
    if args.catalog:
        field = _parse_field(args.field)
        try:
            return load_catalog(args.catalog, field)
        except AlgebraError as exc:
            raise CliError(str(exc)) from exc
    raise CliError("one of --catalog or --file is required")


def _context(A: Algebra, args):
    if args.idem:
        e1 = _parse_coords(args.idem, A)
    elif A.idempotent is not None:
        e1 = A.idempotent
    else:
        raise CliError("no idempotent: pass --idem or use a catalog algebra")
    try:
        return peirce_context(A, e1)
    except PeirceError as exc:
        raise CliError(f"{exc.kind}: {exc}") from exc


def _fmt_vec(F, coords) -> str:
    return "(" + ", ".join(F.format(c) for c in coords) + ")"


def _fmt_matrix(m: Matrix) -> str:
    F = m.field
    return "; ".join(" ".join(F.format(v) for v in row) for row in m.rows)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_map(path: str, parse_map, target):
    """A .lmap/.tmap file parsed against target; errors read ``<path>:N: ...``."""
    try:
        return parse_map(_read(path), target)
    except SafError as exc:
        raise CliError(f"{path}:{exc.line}: {exc.detail}") from exc


# --------------------------------------------------------------- subcommands


def _cmd_info(args, em: Emitter):
    A = _load_algebra(args)
    F = A.field
    em.fact("info:field", F.name)
    em.fact("info:dim", str(A.dim))
    em.fact("info:unit", _fmt_vec(F, A.unit) if A.unit is not None else "none")
    em.fact(
        "info:idempotent",
        _fmt_vec(F, A.idempotent) if A.idempotent is not None else "none",
    )
    rep = classify_identities(A)
    em.fact("info:associative", str(rep.associative).lower())
    em.fact("info:alternative", str(rep.alternative).lower())
    em.fact("info:flexible", str(rep.flexible).lower())
    Z = center(A)
    N = nucleus(A)
    em.fact("info:center-dim", str(Z.dim))
    em.fact("info:nucleus-dim", str(N.dim))
    em.fact("info:center-meet-nucleus-dim", str(Z.intersect(N).dim))


def _cmd_check(args, em: Emitter):
    A = _load_algebra(args)
    props = args.prop or (["identities"] if not (args.torsion or args.prime) else [])
    if "identities" in props or any(
        p in props for p in ("associative", "alternative", "flexible")
    ):
        rep = classify_identities(A)
        wanted = (
            ("associative", "alternative", "flexible")
            if "identities" in props
            else [p for p in props if p != "identities"]
        )
        values = {
            "associative": rep.associative,
            "alternative": rep.alternative,
            "flexible": rep.flexible,
        }
        for name in wanted:
            em.from_bool(f"check:{name}", values[name])
    if args.torsion:
        for k in args.torsion:
            em.from_bool(f"check:torsion-free-{k}", torsion_free(A, k))
    if args.prime:
        rep = is_prime(A, budget=args.budget or 2 ** 17, seed=args.seed)
        detail = rep.detail
        if rep.witness is not None:
            a, b = rep.witness
            detail = f"aRb = 0 at a = {_fmt_vec(A.field, a)}, b = {_fmt_vec(A.field, b)}"
        em.emit("check:prime", rep.status, detail)


def _cmd_peirce(args, em: Emitter):
    A = _load_algebra(args)
    ctx = _context(A, args)
    em.fact("peirce:dims", str(ctx.dims))
    run_all = not (args.relations or args.conditions or args.commutant)
    if args.relations or run_all:
        rep = verify_peirce_relations(ctx)
        em.from_bool("peirce:relation-composition", rep.composition)
        em.from_bool("peirce:relation-same-component", rep.same_component)
        em.from_bool("peirce:relation-orthogonality", rep.orthogonality)
        em.from_bool("peirce:relation-square-zero", rep.square_free)
        for v in rep.violations:
            em.emit("peirce:relation-witness", Verdict.FAILS,
                    f"{v.detail}; product {_fmt_vec(A.field, v.product)}")
    if args.conditions or run_all:
        rep = check_conditions_1_to_4(ctx)
        for key, verdict in rep.entries.items():
            em.emit(f"peirce:cond-{key}", verdict.status, verdict.detail)
    if args.commutant or run_all:
        for side in ("12", "21"):
            rep = check_offdiag_commutant(ctx, side)
            em.from_bool(
                f"peirce:commutant-{side}",
                rep.contained_in_center,
                f"diagonal commutant of R{side} has dim {rep.subspace.dim}",
            )


def _cmd_derive(args, em: Emitter):
    A = _load_algebra(args)
    if args.n is not None:
        space = ltmod.lie_n_derivation_space(A, args.n)
        label = f"derive:lie{args.n}-dim"
    else:
        space = ltmod.derivation_space(A)
        label = "derive:der-dim"
    em.fact(label, str(space.dim))
    if args.basis:
        for i, D in enumerate(space.maps()):
            em.fact(f"derive:basis-{i}", _fmt_matrix(D.matrix))


def _cmd_decompose(args, em: Emitter):
    A = _load_algebra(args)
    ctx = _context(A, args)
    if not args.map:
        raise CliError("decompose needs --map <path> with an lmap matrix block")
    D = _load_map(args.map, parse_linear_map, A)
    try:
        dec = ltmod.decompose(ctx, D, args.n)
    except ltmod.DecompositionError as exc:
        em.emit(f"decompose:{exc.certificate.replace('_', '-')}", Verdict.FAILS, str(exc))
        return
    em.emit("decompose:condition-a", Verdict.HOLDS, "")
    em.emit("decompose:condition-b", Verdict.HOLDS, "")
    em.emit("decompose:condition-c", Verdict.HOLDS, "")
    em.emit("decompose:leibniz", Verdict.HOLDS, "")
    em.emit("decompose:tau-central", Verdict.HOLDS, "")
    em.emit("decompose:tau-kills-pn", Verdict.HOLDS, "")
    em.fact("decompose:delta", _fmt_matrix(dec.delta.matrix))
    em.fact("decompose:tau", _fmt_matrix(dec.tau.matrix))
    em.fact("decompose:normalizer", _fmt_matrix(dec.normalizer.matrix))


def _cmd_fosner(args, em: Emitter):
    A = _load_algebra(args)
    n, k = args.n, args.k
    m = n + k * (n - 1)
    ok = ltmod.fosner_inclusion(A, n, k)
    em.from_bool(
        "fosner:inclusion", ok, f"Lie-{n} space inside Lie-{m} space (k = {k})"
    )


def _cmd_search(args, em: Emitter):
    A = _load_algebra(args)
    if args.mode == "verify":
        if not args.map:
            raise CliError("search --mode verify needs --map <path> (tmap)")
        ring = finmod.FiniteRing(A)
        T = _load_map(args.map, parse_map_table, ring)
        rep = finmod.verify_lie_n_identity(
            A, T, args.n, budget=args.budget or 10 ** 7, seed=args.seed
        )
        detail = f"mode {rep.mode}, checked {rep.checked}"
        if rep.witness:
            ws = ", ".join(_fmt_vec(A.field, w) for w in rep.witness)
            detail += f"; witness ({ws}), residual {_fmt_vec(A.field, rep.residual)}"
        em.emit("search:lie-identity", rep.status, detail)
    elif args.mode == "defect":
        if not args.map:
            raise CliError("search --mode defect needs --map <path> (tmap)")
        ring = finmod.FiniteRing(A)
        T = _load_map(args.map, parse_map_table, ring)
        rep = finmod.almost_additivity_defect(A, T, budget=args.budget or 10 ** 7)
        detail = f"checked {rep.checked} pairs"
        if rep.witness:
            a, b, defect = rep.witness
            detail += (
                f"; non-central defect {_fmt_vec(A.field, defect)} at"
                f" a = {_fmt_vec(A.field, a)}, b = {_fmt_vec(A.field, b)}"
            )
        em.from_bool("search:almost-additive", rep.all_central, detail)
    elif args.mode == "converse":
        if not args.map:
            raise CliError("search --mode converse needs --map <path> (lmap, the derivation)")
        ctx = _context(A, args)
        delta = _load_map(args.map, parse_linear_map, A)
        T = finmod.construct_converse_example(
            ctx, delta, args.n, seed=args.seed, budget=args.budget or 10 ** 7
        )
        rep = finmod.almost_additivity_defect(A, T)
        if args.out:  # before any verdict, so a failed write prints none
            _write(args.out, dump_map_table(T).encode("utf-8"))
        em.emit("search:converse-identity", Verdict.HOLDS, "verified exhaustively")
        em.from_bool("search:converse-defect-central", rep.all_central)
        em.fact("search:converse-additive", str(T.is_additive()))
        if args.out:
            em.fact("search:converse-table", args.out)
    elif args.mode == "exhaust":
        rep = finmod.pruned_exhaustive_search(A, args.n, budget=args.budget or 10 ** 6)
        tally = {f"lie={k[0]},almost-additive={k[1]}": v for k, v in rep.tally.items()}
        em.fact("search:exhaust-tally", str(tally))
        em.fact(
            "search:exhaust-coverage",
            f"{rep.leaves} leaves, {rep.covered}/{rep.total} tables covered",
        )
        if rep.complete:
            em.emit("search:exhaust-complete", Verdict.HOLDS)
        else:
            em.emit("search:exhaust-complete", Verdict.UNDECIDED,
                    f"budget hit after {rep.instances} identity instances"
                    f" and {rep.nodes} nodes")
        # one contradiction refutes; finding none proves it only over all tables
        contradiction = rep.tally.get((True, False), 0)
        detail = f"{contradiction} tables satisfy the identity but are not almost additive"
        if contradiction:
            em.emit("search:exhaust-no-contradiction", Verdict.FAILS, detail)
        elif rep.complete:
            em.emit("search:exhaust-no-contradiction", Verdict.HOLDS, detail)
        else:
            em.emit("search:exhaust-no-contradiction", Verdict.UNDECIDED,
                    detail + " in the covered part")
    else:
        raise CliError(f"unknown search mode {args.mode!r}")


def _cmd_catalog(args, em: Emitter):
    if args.export:
        field = _parse_field(args.field)
        try:
            A = load_catalog(args.export, field)
        except AlgebraError as exc:
            raise CliError(str(exc)) from exc
        data = serialize_saf(A)
        if args.out:
            _write(args.out, data)
            em.fact("catalog:export", args.out)
        else:
            sys.stdout.write(data.decode("utf-8"))
        return
    for name in CATALOG_NAMES:
        A = load_catalog(name, QQ)
        rep = classify_identities(A)
        kind = (
            "associative"
            if rep.associative
            else "alternative" if rep.alternative else "nonassociative"
        )
        em.fact(f"catalog:{name}", f"dim {A.dim}, {kind}")


def build_parser() -> _Parser:
    parser = _Parser(prog="altrings", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, peirce=False, budget=False, seed=False):
        p.add_argument("--catalog", choices=sorted(CATALOG_NAMES))
        p.add_argument("--file")
        p.add_argument("--field", default="Q", help="Q or GFp:<p>")
        if budget:
            p.add_argument("--budget", type=_int_at_least(1), default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "tsv"), default="text")
        if peirce:
            p.add_argument("--idem", help="idempotent coordinates")

    p = sub.add_parser("info", help="field, dim, identities, center/nucleus dims")
    common(p)

    p = sub.add_parser("check", help="identity classes, torsion, primality")
    common(p, budget=True, seed=True)
    p.add_argument(
        "--prop",
        action="append",
        choices=("identities", "associative", "alternative", "flexible"),
    )
    p.add_argument("--torsion", action="append", type=_int_at_least(1), metavar="K")
    p.add_argument("--prime", action="store_true")

    p = sub.add_parser("peirce", help="decomposition, relations, conditions, commutants")
    common(p, peirce=True)
    p.add_argument("--relations", action="store_true")
    p.add_argument("--conditions", action="store_true")
    p.add_argument("--commutant", action="store_true")

    p = sub.add_parser("derive", help="derivation / Lie-n derivation spaces")
    common(p)
    p.add_argument("--n", type=_int_at_least(2), default=None)
    p.add_argument("--basis", action="store_true")

    p = sub.add_parser("decompose", help="split a Lie-n derivation into delta + tau")
    common(p, peirce=True)
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--map", help="lmap matrix file")

    p = sub.add_parser("fosner", help="Lie-n space inside the Lie-(n+k(n-1)) space")
    common(p)
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--k", type=_int_at_least(0), default=1)

    p = sub.add_parser("search", help="finite value-table modes")
    common(p, peirce=True, budget=True, seed=True)
    p.add_argument(
        "--mode", required=True, choices=("verify", "defect", "converse", "exhaust")
    )
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--map", help="tmap table (verify/defect) or lmap derivation (converse)")
    p.add_argument("--out", help="write the constructed table here")

    p = sub.add_parser("catalog", help="list built-in algebras or export one")
    common(p)
    p.add_argument("--export", metavar="NAME")
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "check": _cmd_check,
    "peirce": _cmd_peirce,
    "derive": _cmd_derive,
    "decompose": _cmd_decompose,
    "fosner": _cmd_fosner,
    "search": _cmd_search,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        em = Emitter(args.format, sys.stdout)
        _HANDLERS[args.command](args, em)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    # every package error but BudgetError is a ValueError
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at exit
        # has somewhere to go, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return em.exit_code()


if __name__ == "__main__":
    sys.exit(main())
