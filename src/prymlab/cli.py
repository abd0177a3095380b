"""Command-line front end.

Input files are JSON monodromy data::

    {"n": 2, "base_genus": 0,
     "generators": [[-1, 2], [2, 1], ...],
     "handles": [[[...], [...]], ...]}

Each generator is a signed permutation given by the images of ``1..n``; the
optional handles list pairs of signed permutations, one pair per unit of
base genus. Exit codes: 0 success/pass, 1 verdict failure, 2 usage or input
error. JSON output is canonical (sorted keys, no spaces), so identical seeds
and arguments reproduce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corr, cover, lattice, prym, surface, weyl
from .cover import MonodromyDatum
from .errors import PrymlabError
from .weyl import OrbitKind, SignedPerm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ORBIT_CHOICES = [k.value for k in OrbitKind]


def _emit(payload, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {_flat(v)}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}{_flat(v)}")
    else:
        print(f"{pad}{_flat(payload)}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "(" + ", ".join(str(x) for x in v) + ")"
    return str(v)


_DATUM_FIELDS = ("n", "base_genus", "generators", "handles")


def load_datum(path: str) -> MonodromyDatum:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}")

    if not isinstance(raw, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    unknown = [k for k in raw if k not in _DATUM_FIELDS]
    if unknown:
        raise UsageError(
            f"{path}: unknown field {', '.join(map(json.dumps, unknown))}; "
            f"the fields are {', '.join(_DATUM_FIELDS)}"
        )

    def whole(v, what):
        # JSON integers only: int() would read 2.5 as 2, true as 1 and "3" as 3
        if type(v) is not int:
            raise UsageError(f"{path}: {what} must be an integer, got {json.dumps(v)}")
        return v

    def listed(v, what, shape, size=None):
        # JSON lists only: a number does not iterate and a string iterates by
        # character, and neither error would name the field
        if type(v) is not list or size not in (None, len(v)):
            raise UsageError(f"{path}: {what} must be {shape}, got {json.dumps(v)}")
        return v

    def perm(images, what, entry):
        images = listed(images, what, "a list of integers")
        return SignedPerm(n, tuple(whole(v, entry) for v in images))

    try:
        n = whole(raw["n"], "n")
        base_genus = whole(raw.get("base_genus", 0), "base_genus")
        gens = tuple(
            perm(g, "a generator", "a generator entry")
            for g in listed(raw["generators"], "generators", "a list of signed permutations")
        )
        handles = tuple(
            tuple(
                perm(w, "a handle permutation", "a handle entry")
                for w in listed(h, "a handle", "a pair [a, b] of signed permutations", 2)
            )
            for h in listed(raw.get("handles", []), "handles", "a list of [a, b] pairs")
        )
        return MonodromyDatum(n, base_genus, gens, handles)
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}")
    except (TypeError, ValueError, PrymlabError) as exc:
        raise UsageError(f"{path}: {exc}")


class UsageError(Exception):
    pass


def cmd_validate(args) -> int:
    datum = load_datum(args.file)
    report = cover.validate(datum)
    if report is None:
        _emit({"valid": True}, args.format)
        return EXIT_OK
    _emit(
        {
            "valid": False,
            "reason": report.message,
            "offending_product": report.offending_product.to_list(),
        },
        args.format,
    )
    return EXIT_USAGE


def cmd_classify(args) -> int:
    datum = load_datum(args.file)
    cover.require_valid(datum)
    cls = weyl.classify_subgroup(list(datum.gens) + [w for pair in datum.handles for w in pair])
    _emit({"class": cls.value}, args.format)
    return EXIT_OK


def cmd_genera(args) -> int:
    datum = load_datum(args.file)
    cover.require_valid(datum)
    out = {}
    for kind in OrbitKind:
        cm = cover.induce(datum, kind)
        comps = cover.components(cm)
        if len(comps) == 1:
            out[kind.value] = {"degree": cm.degree, "genus": cover.genus(cm)}
        else:
            parts = [
                {"sheets": len(c), "genus": cover.genus(cover.component_cover(cm, c))}
                for c in comps
            ]
            out[kind.value] = {"degree": cm.degree, "components": parts}
    _emit(out, args.format)
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        pred = cover.predict(args.n, args.ds, args.dl, args.gy)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {
        "genera": pred.genera,
        "dims": pred.dims,
        "types": {k: list(v) for k, v in pred.types.items()},
        "out_of_regime": list(pred.out_of_regime),
        "notes": list(pred.notes),
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_homology(args) -> int:
    datum = load_datum(args.file)
    cover.require_valid(datum)
    cm = cover.induce(datum, OrbitKind(args.orbit))
    H = surface.build_all(cm)
    payload = {
        "orbit": args.orbit,
        "degree": cm.degree,
        "components": len(H.parts),
        "rank": H.rank,
    }
    if args.dump:
        payload["gram"] = lattice.to_lists(H.gram)
    _emit(payload, args.format)
    return EXIT_OK


def cmd_ptype(args) -> int:
    datum = load_datum(args.file)
    cover.require_valid(datum)
    kind = OrbitKind(args.orbit)
    H = surface.build_all(cover.induce(datum, kind))
    if kind is OrbitKind.SPINOR:
        lat, cert = prym.prym_tyurin_lattice(H)
        which = "P(X,delta)"
    elif kind is OrbitKind.VECTOR:
        lat = prym.prym_lattice(H, corr.negation_matrix(datum.n))
        which = "P(C,C')"
    elif kind is OrbitKind.PARITY:
        lat = prym.prym_lattice(H, lattice.intmat([[0, 1], [1, 0]]))
        which = "P(Ytilde,Y)"
    else:
        lat = H.sublattice(lattice.eye(H.rank))
        which = "full Jacobian lattice"
    gram = lat.restricted_gram()
    payload = {
        "orbit": args.orbit,
        "lattice": which,
        "type": list(lattice.gram_type(gram, lat.basis, lat.exponent)),
    }
    if args.dump:
        payload["gram"] = lattice.to_lists(gram)
    _emit(payload, args.format)
    return EXIT_OK


_VERIFY_OPTIONS = ("seed", "file", "n", "ds", "dl", "level")

# per verify mode: the options it reads, and why any other one is refused
_VERIFY_MODES = {
    "list": ((), "list takes no other option"),
    "scenario": (("seed", "file", "n", "ds", "dl"), "--level is for --identity"),
    "identity": (("file", "n", "level"), "--identity runs on a fixed datum"),
}


def cmd_verify(args) -> int:
    if (args.scenario is None) == (args.identity is None):
        raise UsageError("choose exactly one of --scenario or --identity")
    mode = "scenario" if args.identity is None else "identity"
    reads, why = _VERIFY_MODES["list" if "list" in (args.scenario, args.identity) else mode]
    stray = [f"--{o}" for o in _VERIFY_OPTIONS if o not in reads and getattr(args, o) is not None]
    if stray:
        raise UsageError(f"{why}; drop {' '.join(stray)}")
    if args.scenario is not None:
        if args.scenario == "list":
            _emit({"scenarios": prym.scenario_names()}, args.format)
            return EXIT_OK
        datum = load_datum(args.file) if args.file else None
        if datum is not None and (args.n, args.ds, args.dl) != (None, None, None):
            raise UsageError("--file fixes the datum; drop --n, --ds and --dl")
        if datum is not None and args.seed is not None:
            raise UsageError("--file fixes the datum; drop --seed")
        counts = None
        if args.ds is not None or args.dl is not None:
            if args.ds is None or args.dl is None:
                raise UsageError("--ds and --dl go together")
            counts = (args.ds, args.dl)
        result = prym.verify_scenario(
            args.scenario, datum=datum, n=args.n, counts=counts,
            seed=0 if args.seed is None else args.seed,
        )
        _emit(result.as_dict(), args.format)
        return EXIT_OK if result.verdict else EXIT_FAIL
    if args.identity == "list":
        _emit(
            {
                name: {"ranks": corr.applicable_ranks(name)}
                for name in corr.identity_names()
            },
            args.format,
        )
        return EXIT_OK
    if args.n is None:
        raise UsageError("--identity needs --n")
    if args.file is not None and args.level != "homology":
        raise UsageError("--file is read at --level homology only; drop --file")
    datum = load_datum(args.file) if args.file else None
    result = corr.check_identity(args.identity, args.n, level=args.level or "fiber", datum=datum)
    payload = {
        "identity": result.name,
        "letter": result.letter,
        "n": result.n,
        "level": result.level,
        "passed": result.passed,
        "details": {str(k): v for k, v in result.details.items()},
    }
    if not result.passed:
        payload["witness"] = result.witness
    _emit(payload, args.format)
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_probe(args) -> int:
    for item in prym.probe_stream(args.n, args.ds, args.dl, args.trials, args.seed):
        print(json.dumps(item, sort_keys=True, separators=(",", ":")))
    return EXIT_FAIL if "error" in item else EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    is, so every ``main`` call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand from clobbering a value parsed up front
    common.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="prymlab",
        parents=[common],
        description="exact Prym / Prym-Tyurin lattice verification for covers "
        "of the line built from signed-permutation monodromy",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the surface-group product relation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", parents=[common], help="identify the monodromy group")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("genera", parents=[common],
                       help="genera of all induced orbit covers")
    p.add_argument("file")
    p.set_defaults(fn=cmd_genera)

    p = sub.add_parser("predict", parents=[common],
                       help="closed-form genera, dimensions and types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--dl", type=int, required=True)
    p.add_argument("--gy", type=int, default=0)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("homology", parents=[common],
                       help="homology rank (and Gram with --dump)")
    p.add_argument("file")
    p.add_argument("--orbit", choices=ORBIT_CHOICES, required=True)
    p.add_argument("--dump", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser(
        "ptype",
        parents=[common],
        help="polarization type of the lattice attached to an orbit "
        "(vector: ordinary Prym; spinor: Prym-Tyurin; parity: degree-2 Prym; "
        "others: full Jacobian)",
    )
    p.add_argument("file")
    p.add_argument("--orbit", choices=ORBIT_CHOICES, required=True)
    p.add_argument("--dump", action="store_true")
    p.set_defaults(fn=cmd_ptype)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named scenario or identity check")
    p.add_argument("--scenario")
    p.add_argument("--identity")
    p.add_argument("--file")
    p.add_argument("--n", type=int)
    p.add_argument("--ds", type=int)
    p.add_argument("--dl", type=int)
    p.add_argument("--seed", type=int, help="data seed for --scenario (default 0)")
    p.add_argument("--level", choices=["fiber", "homology"],
                   help="for --identity (default fiber)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("probe", parents=[common],
                       help="conjecture probe: one JSON line per trial")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--dl", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probe)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not hasattr(args, "format"):
        args.format = "text"
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrymlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
