"""Command-line interface.

Subcommands:

    analyze FILE [--json]           full per-subset report plus polynomials
    verify FILE [--axioms LIST] [--json]
                                    axiom checkers; exit 1 on any violation
    tutte FILE                      arithmetic Tutte polynomial
    euler FILE                      Euler characteristic of the complement
    gcd-check FILE                  gcd property verdict; exit 1 on FAIL
    dual FILE [--emit-arrangement OUT]
                                    dual matroid tables, optional realization
    order-info --m M --tau a,b,c    endomorphism ring constants
    random --k K --n N --m M --tau a,b,c --bound B --seed S [--out FILE]
                                    seeded arrangement file

Exit codes: 0 success, 1 verification failure, 2 input error, 3 an internal
fault; the traceback is on stderr.
"""

import argparse
import json
import sys
from typing import Sequence

from .arrangement import dual_arrangement
from .fileio import load_arrangement, random_arrangement, save_arrangement, serialize_arrangement
from .matroid import (
    AXIOM_NAMES,
    AXIOMS,
    ArithmeticMatroid,
    char_poly,
    check_axioms,
    euler_characteristic,
    format_subset,
    from_arrangement,
    gcd_property,
    poly_str,
    tutte,
    tutte_str,
)
from .quadratic_order import CurveParams, ParameterError, make_curve, make_field, min_poly

# verify checks rank on every run and p-equivalence whenever p is named, so
# the --axioms choices are the other checks.
AXIOM_CHOICES = tuple(name for name in AXIOM_NAMES if name not in ("rank", "p-equivalence"))


def _order_info_lines(curve: CurveParams) -> list[str]:
    poly = min_poly(curve)
    return [
        f"m: {curve.field.m}",
        f"omega: {curve.field.omega_str()}",
        f"tau: {curve.tau_str()}",
        f"N: {curve.N}",
        "endomorphism ring: Z[1, N*tau]",
        f"conductor: {curve.conductor}",
        f"minimal polynomial: {poly}",
        f"discriminant: {poly.discriminant}",
    ]


def _order_info_json(curve: CurveParams) -> dict:
    poly = min_poly(curve)
    return {
        "m": curve.field.m,
        "tau": {"a": curve.a, "b": curve.b, "c": curve.c},
        "N": curve.N,
        "conductor": curve.conductor,
        "min_poly": {"lead": poly.lead, "lin": poly.lin, "const": poly.const},
        "discriminant": poly.discriminant,
    }


def _torsion_str(invariants: tuple[int, ...]) -> str:
    return " | ".join(str(d) for d in invariants) if invariants else "-"


def _subset_rows(
    matroid: ArithmeticMatroid, n: int, chains: tuple[tuple[int, ...], ...]
) -> list[tuple[str, str, str, str, str]]:
    rows = [("subset", "rank", "layers", "dim", "torsion")]
    for s, chain in enumerate(chains):
        rank = matroid.rk[s]
        rows.append(
            (format_subset(s), str(rank), str(matroid.m[s]), str(n - rank), _torsion_str(chain))
        )
    return rows


def _print_rows(rows: list[tuple[str, ...]]) -> None:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        cells = [r[0].ljust(widths[0])]
        cells += [r[j].rjust(widths[j]) for j in range(1, len(r) - 1)]
        cells.append(r[-1])
        print("  ".join(cells))


def cmd_analyze(args: argparse.Namespace) -> None:
    arr = load_arrangement(args.file)
    tables, chains = arr.torsion_chains()
    matroid = ArithmeticMatroid(*tables)
    essential = matroid.full_rank == arr.n
    t_poly = tutte(matroid)
    chi = char_poly(matroid)
    euler = euler_characteristic(matroid, arr.n)
    holds, witness = gcd_property(matroid)
    verdicts = check_axioms(matroid, AXIOMS)

    if args.json:
        doc = {
            "curve": _order_info_json(arr.curve),
            "arrangement": {"k": arr.k, "n": arr.n, "essential": essential},
            "subsets": [
                {
                    "subset": s,
                    "indices": [i + 1 for i in range(arr.k) if s >> i & 1],
                    "rank": matroid.rk[s],
                    "multiplicity": matroid.m[s],
                    "layer_dim": arr.n - matroid.rk[s],
                    "torsion": chain,
                }
                for s, chain in enumerate(chains)
            ],
            "axioms": {
                name: {"ok": not v, "violations": [vi.detail for vi in v]}
                for name, v in verdicts.items()
            },
            "tutte": t_poly,
            "char_poly": chi,
            "euler": euler,
            "gcd_property": {
                "holds": holds,
                "witness": None if witness is None else format_subset(witness),
            },
        }
        print(json.dumps(doc, indent=2))
        return

    for line in _order_info_lines(arr.curve):
        print(line)
    print(f"arrangement: {arr.k} divisors in E^{arr.n}")
    print(f"essential: {'yes' if essential else 'no'}")
    print()
    _print_rows(_subset_rows(matroid, arr.n, chains))
    print()
    print(f"tutte polynomial: {tutte_str(t_poly)}")
    print(f"characteristic polynomial: {poly_str(chi)}")
    if essential:
        print(f"euler characteristic: {euler}")
    else:
        print(f"euler characteristic: {euler} (non-essential: rank {matroid.full_rank} < {arr.n})")
    axioms_ok = not any(verdicts.values())
    print(f"axioms: {'ok' if axioms_ok else 'VIOLATED'}")
    if holds:
        print("gcd property: PASS")
    else:
        print(f"gcd property: FAIL (witness {format_subset(witness)})")


def cmd_verify(args: argparse.Namespace) -> bool:
    arr = load_arrangement(args.file)
    selected = AXIOM_CHOICES if args.axioms is None else tuple(args.axioms)
    named = ("rank", *selected, *(("p-equivalence",) if "p" in selected else ()))
    verdicts = check_axioms(from_arrangement(arr), named, arr)
    ok = not any(verdicts.values())
    if args.json:
        doc = {
            "checks": [
                {"name": name, "ok": not v, "violations": [vi.detail for vi in v]}
                for name, v in verdicts.items()
            ],
            "ok": ok,
        }
        print(json.dumps(doc, indent=2))
    else:
        for name, violations in verdicts.items():
            if violations:
                print(f"{name}: FAIL ({len(violations)} violation(s))")
                for vi in violations:
                    print(f"  - {vi.detail}")
            else:
                print(f"{name}: ok")
        print(f"result: {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_tutte(args: argparse.Namespace) -> None:
    arr = load_arrangement(args.file)
    print(tutte_str(tutte(from_arrangement(arr))))


def cmd_euler(args: argparse.Namespace) -> None:
    arr = load_arrangement(args.file)
    matroid = from_arrangement(arr)
    essential = matroid.full_rank == arr.n
    print(euler_characteristic(matroid, arr.n))
    if not essential:
        print(
            f"note: non-essential arrangement (rank {matroid.full_rank} < ambient {arr.n}); "
            "the complement has Euler characteristic 0"
        )


def cmd_gcd_check(args: argparse.Namespace) -> bool:
    arr = load_arrangement(args.file)
    holds, witness = gcd_property(from_arrangement(arr))
    print("PASS" if holds else f"FAIL (witness {format_subset(witness)})")
    return holds


def cmd_dual(args: argparse.Namespace) -> None:
    arr = load_arrangement(args.file)
    dual = from_arrangement(arr).dual()
    stacked, t_mask = dual_arrangement(arr)
    # Saved before any output, so a refused write prints nothing.
    if args.emit_arrangement:
        save_arrangement(stacked, args.emit_arrangement)
    rows = [("subset", "rank*", "m*")]
    for s in range(1 << dual.size):
        rows.append((format_subset(s), str(dual.rk[s]), str(dual.m[s])))
    _print_rows(rows)
    print()
    print(
        f"stacked realization: {stacked.k} divisors in E^{stacked.n}, "
        f"contract T = {format_subset(t_mask)}"
    )
    if args.emit_arrangement:
        print(f"wrote {args.emit_arrangement}")


def _parse_tau(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"--tau expects a,b,c, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"--tau expects integers, got {text!r}") from exc
    return a, b, c


def cmd_order_info(args: argparse.Namespace) -> None:
    a, b, c = _parse_tau(args.tau)
    curve = make_curve(make_field(args.m), a, b, c)
    for line in _order_info_lines(curve):
        print(line)


def cmd_random(args: argparse.Namespace) -> None:
    a, b, c = _parse_tau(args.tau)
    arr = random_arrangement(args.k, args.n, args.m, a, b, c, args.bound, args.seed)
    if args.out:
        save_arrangement(arr, args.out)
    else:
        sys.stdout.write(serialize_arrangement(arr))


def _axioms_list(text: str) -> list[str]:
    """The check names of a comma list, in the order given; check_axioms drops repeats."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty check list")
    for name in names:
        if name not in AXIOM_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; choose from {', '.join(AXIOM_CHOICES)}"
            )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellmat",
        description="Arithmetic matroids of elliptic arrangements, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full per-subset report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run axiom checkers; exit 1 on violation")
    p.add_argument("file")
    p.add_argument("--axioms", type=_axioms_list, default=None, metavar="LIST")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tutte", help="arithmetic Tutte polynomial")
    p.add_argument("file")
    p.set_defaults(func=cmd_tutte)

    p = sub.add_parser("euler", help="Euler characteristic of the complement")
    p.add_argument("file")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("gcd-check", help="gcd property verdict; exit 1 on FAIL")
    p.add_argument("file")
    p.set_defaults(func=cmd_gcd_check)

    p = sub.add_parser("dual", help="dual matroid tables and stacked realization")
    p.add_argument("file")
    p.add_argument("--emit-arrangement", default=None, metavar="OUT")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("order-info", help="endomorphism ring constants")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", required=True, metavar="a,b,c")
    p.set_defaults(func=cmd_order_info)

    p = sub.add_parser("random", help="seeded random arrangement file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", required=True, metavar="a,b,c")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the only place that turns its outcome into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        verdict = args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 3
    return 1 if verdict is False else 0


if __name__ == "__main__":
    sys.exit(main())
