"""Command-line front end.

Subcommands cover every pipeline: index formulas, coset tables, free
product decomposition, free rank, stabilizer orbits, abelianization by
three methods, batch verification sweeps, and the level-(m, m) kernel
cross-check.

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error,
3 enumeration ceiling exceeded, 4 internal error (a broken invariant).
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import abelianize, fingroups, rewriting
from .cosets import CosetCeilingError, DEFAULT_CEILING, congruence_table
from .matgroup import index_formula, psl_index_formula

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CEILING = 3
EXIT_INTERNAL = 4


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(
            "missing required option(s): " + ", ".join("--" + n for n in missing)
        )


class UsageError(ValueError):
    pass


def cmd_index(args) -> int:
    _require(args, "m", "n")
    sl = index_formula(args.m, args.n)
    psl = psl_index_formula(args.m, args.n)
    _emit(
        args,
        {"m": args.m, "n": args.n, "sl_index": sl, "psl_index": psl},
        [
            "SL-index  [SL2(Z) : Gamma(%d,%d)] = %d" % (args.m, args.n, sl),
            "PSL-index [PSL2(Z) : PG(%d,%d)] = %d" % (args.m, args.n, psl),
        ],
    )
    return EXIT_OK


def cmd_table(args) -> int:
    _require(args, "m", "n")
    t = congruence_table(args.m, args.n)
    if t.n > args.ceiling:
        raise CosetCeilingError(
            "table needs %d cosets, ceiling is %d" % (t.n, args.ceiling)
        )
    text = t.serialize()
    _emit(
        args,
        {"m": args.m, "n": args.n, "cosets": t.n, "table": text},
        [text],
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    _require(args, "m", "n")
    t = congruence_table(args.m, args.n)
    d = rewriting.kurosh_decompose(t)
    lines = [
        "free factors of PG(%d,%d): F_%d * (Z/2)^%d * (Z/3)^%d"
        % (args.m, args.n, d.free_rank, d.f2, d.f3)
    ]
    for coset, word in d.witnesses_order2:
        lines.append("order-2 factor at coset %d, conjugator %r" % (coset, word))
    for coset, word in d.witnesses_order3:
        lines.append("order-3 factor at coset %d, conjugator %r" % (coset, word))
    _emit(
        args,
        {
            "m": args.m,
            "n": args.n,
            "free_rank": d.free_rank,
            "order2_factors": d.f2,
            "order3_factors": d.f3,
        },
        lines,
    )
    return EXIT_OK


def cmd_rank(args) -> int:
    _require(args, "m", "n")
    if args.sl:
        s = abelianize.sl_level_structure(args.m, args.n)
        _emit(
            args,
            {
                "m": args.m,
                "n": args.n,
                "level": "sl",
                "free": s.is_free,
                "structure": s.structure,
                "free_rank": s.free_rank,
                "abelianization": s.abelianization.to_dict(),
            },
            [
                "Gamma(%d,%d) at SL level: %s (free rank %d, abelianization %s)"
                % (args.m, args.n, s.structure, s.free_rank, s.abelianization)
            ],
        )
        return EXIT_OK
    t = congruence_table(args.m, args.n)
    free = rewriting.is_free(t)
    payload = {"m": args.m, "n": args.n, "level": "psl", "free": free}
    if free:
        rank = rewriting.free_rank(t)
        payload["free_rank"] = rank
        lines = ["PG(%d,%d) is free of rank %d" % (args.m, args.n, rank)]
    else:
        d = rewriting.kurosh_decompose(t)
        payload.update(
            {"free_rank": d.free_rank, "order2_factors": d.f2, "order3_factors": d.f3}
        )
        lines = [
            "PG(%d,%d) is not free: F_%d * (Z/2)^%d * (Z/3)^%d"
            % (args.m, args.n, d.free_rank, d.f2, d.f3)
        ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_stabilizer(args) -> int:
    _require(args, "group")
    g = fingroups.parse_group_spec(args.group)
    epis = fingroups.epi_set(g)
    if not epis:
        raise UsageError("group %s is not 2-generated" % g.tag)
    orb = fingroups.orbit_stabilizer(g, epis[0])
    _emit(
        args,
        {
            "group": g.tag,
            "epimorphisms": len(epis),
            "signed_orbit_size": orb.signed_orbit_size,
            "epi_orbit_size": orb.epi_orbit_size,
            "aut_plus_index": orb.aut_plus_index,
            "sign_mixing": orb.sign_mixing,
        },
        [
            "group %s: %d epimorphisms onto it from F_2" % (g.tag, len(epis)),
            "signed orbit size %d, plain orbit size %d"
            % (orb.signed_orbit_size, orb.epi_orbit_size),
            "index of the special stabilizer in Aut+(F_2): %d" % orb.aut_plus_index,
        ],
    )
    return EXIT_OK


def cmd_abelianize(args) -> int:
    method = args.method
    if method == "hall":
        _require(args, "m", "n")
        inv = abelianize.hall_abelianization(args.m, args.n)
        tag = "Gamma+(Z/%d x Z/%d)" % (args.m, args.n)
    else:
        _require(args, "group")
        g = fingroups.parse_group_spec(args.group)
        if method == "full":
            inv = abelianize.full_abelianization(g)
            tag = "Gamma+(%s)" % g.tag
        else:
            inv = abelianize.image_abelianization(g)
            tag = "projective image of Gamma+(%s)" % g.tag
    _emit(
        args,
        {"method": method, "target": tag, "invariants": inv.to_dict()},
        ["%s abelianized: %s" % (tag, inv)],
    )
    return EXIT_OK


def cmd_satoh(args) -> int:
    _require(args, "m")
    ok = abelianize.satoh_crosscheck(args.m)
    inv = abelianize.hall_abelianization(args.m, args.m)
    _emit(
        args,
        {"m": args.m, "verified": ok, "invariants": inv.to_dict()},
        [
            "level (%d,%d) kernel abelianization %s: %s"
            % (args.m, args.m, inv, "PASS" if ok else "FAIL")
        ],
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def _pairs_up_to(max_m: int):
    for m in range(2, max_m + 1):
        for n in range(1, m + 1):
            if m % n == 0:
                yield m, n


def verify_index(args) -> list[tuple[str, bool]]:
    results = []
    for m, n in _pairs_up_to(args.max_m):
        t = congruence_table(m, n)
        ok = t.n == psl_index_formula(m, n)
        results.append(("index (%d,%d): formula %d, table %d" % (m, n, psl_index_formula(m, n), t.n), ok))
    return results


def verify_abelianization(args) -> list[tuple[str, bool]]:
    results = []
    for m, n in _pairs_up_to(args.max_m):
        if m < 3 or (m, n) == (3, 1):
            continue
        got = abelianize.hall_abelianization(m, n)
        want = abelianize.predicted_invariants(m, n)
        results.append(
            ("abelianization (%d,%d): %s vs predicted %s" % (m, n, got, want), got == want)
        )
    return results


def verify_decomposition(args) -> list[tuple[str, bool]]:
    results = []
    for m, n in _pairs_up_to(args.max_m):
        t = congruence_table(m, n)
        d = rewriting.kurosh_decompose(t)
        # Euler characteristic identity: 6k = 6 + i - 3*f2 - 4*f3
        ok = 6 * d.free_rank == 6 + t.n - 3 * d.f2 - 4 * d.f3
        results.append(
            (
                "decomposition (%d,%d): F_%d * (Z/2)^%d * (Z/3)^%d over %d cosets"
                % (m, n, d.free_rank, d.f2, d.f3, t.n),
                ok,
            )
        )
    return results


def verify_verdicts(args) -> list[tuple[str, bool]]:
    specs = [
        "cyclic:2", "cyclic:3", "cyclic:4", "abelian:2,2", "cyclic:6",
        "sym:3", "dihedral:4", "quaternion", "cyclic:12", "alt:4",
        "dihedral:6", "abelian:4,2",
    ]
    results = []
    for spec in specs:
        g = fingroups.parse_group_spec(spec)
        v = abelianize.infinite_abelianization_verdict(g)
        results.append(
            (
                "verdict %s: image abelianization %s" % (g.tag, v.image_invariants),
                v.certified,
            )
        )
    return results


def verify_smith(args) -> list[tuple[str, bool]]:
    """Scramble known diagonal presentations with random unimodular row and
    column operations; the invariant factors must survive."""
    rng = random.Random(args.seed)
    results = []
    trials, fails = 0, 0
    for _ in range(50):
        n = rng.randint(1, 5)
        diag = sorted(rng.choice([0, 0, 1, 2, 2, 3, 4, 6, 12]) for _ in range(n))
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [d for d in abelianize._fix_divisibility([d for d in diag if d > 1]) if d > 1]
        want = abelianize.AbelianInvariants(tuple(chain), sum(1 for d in diag if d == 0))
        for _ in range(rng.randint(5, 25)):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            c = rng.randint(-3, 3)
            if i == j:
                continue
            if rng.random() < 0.5:
                for k in range(n):
                    rows[i][k] += c * rows[j][k]
            else:
                for k in range(n):
                    rows[k][i] += c * rows[k][j]
        got = abelianize.smith_invariants(rows, n)
        trials += 1
        if got != want:
            fails += 1
    results.append(
        ("smith normal form: %d/%d scrambled matrices agreed" % (trials - fails, trials), fails == 0)
    )
    return results


VERIFY_SUBJECTS = {
    "index": verify_index,
    "abelianization": verify_abelianization,
    "decomposition": verify_decomposition,
    "verdicts": verify_verdicts,
    "smith": verify_smith,
}


def cmd_verify(args) -> int:
    results = VERIFY_SUBJECTS[args.subject](args)
    all_ok = all(ok for _, ok in results)
    if args.json:
        print(
            json.dumps(
                {
                    "subject": args.subject,
                    "verified": all_ok,
                    "checks": [{"check": label, "pass": ok} for label, ok in results],
                },
                sort_keys=True,
            )
        )
    else:
        for label, ok in results:
            print("%s  %s" % ("PASS" if ok else "FAIL", label))
        print("verify %s: %s" % (args.subject, "PASS" if all_ok else "FAIL"))
    return EXIT_OK if all_ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="congsub",
        description="congruence subgroups of (P)SL2(Z) and their stabilizer "
        "lifts in Aut+(F_2)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, help="level of the upper row congruence")
        sp.add_argument("--n", type=int, help="level of the lower row congruence (n | m)")
        sp.add_argument("--group", help="group spec, e.g. cyclic:4 or perm:(1 2),(1 2 3)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                        help="coset enumeration ceiling")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
        sp.add_argument("--max-m", dest="max_m", type=int, default=8,
                        help="upper bound of the (m, n) sweep")

    for name, fn, helptext in [
        ("index", cmd_index, "index of Gamma(m,n) in SL2(Z) and PSL2(Z)"),
        ("table", cmd_table, "coset table of PG(m,n) under the S/U action"),
        ("decompose", cmd_decompose, "free product decomposition of PG(m,n)"),
        ("rank", cmd_rank, "freeness and rank of PG(m,n)"),
        ("stabilizer", cmd_stabilizer, "orbit and index data of the special stabilizer"),
        ("abelianize", cmd_abelianize, "abelianization invariants"),
        ("verify", cmd_verify, "batch verification sweeps"),
        ("satoh", cmd_satoh, "cross-check the level-(m,m) kernel abelianization"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        common(sp)
        sp.set_defaults(fn=fn)
        if name == "rank":
            sp.add_argument("--sl", action="store_true",
                            help="report the matrix-level (SL) structure")
        if name == "abelianize":
            sp.add_argument("--method", choices=("hall", "full", "image"),
                            default="full")
        if name == "verify":
            sp.add_argument("subject", choices=sorted(VERIFY_SUBJECTS))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CosetCeilingError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CEILING
    except RuntimeError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
