"""Command-line front end.

Subcommands cover every pipeline: index formulas, coset tables, free
product decomposition, free rank, stabilizer orbits, abelianization by
three methods, batch verification sweeps, and the level-(m, m) kernel
cross-check.

Exit codes: 0 success/verified, 1 verification mismatch, 2 usage error,
3 resource bound exceeded (a congruence table over --ceiling, default
10^6, cosets, or the group order cap), 4 internal error (a broken invariant).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import zip_longest
from math import prod

from . import abelianize, fingroups, rewriting
from .cosets import CosetCeilingError, DEFAULT_CEILING, congruence_table
from .matgroup import distinct_primes, index_formula, psl_index_formula

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


def _refuse_unread(args, command: str, options, reads) -> None:
    """A usage error if any of ``options`` that ``command`` does not read
    was given; options left out are None."""
    unread = [o for o in options
              if o not in reads and getattr(args, o[2:].replace("-", "_")) is not None]
    if unread:
        raise UsageError("%s does not read %s" % (command, ", ".join(unread)))


def _check_ceiling(ceiling: int | None, m: int, n: int) -> None:
    """Refuse a congruence table of more than ``ceiling`` cosets (None:
    DEFAULT_CEILING) before building it: its size is exactly the PSL index."""
    ceiling = DEFAULT_CEILING if ceiling is None else ceiling
    size = psl_index_formula(m, n)
    if size > ceiling:
        raise CosetCeilingError("table needs %d cosets, ceiling is %d" % (size, ceiling))


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
    _check_ceiling(args.ceiling, args.m, args.n)
    t = congruence_table(args.m, args.n)
    text = t.serialize()
    _emit(
        args,
        {"m": args.m, "n": args.n, "cosets": t.n, "table": text},
        [text],
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    _require(args, "m", "n")
    _check_ceiling(args.ceiling, args.m, args.n)
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
    _check_ceiling(args.ceiling, args.m, args.n)
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


# the options each abelianize method reads; giving it another is a usage error
METHOD_READS = {"hall": ("--m", "--n", "--ceiling"), "full": ("--group",), "image": ("--group",)}


def cmd_abelianize(args) -> int:
    method = args.method
    _refuse_unread(args, "--method " + method, ("--m", "--n", "--ceiling", "--group"),
                   METHOD_READS[method])
    if method == "hall":
        _require(args, "m", "n")
        _check_ceiling(args.ceiling, args.m, args.n)
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
    _check_ceiling(args.ceiling, args.m, args.m)
    ok, inv = abelianize.satoh_crosscheck(args.m)
    _emit(
        args,
        {"m": args.m, "verified": ok, "invariants": inv.to_dict()},
        [
            "level (%d,%d) kernel abelianization %s: %s"
            % (args.m, args.m, inv, "PASS" if ok else "FAIL")
        ],
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def _sweep_pairs(max_m: int | None, free_only: bool = False) -> list[tuple[int, int]]:
    """The pairs (m, n), n | m, 2 <= m <= max_m (None: 8), of a verify
    sweep; with ``free_only`` those where PG(m, n) is free.  An empty sweep
    is a usage error, and a table over DEFAULT_CEILING is refused before
    any is built."""
    max_m = 8 if max_m is None else max_m
    pairs = []
    for m in range(2, max_m + 1):
        for n in range(1, m + 1):
            if m % n == 0 and not (free_only and (m < 3 or (m, n) == (3, 1))):
                _check_ceiling(None, m, n)
                pairs.append((m, n))
    if not pairs:
        raise UsageError("--max-m %d leaves no (m, n) pair to check" % max_m)
    return pairs


def verify_index(args) -> list[tuple[str, bool]]:
    results = []
    for m, n in _sweep_pairs(args.max_m):
        t = congruence_table(m, n)
        ok = t.n == psl_index_formula(m, n)
        results.append(("index (%d,%d): formula %d, table %d" % (m, n, psl_index_formula(m, n), t.n), ok))
    return results


def verify_abelianization(args) -> list[tuple[str, bool]]:
    results = []
    for m, n in _sweep_pairs(args.max_m, free_only=True):
        got = abelianize.hall_abelianization(m, n)
        want = abelianize.predicted_invariants(m, n)
        results.append(
            ("abelianization (%d,%d): %s vs predicted %s" % (m, n, got, want), got == want)
        )
    return results


def verify_decomposition(args) -> list[tuple[str, bool]]:
    """Kurosh shape of every congruence table up to --max-m.

    The line's test, 6k = 6 + i - 3 f2 - 4 f3, is the identity that
    ``kurosh_decompose`` computes k from, so it holds whenever that call
    returns; what can fail is the call itself, whose integrality and sign
    checks on k raise RuntimeError (exit 4).
    """
    results = []
    for m, n in _sweep_pairs(args.max_m):
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


VERDICT_SPECS = (
    "cyclic:2", "cyclic:3", "cyclic:4", "abelian:2,2", "cyclic:6",
    "sym:3", "dihedral:4", "quaternion", "cyclic:12", "alt:4",
    "dihedral:6", "abelian:4,2",
)


def verify_verdicts(args) -> list[tuple[str, bool]]:
    results = []
    for spec in VERDICT_SPECS:
        g = fingroups.parse_group_spec(spec)
        v = abelianize.infinite_abelianization_verdict(g)
        results.append(
            (
                "verdict %s: image abelianization %s" % (g.tag, v.image_invariants),
                v.certified,
            )
        )
    return results


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """The invariant factors of the product of the cyclic groups Z/d, d in
    orders (each >= 2), read off their prime-power parts: the largest
    factor takes the highest power of each prime, the next one the
    second highest, and so on."""
    powers: dict[int, list[int]] = {}
    for d in orders:
        for p in distinct_primes(d):
            q = p
            while d % (q * p) == 0:
                q *= p
            powers.setdefault(p, []).append(q)
    columns = [sorted(qs, reverse=True) for qs in powers.values()]
    return tuple(map(prod, zip_longest(*columns, fillvalue=1)))[::-1]


def _unimodular_operations(rng: random.Random, n: int):
    """5 to 25 random elementary operations on an n x n matrix, n >= 2:
    (axis, i, j, c) adds c times row (axis "row") or column ("column") j
    to row or column i, with i != j and c != 0, so none is the identity."""
    for _ in range(rng.randint(5, 25)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        yield ("row" if rng.random() < 0.5 else "column"), i, j, c


def verify_smith(args) -> list[tuple[str, bool]]:
    """Scramble known diagonal presentations with random unimodular row and
    column operations; the invariant factors must survive.  The expected
    factors are read off the diagonal's prime powers, not by the Smith
    kernel's own helpers."""
    rng = random.Random(0 if args.seed is None else args.seed)
    results = []
    trials, fails = 0, 0
    for _ in range(50):
        n = rng.randint(2, 5)
        diag = sorted(rng.choice([0, 0, 1, 2, 2, 3, 4, 6, 12]) for _ in range(n))
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        chain = _invariant_factors([d for d in diag if d > 1])
        want = abelianize.AbelianInvariants(chain, sum(1 for d in diag if d == 0))
        for axis, i, j, c in _unimodular_operations(rng, n):
            if axis == "row":
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


# each verify subject and the options it reads; giving it another is a usage error
VERIFY_SUBJECTS = {
    "index": (verify_index, ("--max-m",)),
    "abelianization": (verify_abelianization, ("--max-m",)),
    "decomposition": (verify_decomposition, ("--max-m",)),
    "verdicts": (verify_verdicts, ()),
    "smith": (verify_smith, ("--seed",)),
}


def cmd_verify(args) -> int:
    check, reads = VERIFY_SUBJECTS[args.subject]
    _refuse_unread(args, "verify " + args.subject, ("--max-m", "--seed"), reads)
    results = check(args)
    all_ok = all(ok for _, ok in results)
    _emit(
        args,
        {
            "subject": args.subject,
            "verified": all_ok,
            "checks": [{"check": label, "pass": ok} for label, ok in results],
        },
        ["%s  %s" % ("PASS" if ok else "FAIL", label) for label, ok in results]
        + ["verify %s: %s" % (args.subject, "PASS" if all_ok else "FAIL")],
    )
    return EXIT_OK if all_ok else EXIT_MISMATCH


# every option any command reads, declared once: flag -> add_argument settings
OPTIONS = {
    "--m": dict(type=int, help="level of the upper row congruence"),
    "--n": dict(type=int, help="level of the lower row congruence (n | m)"),
    "--group": dict(help="group spec, e.g. cyclic:4 or perm:(1 2),(1 2 3)"),
    "--ceiling": dict(type=int, help="largest congruence table to build, in cosets "
                      "(default 10^6); checked by the PSL index formula before building"),
    "--sl": dict(action="store_true", help="report the matrix-level (SL) structure"),
    "--method": dict(choices=("hall", "full", "image"), default="full"),
    "subject": dict(choices=sorted(VERIFY_SUBJECTS)),
    "--max-m": dict(type=int, help="upper bound of the (m, n) sweep (default 8)"),
    "--seed": dict(type=int, help="seed for randomized sweeps (default 0)"),
    "--json": dict(action="store_true", help="machine-readable output"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="congsub",
        description="congruence subgroups of (P)SL2(Z) and their stabilizer "
        "lifts in Aut+(F_2)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each command with the options it reads; --json goes on every one
    bounded = ("--m", "--n", "--ceiling")
    for name, fn, reads, helptext in [
        ("index", cmd_index, ("--m", "--n"), "index of Gamma(m,n) in SL2(Z) and PSL2(Z)"),
        ("table", cmd_table, bounded, "coset table of PG(m,n) under the S/U action"),
        ("decompose", cmd_decompose, bounded, "free product decomposition of PG(m,n)"),
        ("rank", cmd_rank, bounded + ("--sl",), "freeness and rank of PG(m,n)"),
        ("stabilizer", cmd_stabilizer, ("--group",),
         "orbit and index data of the special stabilizer"),
        ("abelianize", cmd_abelianize, ("--method", "--group") + bounded,
         "abelianization invariants"),
        ("verify", cmd_verify, ("subject", "--max-m", "--seed"), "batch verification sweeps"),
        ("satoh", cmd_satoh, ("--m", "--ceiling"),
         "cross-check the level-(m,m) kernel abelianization"),
    ]:
        # no abbreviations: verify's --m would otherwise be read as --max-m
        sp = sub.add_parser(name, help=helptext, allow_abbrev=False)
        for option in reads + ("--json",):
            sp.add_argument(option, **OPTIONS[option])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (CosetCeilingError, fingroups.GroupTooLargeError) as exc:
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
