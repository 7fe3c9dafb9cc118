"""End-to-end acceptance gate: golden outputs, runtime budgets, property suites."""

import json
import random
import time

from golden_data import F0, N, PLAN_G6, TUPLE_G6
from test_inertia import charpoly, mat_eye, mat_mul, random_invertible
from gspmax.arith import (
    fp_factor,
    fp_is_irreducible,
    hensel_lift_factorization,
    poly_mul,
    poly_reduce,
    primes_up_to,
)
from gspmax import construct
from gspmax.cli import main
from gspmax.construct import (
    PrimePlan,
    assemble,
    screen_triple_roots,
)
from gspmax.goldbach import GoldbachTuple, two_g_eps_tuples, verify_range
from gspmax.inertia import clusters_from_type, etale_decomposition, tame_eigenvalues
from gspmax.localtypes import (
    FIXTURE_WITNESSES_G6,
    LocalSpec,
    multiplicity_profile,
    recognize_type,
    witness_poly,
)
from gspmax.verify import EXCEPTIONAL_EXCLUDED, check_hypotheses

PLANNED_MULTIPLICITIES = {2: 14, 17: 11, 19: 7, 37: 13, 41: 11}


def _genus_six_tuple() -> GoldbachTuple:
    return GoldbachTuple(g=6, q1=7, q2=7, q4=3, q5=11, q3=13)


class TestGoldenAssembly:
    def test_eleven_witness_assembly_is_bit_exact_within_one_second(self):
        start = time.perf_counter()
        plan = PrimePlan(g=6, prime_tuple=_genus_six_tuple(), **PLAN_G6)
        specs = plan.specs
        items = [(s, FIXTURE_WITNESSES_G6[s.p]) for s in specs]
        assert len(items) == 11
        f0, modulus = assemble(items, 6)
        elapsed = time.perf_counter() - start
        assert f0 == F0
        assert f0[13] == 1122976550518058592759939074
        assert f0[0] == 1323672381818030813822668800
        assert modulus == N == 2201590757511816436065484800
        assert elapsed < 1.0


class TestGoldenReductions:
    def test_irreducible_mod_23_within_one_second(self):
        start = time.perf_counter()
        fbar = poly_reduce(F0, 23)
        assert len(fbar) == 15 and fbar[-1] == 1
        assert fp_is_irreducible(fbar, 23)
        assert time.perf_counter() - start < 1.0

    def test_linear_times_irreducible_mod_29_within_one_second(self):
        start = time.perf_counter()
        fac = fp_factor(F0, 29)
        by_degree = {len(poly) - 1: (poly, e) for poly, e in fac.factors}
        assert sorted(by_degree) == [1, 13]
        linear, e1 = by_degree[1]
        irred, e13 = by_degree[13]
        assert e1 == e13 == 1
        assert list(linear) == [1, 1]
        assert list(irred) == [27, 7] + [0] * 11 + [1]
        assert fp_is_irreducible(irred, 29)
        assert time.perf_counter() - start < 1.0

    def test_double_root_profiles_mod_3_and_5_within_one_second_each(self):
        for p in (3, 5):
            start = time.perf_counter()
            profile = multiplicity_profile(F0, p)
            assert sorted(profile) == [1, 1, 2, 2, 2, 2, 2, 2]
            assert time.perf_counter() - start < 1.0


class TestGoldenTypeRecognition:
    def test_recognition_table_within_one_second(self):
        start = time.perf_counter()
        successes = [
            (19, 1, [7, 7]),
            (41, 1, [3, 11]),
            (37, 2, [13]),
            (17, 2, [11]),
            (7, 1, [2]),
            (11, 1, [2]),
        ]
        for p, t, qs in successes:
            witness = recognize_type(F0, p, t, qs)
            assert witness is not None, (p, t, qs)
            assert witness.t == t and sorted(witness.qs) == sorted(qs)
        failures = [(19, 1, [7]), (23, 1, [2])]
        for p, t, qs in failures:
            assert recognize_type(F0, p, t, qs) is None, (p, t, qs)
        assert time.perf_counter() - start < 1.0


class TestTripleRootExclusion:
    def test_no_stray_triple_roots_below_one_million(self, screen_gcd, monkeypatch):
        start = time.perf_counter()
        monkeypatch.setattr(construct, "SCAN_BOUND", 10**6)
        screen = screen_triple_roots(F0)
        assert screen.found_primes == tuple(PLANNED_MULTIPLICITIES)
        assert screen.residual_cofactor == 1
        assert screen.complete
        for p in screen.found_primes:
            assert max(multiplicity_profile(F0, p)) == PLANNED_MULTIPLICITIES[p]
        # prime divisors of Res(f', f'') that the gcd screen rules out
        for p in (7, 5087, 16741, 887749, 1461781):
            assert screen_gcd(F0) % p != 0
            assert max(multiplicity_profile(F0, p)) <= 2, p
        plan = PrimePlan(g=6, prime_tuple=_genus_six_tuple(), **PLAN_G6)
        report = check_hypotheses(F0, plan)
        assert report.flag("ss").status == "pass"
        assert not report.verdict.conditional
        assert report.verdict.kind == "maximal-all-ell"
        assert time.perf_counter() - start < 300.0


class TestTupleSearch:
    def test_exception_list_to_two_hundred_thousand_within_thirty_seconds(self):
        start = time.perf_counter()
        assert verify_range(2 * 10**5) == [4, 6, 8, 10, 12, 16, 28]
        assert time.perf_counter() - start < 30.0

    def test_tupleless_genera_up_to_one_hundred(self):
        empty = [g for g in range(1, 101) if not two_g_eps_tuples(g)]
        assert empty == [1, 2, 3, 4, 5, 7, 13]

    def test_genus_six_tuple_is_unique(self):
        tuples = two_g_eps_tuples(6)
        assert len(tuples) == 1
        assert tuples[0].qs == TUPLE_G6


class TestExceptionalGenusTable:
    def test_six_rows_with_frozen_exclusions(self):
        assert EXCEPTIONAL_EXCLUDED == {
            2: {3, 5},
            3: {3, 5, 7},
            4: {5, 7},
            5: {5, 7, 11},
            7: {5, 11, 13},
            13: {11, 17, 23},
        }


class TestPropertySuites:
    def test_hensel_product_and_uniqueness_thousand_instances(self):
        primes = primes_up_to(97)
        rng = random.Random(7)
        for _ in range(1000):
            p = rng.choice(primes)
            m = rng.randint(2, 5)
            k = rng.randint(2, min(4, p))
            roots = rng.sample(range(p), k)
            fbar = [1]
            for r in roots:
                fbar = poly_mul(fbar, [r, 1], p)
            f = [c + p * rng.randrange(p ** (m - 1)) for c in fbar]
            f[-1] = 1
            factors = [[r, 1] for r in roots]
            lifts = hensel_lift_factorization(f, factors, p, m)
            modulus = p**m
            product = [1]
            for lift in lifts:
                assert lift[-1] == 1
                assert poly_reduce(lift, p) in factors
                product = poly_mul(product, lift, modulus)
            assert product == poly_reduce(f, modulus)
            relift = hensel_lift_factorization(poly_reduce(f, modulus), lifts, p, m)
            assert relift == lifts

    def test_factorization_product_and_irreducibility_thousand_instances(self):
        primes = primes_up_to(97)
        rng = random.Random(7)
        for _ in range(1000):
            p = rng.choice(primes)
            deg = rng.randint(1, 8)
            f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            fac = fp_factor(f, p)
            product = [fac.unit]
            for poly, e in fac.factors:
                assert poly[-1] == 1
                assert fp_is_irreducible(poly, p)
                for _ in range(e):
                    product = poly_mul(product, poly, p)
            assert product == poly_reduce(f, p)

    def test_block_cyclic_charpoly_two_hundred_instances(self):
        primes = primes_up_to(101)
        rng = random.Random(11)
        count = 0
        while count < 200:
            k = rng.randint(2, 6)
            pool = [p for p in primes if p > 3 and (p - 1) % k == 0 and p > 2 * k]
            ell = rng.choice(pool)
            m = rng.randint(1, min(3, (ell - 1) // k))
            if k * m >= ell:
                continue
            blocks = [random_invertible(m, ell, rng) for _ in range(k)]
            n = k * m
            big = [[0] * n for _ in range(n)]
            for b in range(k):
                target = (b + 1) % k
                for i in range(m):
                    for j in range(m):
                        big[target * m + i][b * m + j] = blocks[b][i][j]
            product = mat_eye(m)
            for b in range(k):
                product = mat_mul(blocks[b], product, ell)
            expanded = [0] * (n + 1)
            for i, c in enumerate(charpoly(product, ell)):
                expanded[i * k] = c
            assert poly_reduce(charpoly(big, ell), ell) == poly_reduce(expanded, ell)
            count += 1

    def test_unipotent_square_zero_order_dichotomy_two_hundred_instances(self):
        primes = [p for p in primes_up_to(101) if p % 2 == 1]
        rng = random.Random(11)
        for _ in range(200):
            ell = rng.choice(primes)
            n = rng.choice([2, 4, 6])
            u = [rng.randrange(ell) for _ in range(n)]
            v = [rng.randrange(ell) for _ in range(n)]
            dot = sum(a * b for a, b in zip(u, v)) % ell
            if dot != 0:
                idx = next(i for i in range(n) if u[i] % ell)
                v[idx] = (v[idx] - dot * pow(u[idx], -1, ell)) % ell
            nil = [[(u[i] * v[j]) % ell for j in range(n)] for i in range(n)]
            assert all(x == 0 for row in mat_mul(nil, nil, ell) for x in row)
            mat = [
                [(nil[i][j] + (1 if i == j else 0)) % ell for j in range(n)]
                for i in range(n)
            ]
            eye = mat_eye(n)
            if all(x == 0 for row in nil for x in row):
                assert mat == eye
                continue
            power = eye
            for j in range(1, ell + 1):
                power = mat_mul(power, mat, ell)
                assert (power == eye) == (j == ell)

    def test_witness_to_recognition_round_trip_hundred_specs(self):
        primes = primes_up_to(97)
        odd_blocks = [3, 5, 7, 11, 13]
        rng = random.Random(7)
        for i in range(100):
            g = rng.randint(3, 8)
            deg = 2 * g + 2
            t = rng.choice([1, 2])
            k = rng.choice([1, 2])
            while True:
                qs = tuple(sorted(rng.choice(odd_blocks) for _ in range(k)))
                if sum(qs) <= deg:
                    break
            p = rng.choice([q for q in primes if q >= 7 and q not in qs])
            spec = LocalSpec(p=p, kind="type", m=t + 1, t=t, qs=qs)
            witness = witness_poly(spec, g, seed=i)
            recognized = recognize_type(witness, p, t, list(qs))
            assert recognized is not None, (g, t, qs, p)
            assert recognized.t == t
            assert sorted(recognized.qs) == sorted(qs)

    def test_eigenvalue_dimension_identities_for_all_small_pictures(self):
        odd_blocks = [3, 5, 7, 11, 13, 17, 19]

        def multisets(limit, start=0):
            for i in range(start, len(odd_blocks)):
                q = odd_blocks[i]
                if q > limit:
                    break
                yield (q,)
                for rest in multisets(limit - q, i):
                    yield (q,) + rest

        pictures = 0
        for qs in sorted(set(multisets(20))):
            total = sum(qs)
            for t in (1, 2):
                genus_floor = max(1, -(-total // 2) - 1)
                for g in (genus_floor, genus_floor + 2):
                    deg = 2 * g + 2
                    if total > deg:
                        continue
                    picture = clusters_from_type(t, list(qs), deg)
                    decomposition = etale_decomposition(picture, t, g)
                    assert decomposition.dim_h1_ab + 2 * decomposition.dim_h1_t == 2 * g
                    eigenvalues = tame_eigenvalues(t, list(qs), g)
                    assert len(eigenvalues.entries) + eigenvalues.trivial_count == 2 * g
                    for q in qs:
                        assert eigenvalues.inertia_order_divisor % q == 0
                    pictures += 1
        assert pictures == 192


class TestEndToEnd:
    def test_genus_eight_construct_and_verify_within_ten_minutes(self, tmp_path, capsys):
        start = time.perf_counter()
        cert_path = tmp_path / "cert8.json"
        poly_path = tmp_path / "poly8.json"
        code = main([
            "construct", "--genus", "8",
            "--out", str(cert_path), "--poly-out", str(poly_path),
        ])
        assert code == 0
        code = main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: maximal-all-ell" in out
        assert "conditional" not in out
        assert elapsed < 600.0
        report = json.loads(cert_path.read_text())["report"]
        statuses = {f["name"]: f["status"] for f in report["flags"]}
        assert set(statuses.values()) == {"pass"}

    def test_round_trip_for_every_supported_genus(self, tmp_path, capsys):
        for g in (6, 9, 10):
            cert_path = tmp_path / f"cert{g}.json"
            poly_path = tmp_path / f"poly{g}.json"
            code = main([
                "construct", "--genus", str(g),
                "--out", str(cert_path), "--poly-out", str(poly_path),
            ])
            assert code == 0, g
            code = main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)])
            assert code == 0, g
            assert "verdict: maximal-all-ell" in capsys.readouterr().out
