"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion delegates to a verification suite in goldgen.verify; the
residuals and thresholds printed here are the pinned acceptance tolerances.
"""


from goldgen import verify

_CACHE = {}


def suite(name):
    if name not in _CACHE:
        _CACHE[name] = verify.SUITES[name]()
    return _CACHE[name]


def report(criterion, checks):
    ok = all(c.passed for c in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(
        f"{c.name}: {c.residual:.3e} <= {c.threshold:.3e}" for c in checks
    )
    print(f"[{status}] {criterion} :: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def pick(checks, *needles):
    out = [c for c in checks if any(s in c.name for s in needles)]
    assert out, f"no checks matched {needles}"
    return out


class TestAcceptance:
    def test_criterion_1_polynomial_zero_identities(self):
        # Vieta map, R and its inverse, derivative transfer; tol 1e-9
        report("1 polynomial/zero identities", suite("identities"))

    def test_criterion_2_closed_form_generation_family(self):
        # nested-radical quadratic family vs the tree engine, 3 levels; 1e-9
        report("2 closed-form three-generation family", suite("radical-family"))

    def test_criterion_3_iso_goldfish_solvability(self):
        # ODE vs algebraic root path and one-period set return; 1e-6
        report(
            "3 iso-goldfish algebraic vs ODE",
            pick(suite("goldfish"), "ODE vs algebraic", "set return"),
        )

    def test_criterion_4_linear_seed_solution(self):
        # closed form vs integrator 1e-8; finite-difference order >= 1.9
        report(
            "4 linear seed closed form",
            pick(suite("goldfish"), "linear seed"),
        )

    def test_criterion_5_generation_solvability(self):
        # depth-1 simplified RHS 1e-10; algebraic path vs direct
        # integration at depths 1 and 2, both parameter branches; 1e-6
        report(
            "5 generation-model solvability",
            pick(suite("generations"), "simplified form", "solvability"),
        )

    def test_criterion_6_isochrony(self):
        # undamped: every branch mu = 1..N! periodic with a multiple p <= N! = 6;
        # damped: set-wise period-shift deviation strictly decreasing, its last
        # ratio e^(-2 pi a) within 1e-3
        report("6 isochrony and asymptotic isochrony", suite("isochrony"))

    def test_criterion_7_hermite_spectra(self):
        # equilibrium residual 1e-9; spectrum {0..N-1} 1e-6; branch
        # spectra 1e-6; FD Jacobian vs i(I+M) 1e-5
        report("7 Hermite equilibria and spectra", suite("hermite"))

    def test_criterion_8_permutation_machinery(self):
        # unranking in the tree's lexicographic order and full ordering coverage
        report(
            "8 permutation indexing exactness",
            pick(suite("generations"), "unranking", "cover all orderings"),
        )
