"""Built-in reference models.

* a pair of binary Markov chains that share every one-point conditional
  while being different random fields,
* an exchangeable mixture of Bernoulli fields whose conditionals depend
  on the empirical density of the whole condition (the standard
  non-Gibbsian example), with its degenerate limiting Hamiltonian,
* a nearest-neighbor Ising demo in one or two dimensions,
* plain Bernoulli product fields.

All rational-parameter models are exact; the Ising demo runs in float
mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import (
    EMPTY_CONFIGURATION,
    Configuration,
    Volume,
    binary_alphabet,
    enumerate_configurations,
    grid_window,
    line_window,
    spin_alphabet,
)
from .fields import (
    RATIONAL,
    FiniteDistribution,
    ProductField,
    RandomFieldModel,
    ValidationError,
    marginalize,
)
from .specifications import GibbsVolumeField, ising_potential


class MarkovChainPairModel(RandomFieldModel):
    """Binary Markov chain on sites 1..N with a signed tail parameter.

    The chain with couplings c_1..c_{N-1} and tail value kappa has prefix
    distributions

        P_{1..n}(x) = [prod_{j<n} (1 + c_j x_j x_{j+1}) / 2] * (1 +- x_n k_n) / 2

    where k_t = (prod_{j=t}^{N-1} c_j) * kappa. The two signs give two
    distinct fields with identical one-point conditionals once both
    neighbors of a site are fixed.
    """

    def __init__(self, N: int, c, kappa, sign: int = +1):
        if N < 2:
            raise ValueError("need at least two sites")
        c = [Fraction(v) for v in (c if isinstance(c, (list, tuple)) else [c] * (N - 1))]
        if len(c) != N - 1:
            raise ValueError(f"need {N - 1} couplings, got {len(c)}")
        kappa = Fraction(kappa)
        if not all(0 < v < 1 for v in c) or not 0 < kappa < 1:
            raise ValueError("couplings and tail must lie strictly between 0 and 1")
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        self.N = N
        self.c = tuple(c)
        self.kappa = kappa
        self.sign = sign
        self.window = Volume.of(range(1, N + 1))
        self.alphabet = spin_alphabet()
        self.mode = RATIONAL
        # k[t] for t = 1..N, with k_N = kappa and k_t = c_t * k_{t+1}
        k = {N: kappa}
        for t in range(N - 1, 0, -1):
            k[t] = self.c[t - 1] * k[t + 1]
        self.k = k
        self._prefixes: dict = {}
        self._marginals: dict = {}

    def prefix_probability(self, x: Configuration) -> Fraction:
        """Closed-form probability of a configuration on a prefix 1..n,
        multiplied out in integers: each factor (1 + a/b)/2 is (b + a)/(2b)."""
        if x.volume.sites != tuple((j,) for j in range(1, len(x) + 1)):
            raise ValueError("closed form applies to prefixes 1..n only")
        return Fraction(*self._prefix_ints(x.symbols))

    def _prefix_ints(self, xs: tuple) -> tuple:
        """(numerator, denominator) of a prefix's probability, one denominator per length."""
        num = den = 1
        for c, left, right in zip(self.c, xs, xs[1:]):
            num *= c.denominator + c.numerator * left * right
            den *= 2 * c.denominator
        tail = self.k[len(xs)]
        num *= tail.denominator + self.sign * xs[-1] * tail.numerator
        den *= 2 * tail.denominator
        return num, den

    def _prefix_table(self, n: int) -> FiniteDistribution:
        table = self._prefixes.get(n)
        if table is None:
            vol = Volume.of(range(1, n + 1))
            configs = enumerate_configurations(vol, self.alphabet)
            nums, (d, *_) = zip(*[self._prefix_ints(c.symbols) for c in configs])
            if sum(nums) != d:
                raise ValidationError(f"prefix table {n} sums to {Fraction(sum(nums), d)}, not 1")
            table = FiniteDistribution._of_numerators(vol, EMPTY_CONFIGURATION, configs, nums, d)
            table.alphabet = self.alphabet
            self._prefixes[n] = table
        return table

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        got = self._marginals.get(V)
        if got is None:
            n = max((s[0] for s in V.sites), default=1)
            got = marginalize(self._prefix_table(n), V)
            self._marginals[V] = got
        return got

    def interior_conditional(self, t: int, y_prev: int, y_next: int) -> dict:
        """Closed-form one-point kernel once both neighbors are fixed:

            (1 + c_{t-1} y_prev x)(1 + c_t x y_next)
            ----------------------------------------
               2 (1 + c_{t-1} c_t y_prev y_next)
        """
        if not 1 < t < self.N:
            raise ValueError("closed form needs an interior site")
        cl, cr = self.c[t - 2], self.c[t - 1]
        denom = 2 * (1 + cl * cr * y_prev * y_next)
        return {x: (1 + cl * y_prev * x) * (1 + cr * x * y_next) / denom
                for x in self.alphabet.symbols}

    def describe(self) -> str:
        sgn = "+" if self.sign > 0 else "-"
        return f"example1[{sgn}, N={self.N}]"


def example1_pair(N: int, c, kappa):
    """The two chains that share every one-point conditional kernel."""
    return (MarkovChainPairModel(N, c, kappa, +1),
            MarkovChainPairModel(N, c, kappa, -1))


class BernoulliMixtureModel(RandomFieldModel):
    """Mixture of Bernoulli(p) product fields with density tau * p^(tau-1).

    For integer tau the marginals are exact rationals:

        P_V(x) = tau * (|x| + tau - 1)! * (|V| - |x|)! / (|V| + tau)!

    where |x| counts ones. Conditionals depend on the condition only
    through its size and its number of ones.
    """

    def __init__(self, tau, window: Volume):
        self.window = window
        self.alphabet = binary_alphabet()
        if isinstance(tau, (int, Fraction)) and Fraction(tau).denominator == 1:
            self.tau = int(tau)
            self.mode = RATIONAL
        else:
            self.tau = float(tau)
            self.mode = "float"
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def prob(self, c: Configuration):
        self._check_volume(c.volume)
        n, ones = len(c), c.count(1)
        if self.mode == RATIONAL:
            tau = self.tau
            return Fraction(
                tau * math.factorial(ones + tau - 1) * math.factorial(n - ones),
                math.factorial(n + tau),
            )
        return self.tau * _beta(ones + self.tau, n - ones + 1)

    def conditional_one(self, condition_size: int, condition_ones: int):
        """P(x_t = 1 | z) = (|z| + tau) / (|Lambda| + tau + 1)."""
        if self.mode == RATIONAL:
            return Fraction(condition_ones + self.tau, condition_size + self.tau + 1)
        return (condition_ones + self.tau) / (condition_size + self.tau + 1)

    def describe(self) -> str:
        return f"example2[tau={self.tau}, {len(self.window)} sites]"


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def example2_model(tau, window: Volume | int) -> BernoulliMixtureModel:
    if isinstance(window, int):
        window = line_window(window)
    return BernoulliMixtureModel(tau, window)


def example2_limiting_hamiltonian(p_density, x: int) -> float:
    """Limiting one-point Hamiltonian of the mixture at boundary density p.

    Finite for p strictly inside (0, 1); at the degenerate densities the
    value is 0 when the symbol matches the density and +inf otherwise.
    """
    p = Fraction(p_density) if not isinstance(p_density, float) else p_density
    if x not in (0, 1):
        raise ValueError("binary symbol expected")
    if not 0 <= p <= 1:
        raise ValueError("density must lie in [0, 1]")
    if p == 0:
        return 0.0 if x == 0 else math.inf
    if p == 1:
        return 0.0 if x == 1 else math.inf
    q = float(p)
    return -x * math.log(q) - (1 - x) * math.log(1.0 - q)


class IsingDemoModel(GibbsVolumeField):
    """Nearest-neighbor Ising field on a small window, free outer boundary."""

    def __init__(self, beta: float, h: float = 0.0, d: int = 1,
                 window: Volume | int = 11):
        if d not in (1, 2):
            raise ValueError("demo supports d in {1, 2}")
        if isinstance(window, int):
            if d == 1:
                window = line_window(window)
            else:
                side = max(2, round(math.sqrt(window)))
                window = grid_window(side, side)
        self.beta = beta
        self.h = h
        self.d = d
        super().__init__(ising_potential(beta, h, d), window, spin_alphabet())

    def describe(self) -> str:
        return f"ising[beta={self.beta}, h={self.h}, d={self.d}, {len(self.window)} sites]"


def ising_demo(beta: float, h: float = 0.0, d: int = 1, window=11) -> IsingDemoModel:
    return IsingDemoModel(beta, h, d, window)


def bernoulli_product(p, window: Volume | int) -> ProductField:
    """Independent binary sites with P(1) = p."""
    if isinstance(window, int):
        window = line_window(window)
    p = Fraction(p) if not isinstance(p, float) else p
    mode = RATIONAL if isinstance(p, Fraction) else "float"
    one = Fraction(1) if mode == RATIONAL else 1.0
    return ProductField(window, binary_alphabet(), {0: one - p, 1: p}, mode)
