"""Classical and quantum method-of-types numerics: type-class bounds,
typical projector masses, spectrum estimation by sector sampling,
entanglement concentration, and universal compression rates.

All entropies and divergences are base 2.  Large-n quantities are evaluated
in floating point through Schur polynomials (schur_poly and schur_polys are
themselves exact on Fractions and ints), so no d^n-dimensional object is
ever needed on that path;
small-n dense cross-checks live in duality_checks.rho_blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    dim_p,
    dim_q,
    enumerate_partitions,
    multinomial,
    normalize,
    schur_polys,
)
from .operators import DenseOperator, _collective_factors, max_or_nan, require_dense
from .schur_transform import schur


def entropy(p) -> float:
    """Shannon entropy in bits; 0 log 0 = 0."""
    return float(-sum(x * math.log2(x) for x in p if x > 0))


def kl_divergence(p, q) -> float:
    """D(p || q) in bits; +inf when p is not absolutely continuous wrt q."""
    total = 0.0
    for a, b in zip(p, q):
        if a > 0:
            if b <= 0:
                return math.inf
            total += a * math.log2(a / b)
    return float(total)


def _as_prob_vector(r) -> tuple:
    r = tuple(float(x) for x in r)
    if any(x < 0 for x in r):
        raise ValueError("probabilities must be nonnegative")
    if not abs(sum(r) - 1.0) <= 1e-9:
        raise ValueError("probabilities must sum to 1")
    return r


def _sorted_spectrum(r) -> tuple:
    return tuple(sorted(_as_prob_vector(r), reverse=True))


def normalized_shape(lam, n: int, d: int) -> tuple:
    """lam / n padded to d entries: the empirical spectrum estimate."""
    lam = normalize(lam)
    return tuple((lam[i] if i < len(lam) else 0) / n for i in range(d))


def sector_distribution(r, n: int) -> dict:
    """lam -> dim_p(lam) * schur_poly(lam, r): the exact distribution of the
    partition label when measuring rho^{tensor n}, spec rho = r.  ValueError
    where the masses leave float64's range (_masses), or miss their sum
    (sum r)^n by more than 1e-9 as schur_polys fall below it."""
    r = _sorted_spectrum(r)
    dist = _masses(enumerate_partitions(len(r), n), r, n)
    if not abs(math.fsum(dist.values()) - math.fsum(r) ** n) <= 1e-9:
        raise ValueError(f"the sector masses at n = {n} leave float64's range")
    return dist


def _masses(lams, r, n: int) -> dict:
    """lam -> dim_p(lam) * float(schur_poly(lam, r)) for shapes lams of n;
    ValueError where some dim_p passes float64, found before any schur_poly
    is formed."""
    try:
        dims = [float(dim_p(lam)) for lam in lams]
    except OverflowError:
        raise ValueError(f"the sector masses at n = {n} leave float64's range") from None
    polys = schur_polys(lams, r)
    return {lam: k * float(polys[lam]) for lam, k in zip(lams, dims)}


# ---------------------------------------------------------------------------
# classical types


def _sandwiched(lower: float, value: float, upper: float) -> bool:
    """lower <= value <= upper up to a relative 1e-9: a value underflowed to 0 fails."""
    return lower <= value * (1 + 1e-9) and value <= upper * (1 + 1e-9)


@dataclass
class TypeBoundsRecord:
    t: tuple
    n: int
    count: int  # |T_t|
    mass: float  # P^n(T_t)
    entropy: float  # H(t/n)
    divergence: float  # D(t/n || P)
    count_lower: float  # (n+1)^-d 2^{nH}
    count_upper: float  # 2^{nH}
    mass_lower: float  # (n+1)^-d 2^{-nD}
    mass_upper: float  # 2^{-nD}

    @property
    def bounds_hold(self) -> bool:
        return _sandwiched(self.count_lower, self.count, self.count_upper) and _sandwiched(
            self.mass_lower, self.mass, self.mass_upper
        )


def classical_type_bounds(t, p) -> TypeBoundsRecord:
    """Size and probability of the type class T_t under i.i.d. P, with the
    standard entropy/divergence sandwiches."""
    t = tuple(int(x) for x in t)
    p = _as_prob_vector(p)
    if len(t) != len(p):
        raise ValueError("type and distribution must have equal length")
    n = sum(t)
    d = len(t)
    count = multinomial(n, t)
    mass = count * math.prod(pi**ti for pi, ti in zip(p, t))
    tbar = tuple(ti / n for ti in t)
    h = entropy(tbar)
    dv = kl_divergence(tbar, p)
    return TypeBoundsRecord(
        t=t,
        n=n,
        count=count,
        mass=float(mass),
        entropy=h,
        divergence=dv,
        count_lower=(n + 1) ** (-d) * 2.0 ** (n * h),
        count_upper=2.0 ** (n * h),
        mass_lower=(n + 1) ** (-d) * 2.0 ** (-n * dv) if dv < math.inf else 0.0,
        mass_upper=2.0 ** (-n * dv) if dv < math.inf else 0.0,
    )


# ---------------------------------------------------------------------------
# quantum typicality


@dataclass
class TypicalMassRecord:
    n: int
    delta: float
    mass: float
    lower_bound: float  # 1 - (n+d)^{d(d+1)/2} 2^{-n delta^2 / 2}
    trivially_satisfied: bool  # lower bound <= 0

    @property
    def bound_holds(self) -> bool:
        return self.trivially_satisfied or self.mass >= self.lower_bound - 1e-12


def typical_mass(r, n: int, delta: float) -> TypicalMassRecord:
    """Mass of rho^{tensor n} on sectors whose normalized shape is within
    total-variation-style L1 distance delta of spec rho."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    r = _sorted_spectrum(r)
    d = len(r)
    mass = 0.0
    for lam, w in sector_distribution(r, n).items():
        lbar = normalized_shape(lam, n, d)
        if sum(abs(a - b) for a, b in zip(lbar, r)) <= delta:
            mass += w
    lower = 1.0 - (n + d) ** (d * (d + 1) / 2) * 2.0 ** (-n * delta**2 / 2)
    return TypicalMassRecord(
        n=n,
        delta=delta,
        mass=float(mass),
        lower_bound=lower,
        trivially_satisfied=lower <= 0,
    )


@dataclass
class TraceBoundRecord:
    lam: tuple
    value: float  # tr Pi_lam rho^{tensor n}
    divergence: float  # D(lam/n || r)
    lower: float  # (n+d)^{-d(d+1)/2} 2^{-nD}
    upper: float  # (n+d)^{d(d+1)/2} 2^{-nD}

    @property
    def bounds_hold(self) -> bool:
        return _sandwiched(self.lower, self.value, self.upper)


def trace_bound_check(lam, r, n: int, d: int = None) -> TraceBoundRecord:
    """Sector mass dim_p * schur_poly against its divergence sandwich."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = _sorted_spectrum(r)
    if d is None:
        d = len(r)
    if len(r) > d:
        raise ValueError(f"r has more than d = {d} entries")
    lam = normalize(lam)
    if sum(lam) != n:
        raise ValueError("lam must partition n")
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} rows")
    value = _masses([lam], r + (0.0,) * (d - len(r)), n)[lam]
    return _trace_bound_record(lam, value, r, n, d)


def trace_bound_checks(r, n: int) -> list:
    """trace_bound_check(lam, r, n) for every lam of n with at most len(r)
    rows, in enumerate_partitions order, with the masses of one
    sector_distribution (one schur_polys call over every lam)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = _sorted_spectrum(r)
    return [
        _trace_bound_record(lam, value, r, n, len(r))
        for lam, value in sector_distribution(r, n).items()
    ]


def _trace_bound_record(lam, value: float, r: tuple, n: int, d: int) -> TraceBoundRecord:
    """The sandwich of a sector mass value of lam, for r sorted and d >= len(r)."""
    dv = kl_divergence(normalized_shape(lam, n, d), r + (0.0,) * (d - len(r)))
    poly = (n + d) ** (d * (d + 1) / 2)
    if dv == math.inf:
        lower, upper = 0.0, 0.0 if value == 0.0 else 1.0
    else:
        lower = 2.0 ** (-n * dv) / poly
        upper = poly * 2.0 ** (-n * dv)
    return TraceBoundRecord(lam=lam, value=value, divergence=dv, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# spectrum estimation


@dataclass
class SpectrumEstimateReport:
    r: tuple
    n: int
    trials: int
    seed: int
    distribution: dict  # lam -> exact probability
    counts: dict  # lam -> sampled count
    deltas: tuple
    failure_rates: dict  # delta -> empirical Pr[L1 error > delta]


def spectrum_estimate(
    r, n: int, trials: int, seed: int = 0, deltas=(0.1, 0.2, 0.3, 0.5)
) -> SpectrumEstimateReport:
    """Monte Carlo spectrum estimation: sample the partition label from its
    exact distribution and report L1-error failure rates on a delta grid."""
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    r = _sorted_spectrum(r)
    dist = sector_distribution(r, n)
    lams = list(dist)
    probs = np.array([dist[lam] for lam in lams])
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(lams), size=trials, p=probs)
    counts = dict(zip(lams, np.bincount(draws, minlength=len(lams)).tolist()))
    errors = {
        lam: sum(abs(a - b) for a, b in zip(normalized_shape(lam, n, len(r)), r))
        for lam in lams
    }
    failure = {
        delta: sum(counts[lam] for lam in lams if errors[lam] > delta) / trials
        for delta in deltas
    }
    return SpectrumEstimateReport(
        r=r,
        n=n,
        trials=trials,
        seed=seed,
        distribution=dist,
        counts=counts,
        deltas=tuple(deltas),
        failure_rates=failure,
    )


# ---------------------------------------------------------------------------
# entanglement concentration


@dataclass
class ConcentrationReport:
    n: int
    outcome_weights: dict  # lam -> joint probability of both labels = lam
    off_diagonal_mass: float  # probability mass on unequal label pairs
    schmidt_values: dict  # lam -> singular values of the paired P register
    pair_states: dict = field(default_factory=dict)  # lam -> P x P pure state

    @property
    def distortion_free_residual(self) -> float:
        return max_or_nan(
            np.abs(sv - 1 / math.sqrt(dim_p(lam))).max(initial=0.0)
            for lam, sv in self.schmidt_values.items()
        )


def concentrate(psi, n: int) -> ConcentrationReport:
    """Entanglement concentration on psi^{tensor n} for a bipartite pure
    state psi on C^d x C^d: both parties apply the Schur transform, measure
    their partition label, and keep the paired permutation registers.

    Outcomes always agree; the conditional paired state is maximally
    entangled across dim_p(lam) levels regardless of psi (distortion-free).
    A sector whose block is not finite gets the Schmidt values [NaN], so the
    report fails every tolerance.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = int(round(math.sqrt(psi.shape[0])))
    if d * d != psi.shape[0]:
        raise ValueError("psi must live on C^d x C^d")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:
        raise ValueError("psi must be normalized")
    t = schur(d, n)
    # each sector's pair state is a dense dim_p^2 x dim_p^2 array
    largest = max(np_ for _, _, np_ in t.codec.sectors.values()) ** 2
    require_dense(largest, what="rows of the largest pair state at n = {}", of=(n,))
    # psi^{tensor n}, rows a1..an and columns b1..bn, is M^{tensor n} for M = psi.reshape(d, d)
    both = t.conjugate(_collective_factors(psi.reshape(d, d), n))  # rows: Alice, cols: Bob
    report = ConcentrationReport(
        n=n, outcome_weights={}, off_diagonal_mass=0.0, schmidt_values={}
    )
    total = 0.0
    for lam, (sl, nq, np_) in t.codec.sectors.items():
        block = both[sl, sl]
        w = float((np.abs(block) ** 2).sum())
        report.outcome_weights[lam] = w
        total += w
        if not np.isfinite(w):
            # the entries of the conjugate are at most 1 in modulus, so w
            # overflows only if some entry is not finite
            report.schmidt_values[lam] = np.array([math.nan])
            continue
        if w < 1e-300:
            report.schmidt_values[lam] = np.array([])
            continue
        # conditional pure state on (qA pA qB pB); trace out both q registers
        cond = block.reshape(nq, np_, nq, np_) / math.sqrt(w)
        pair = np.einsum("apbq->pabq", cond).reshape(np_, nq * nq * np_)
        sv = np.linalg.svd(pair, compute_uv=False)
        report.schmidt_values[lam] = sv
        # rows (pA, pB), columns (qA, qB): the pair state is x x^dagger
        x = cond.transpose(1, 3, 0, 2).reshape(np_ * np_, nq * nq)
        report.pair_states[lam] = DenseOperator(x @ x.conj().T)
    report.off_diagonal_mass = max_or_nan([1.0 - total])
    return report


# ---------------------------------------------------------------------------
# universal compression


@dataclass
class CompressRateRecord:
    r: tuple
    n: int
    rate: float
    effective_rate: float  # R - d(d+1)/2 * log2(n+d) / n
    kept: tuple  # partitions kept by the projector
    kept_mass: float
    error_mass: float
    kept_dimension: int  # sum of dim_q * dim_p over kept sectors
    dimension_ok: bool  # kept_dimension <= 2^{nR}
    error_exponent_bound: float  # poly * 2^{-n min D} over discarded shapes


def compress_rate(r, n: int, rate: float) -> CompressRateRecord:
    """Universal compression at rate R qubits per symbol: keep the sectors
    whose normalized shape has entropy at most the polynomially reduced rate
    and report the discarded mass and its divergence-exponent bound."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    r = _sorted_spectrum(r)
    d = len(r)
    eff = rate - d * (d + 1) / 2 * math.log2(n + d) / n
    dist = sector_distribution(r, n)
    kept, kept_mass, kept_dim = [], 0.0, 0
    min_div = math.inf
    for lam, w in dist.items():
        lbar = normalized_shape(lam, n, d)
        if entropy(lbar) <= eff:
            kept.append(lam)
            kept_mass += w
            kept_dim += dim_q(lam, d) * dim_p(lam)
        else:
            min_div = min(min_div, kl_divergence(lbar, r))
    poly = (n + d) ** (d * (d + 1) / 2)
    bound = poly * 2.0 ** (-n * min_div) if min_div < math.inf else 0.0
    return CompressRateRecord(
        r=r,
        n=n,
        rate=rate,
        effective_rate=eff,
        kept=tuple(kept),
        kept_mass=float(kept_mass),
        error_mass=max_or_nan([1.0 - kept_mass]),
        kept_dimension=kept_dim,
        dimension_ok=kept_dim <= 2.0 ** (n * rate) * (1 + 1e-12),
        error_exponent_bound=bound,
    )
