"""Independent oracles for the benchmark's output checks.

Each oracle recomputes a program output from its definition with plain
numpy and scipy, following the README conventions: eigenvalues at or below
1e-10 are outside the support, containment means outside mass at most 1e-9,
and divergences are in nats.  None of them calls the code path it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.optimize

RANK_TOL = 1e-10      # support cutoff on eigenvalues
SUPPORT_TOL = 1e-9    # largest outside mass that still counts as contained
NEG_CLIP = 1e-9       # divergences in (-NEG_CLIP, 0) read as 0
SIGN_TOL = 1e-12      # decoder projectors keep eigenvalues above this


def matrices(doc: dict) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Bob and Willie matrices of a channel-pair JSON document."""
    def side(entries):
        return [np.asarray(m["re"], dtype=float) + 1j * np.asarray(m["im"], dtype=float)
                for m in entries]
    return side(doc["bob"]), side(doc["willie"])


def _clip(value: float) -> float:
    return 0.0 if -NEG_CLIP < value < 0.0 else value


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr{rho (log rho - log sigma)} with pseudo-logs; inf without containment."""
    ws, vs = np.linalg.eigh(sigma)
    on = ws > RANK_TOL
    weights = np.einsum("ij,ij->j", vs[:, on].conj(), rho @ vs[:, on]).real
    if 1.0 - weights.sum() > SUPPORT_TOL:
        return math.inf
    wr = np.linalg.eigvalsh(rho)
    wr = wr[wr > RANK_TOL]
    return _clip(float(np.sum(wr * np.log(wr)) - np.sum(weights * np.log(ws[on]))))


def helstrom_error(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Equal-prior discrimination error (1 - ||rho - sigma||_1 / 2) / 2."""
    err = 0.5 * (1.0 - 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)))))
    return min(max(err, 0.0), 1.0)


def classical_relative_entropy(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) of probability vectors under the same cutoffs."""
    on = p > RANK_TOL
    if q[~on].sum() > SUPPORT_TOL:
        return math.inf
    live = q > RANK_TOL
    return _clip(float(np.sum(q[live] * np.log(q[live])) - np.sum(q[on] * np.log(p[on]))))


def total_variation_error(q: np.ndarray, p: np.ndarray) -> float:
    """Equal-prior discrimination error between two probability vectors."""
    err = 0.5 * (1.0 - 0.5 * float(np.sum(np.abs(q - p))))
    return min(max(err, 0.0), 1.0)


def kron_rows(single: list[np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """Product of per-use factors (vectors or matrices) for each codeword row."""
    out = []
    for row in rows:
        acc = single[row[0]]
        for x in row[1:]:
            acc = np.kron(acc, single[x])
        out.append(acc)
    return out


def code_sizes(d_bob: float, d_willie: float, n: int, gamma: float,
               varsigma: float) -> tuple[float, float]:
    """Raw nat-valued log M and log K of the achievability formulas."""
    root = gamma * math.sqrt(n)
    return ((1.0 - varsigma) * root * d_bob,
            root * max(0.0, (1.0 + varsigma) * d_willie - (1.0 - varsigma) * d_bob))


def diagonal_srm_error(codeword_probs: np.ndarray, innocent: np.ndarray, a: float) -> float:
    """Average error of the square-root measurement when every state is diagonal.

    Message m keeps the index set where its codeword distribution exceeds
    ``e^a`` times the innocent one; normalising by the sum of the projectors
    divides each kept index by the number of messages that keep it.
    """
    keep = codeword_probs - math.exp(a) * innocent > SIGN_TOL
    count = keep.sum(axis=0)
    hit = np.where(keep, codeword_probs / np.maximum(count, 1), 0.0).sum()
    return min(max(1.0 - hit / len(codeword_probs), 0.0), 1.0)


def is_mixture(innocent: np.ndarray, others: list[np.ndarray]) -> bool:
    """Is ``innocent`` a convex combination of ``others``?  (LP feasibility)"""
    def vec(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])
    a_eq = np.vstack([np.column_stack([vec(m) for m in others]), np.ones(len(others))])
    b_eq = np.concatenate([vec(innocent), [1.0]])
    res = scipy.optimize.linprog(np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq,
                                 bounds=(0, None), method="highs")
    return res.status == 0


def full_rank(m: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(m).min() > RANK_TOL)


class SquareRootLawTerms:
    """Single-letter terms of a channel whose innocent states are full rank.

    ``d_bob[x]`` and ``d_willie[x]`` are D(state_x || state_0) over the
    non-innocent symbols, and ``q`` is the chi-squared Gram matrix
    ``Q_xy = Re Tr{Delta_x Delta_y willie_0^-1}`` with
    ``Delta_x = willie_x - willie_0``, so that chi2 of the p-mixture is p^T Q p.
    """

    def __init__(self, bob: list[np.ndarray], willie: list[np.ndarray]):
        self.d_bob = np.array([relative_entropy(b, bob[0]) for b in bob[1:]])
        self.d_willie = np.array([relative_entropy(w, willie[0]) for w in willie[1:]])
        inverse = np.linalg.inv(willie[0])
        deltas = [w - willie[0] for w in willie[1:]]
        self.q = np.array([[np.trace(dx @ dy @ inverse).real for dy in deltas]
                           for dx in deltas])

    def coefficients(self, p: np.ndarray) -> tuple[float, float]:
        """(message, key) coefficients at input distribution ``p``."""
        denom = math.sqrt(float(p @ self.q @ p) / 2.0)
        d_bob = float(self.d_bob @ p)
        return d_bob / denom, max(0.0, float(self.d_willie @ p) - d_bob) / denom

    def max_message(self) -> float:
        """Global maximum of the message coefficient over the simplex.

        The coefficient is sqrt(2) d^T p / sqrt(p^T Q p); maximising it is the
        convex QP min p^T Q p s.t. d^T p = 1, p >= 0.  Its optimum solves the
        equality-constrained problem on its own support S, where the optimum
        value is 1 / (d_S^T Q_SS^-1 d_S); so enumerating every support whose
        solution is non-negative finds it exactly.
        """
        best = 0.0
        k = len(self.d_bob)
        for size in range(1, k + 1):
            for support in itertools.combinations(range(k), size):
                s = list(support)
                z = np.linalg.solve(self.q[np.ix_(s, s)], self.d_bob[s])
                value = float(self.d_bob[s] @ z)
                if value > 0 and np.all(z / value >= -1e-12):
                    best = max(best, math.sqrt(2.0 * value))
        return best

    def min_key(self) -> float:
        """Global minimum of the key coefficient over the simplex.

        With w = d_willie - d_bob, the answer is 0 if some w_x <= 0; otherwise
        minimising w^T p / sqrt(p^T Q p / 2) means maximising a convex function
        over the polytope {w^T p = 1, p >= 0}, so a vertex attains it.
        """
        w = self.d_willie - self.d_bob
        return float(np.min(np.maximum(w, 0.0) / np.sqrt(np.diag(self.q) / 2.0)))
