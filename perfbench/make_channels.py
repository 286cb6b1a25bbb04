"""Write the benchmark's fixed channel-pair JSON files.

The files are committed; this script documents how they were made and
rebuilds them byte for byte:

    python3 perfbench/make_channels.py

Channels never depend on the benchmark's ``--seed``.
"""

import json
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "channels"


def ginibre(dim, rng):
    """G G^dagger / Tr from a complex Ginibre block (draw order: real, imag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


def srl_pair(rng, dim, symbols):
    """Willie states from ``rng``; each Bob state is Willie mixed half-and-half
    with the maximally mixed state, so every key coefficient is positive."""
    willie = [ginibre(dim, rng) for _ in range(symbols + 1)]
    bob = [0.5 * w + 0.5 * np.eye(dim) / dim for w in willie]
    return bob, willie


def to_json(bob, willie):
    def matrix(m):
        m = np.asarray(m, dtype=complex)
        return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
    return {"bob": [matrix(m) for m in bob], "willie": [matrix(m) for m in willie]}


def channels():
    # Diagonal qubit fixture, Bob = Willie: innocent diag(0.9, 0.1), signal diag(0.6, 0.4).
    diag = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
    yield "diag_qubit", diag, diag

    # Non-commuting Ginibre qubit pair, drawn in the order bob0, bob1, willie0, willie1.
    rng = np.random.default_rng(7)
    states = [ginibre(2, rng) for _ in range(4)]
    yield "ginibre_qubit", states[:2], states[2:]

    # Square-root-law channel with 3 non-innocent qubit symbols.
    yield "srl_d2_k3", *srl_pair(np.random.default_rng(103), 2, 3)

    # Square-root-law channel with 6 non-innocent qutrit symbols: the first 7
    # draws are discarded.  The min-key heuristic stalls at a vertex here.
    rng = np.random.default_rng(106)
    for _ in range(7):
        ginibre(3, rng)
    yield "srl_d3_k6", *srl_pair(rng, 3, 6)


def main():
    OUT.mkdir(exist_ok=True)
    for name, bob, willie in channels():
        (OUT / f"{name}.json").write_text(json.dumps(to_json(bob, willie)) + "\n")


if __name__ == "__main__":
    main()
