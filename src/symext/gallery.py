"""Named example states and families used by the CLI and the test suite.

Each entry builds its state from scratch and recomputes every advertised
property; nothing is hard-coded beyond the construction itself.  An entry
carries no verdict: ``symext gallery`` decides ``entry.state`` with
:func:`oracle.decide`, as ``symext check`` does, so example3's verdict
depends on its ``s`` alone and not on the filter ``p`` of its findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, states, twoqubit
from .errors import OutOfRange
from .oracle import find_symmetric_extension, fermionic_qutrit_example
from .states import BipartiteState


def two_qubit_with_ancilla() -> BipartiteState:
    """4x2 counterexample: one of Alice's qubits maximally mixed, the other
    maximally entangled with Bob.  Satisfies the spectrum condition but has
    no symmetric extension."""
    bell = np.outer(twoqubit.BELL[0], twoqubit.BELL[0].conj())
    return BipartiteState(np.kron(np.eye(2) / 2.0, bell), 4, 2)


def qutrit_qubit() -> BipartiteState:
    """3x2 counterexample built from |001> + |110> + sqrt(2)|211> (A, B, B')."""
    psi = np.zeros(12, dtype=np.complex128)

    def slot(a, b, bp):
        return (a * 2 + b) * 2 + bp

    psi[slot(0, 0, 1)] = 1.0 / np.sqrt(6.0)
    psi[slot(1, 1, 0)] = 1.0 / np.sqrt(6.0)
    psi[slot(2, 1, 1)] = np.sqrt(2.0 / 3.0)
    reduced = linalg.partial_trace(np.outer(psi, psi.conj()), [3, 2, 2], keep=[0, 1])
    return BipartiteState(reduced, 3, 2)


def qubit_qutrit(s: float) -> BipartiteState:
    """2x3 counterexample family with eigenvectors |12>, |02>,
    sqrt(s)|00> + sqrt(1-s)|11> and eigenvalues s/2, (1-s)/2, 1/2."""
    if not 0.0 <= s <= 1.0:
        raise OutOfRange(f"s={s} outside [0, 1]")

    def ket(a, b):
        v = np.zeros(6, dtype=np.complex128)
        v[a * 3 + b] = 1.0
        return v

    vecs = [ket(1, 2), ket(0, 2), np.sqrt(s) * ket(0, 0) + np.sqrt(1.0 - s) * ket(1, 1)]
    weights = [s / 2.0, (1.0 - s) / 2.0, 0.5]
    mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    return BipartiteState(mat, 2, 3)


def werner(p: float) -> BipartiteState:
    """p |Phi+><Phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p={p} outside [0, 1]")
    bell = np.outer(twoqubit.BELL[0], twoqubit.BELL[0].conj())
    return BipartiteState(p * bell + (1.0 - p) * np.eye(4) / 4.0, 2, 2)


def werner_bell_params(p: float) -> twoqubit.BellDiagonalParams:
    return twoqubit.BellDiagonalParams(
        p_i=p + (1.0 - p) / 4.0, p_x=(1.0 - p) / 4.0,
        p_y=(1.0 - p) / 4.0, p_z=(1.0 - p) / 4.0)


def werner_threshold(tol: float = 1e-12) -> float:
    """Largest p with an extendible Werner state, by bisection on the exact
    Bell-diagonal condition (analytically 2/3)."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if twoqubit.bell_extendible(werner_bell_params(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class GalleryEntry:
    """Construction notes plus live-recomputed findings for one example.

    ``state`` is the state the CLI decides with :func:`oracle.decide` (the
    Werner member at p = 0.5 for ``werner``); no verdict is stored here.
    """

    name: str
    description: str
    state: BipartiteState
    findings: list[tuple[str, str]] = field(default_factory=list)


def entry_two_qubit_with_ancilla() -> GalleryEntry:
    rho = two_qubit_with_ancilla()
    findings = [("spectrum condition", str(states.spectrum_condition(rho)))]
    # tracing Alice's first qubit is 1-LOCC, so extendibility would survive it
    traced = linalg.partial_trace(rho.matrix, [2, 2, 2], keep=[1, 2])
    traced_state = BipartiteState(traced, 2, 2)
    lmax_ab = states.spectrum(traced_state.matrix).lambda_max
    lmax_b = states.spectrum(traced_state.rho_b).lambda_max
    findings.append(("after tracing first A qubit: lambda_max global/local",
                     f"{lmax_ab:.6f} / {lmax_b:.6f}"))
    findings.append(("max-eigenvalue bound for rank<=2 states violated",
                     str(twoqubit.lambda_max_margin(traced, traced_state.rho_b)[1])))
    findings.append(("random-filter probe (pure extendibility)", str(states.filter_probe(rho, seed=3))))
    return GalleryEntry(
        name="example1",
        description="4x2: maximally mixed ancilla next to a maximally entangled pair",
        state=rho, findings=findings)


def entry_qutrit_qubit() -> GalleryEntry:
    rho = qutrit_qubit()
    findings = [("spectrum condition", str(states.spectrum_condition(rho)))]
    filt = states.apply_filter_A(rho, np.diag([1.0, 0.0, 1.0]))
    findings.append(("projective filter diag(1,0,1) success probability", f"{filt.probability:.12f}"))
    out = filt.normalized()
    findings.append(("filtered state purity", f"{out.purity():.12f}"))
    findings.append(("filtered state entangled (coherent information > 0)",
                     str(states.coherent_information(out) > 1e-9)))
    return GalleryEntry(
        name="example2",
        description="3x2: spectra match, yet a local filter reveals a pure entangled state",
        state=rho, findings=findings)


def entry_qubit_qutrit(s: float = 0.75, p: float = 0.5) -> GalleryEntry:
    if not 0.0 <= p < np.inf:  # the filter diag(sqrt(p), 1) needs a finite p >= 0
        raise OutOfRange(f"p={p} must be finite and >= 0")
    rho = qubit_qutrit(s)
    findings = [("spectrum condition", str(states.spectrum_condition(rho)))]
    filt = states.apply_filter_A(rho, np.diag([np.sqrt(p), 1.0])).normalized()
    coh = states.coherent_information(filt)
    findings.append((f"coherent information after filter diag(sqrt({p}),1)", f"{coh:.6f}"))
    findings.append(("filter preserves extensions, so positive value excludes one", str(coh > 1e-9)))
    glob = ", ".join(f"{v:.12f}" for v in states.spectrum(filt.matrix).values)
    loc = ", ".join(f"{v:.12f}" for v in states.spectrum(filt.rho_b).values)
    findings.append(("filtered global spectrum", glob))
    findings.append(("filtered local spectrum", loc))
    return GalleryEntry(
        name="example3",
        description=f"2x3 family at s={s}: filtering breaks the spectrum condition",
        state=rho, findings=findings)


def entry_fermionic_qutrit() -> GalleryEntry:
    rho, bosonic, anysym = fermionic_qutrit_example()
    findings = [
        ("fermionic witness verifies", str(anysym.witness is not None
                                           and anysym.witness.symmetry_residual < 1e-12)),
        ("feasible under unrestricted symmetry", anysym.status.value),
        ("feasible under bosonic symmetry", bosonic.status.value),
        ("bosonic residual", f"{bosonic.residual:.6e}"),
    ]
    return GalleryEntry(
        name="qutrit-fermionic",
        description="two qutrits with a fermionic but no bosonic extension",
        state=rho, findings=findings)


def entry_werner(steps: int = 21) -> GalleryEntry:
    threshold = werner_threshold()
    findings = [("closed-form threshold", f"{threshold:.9f}")]
    for p in np.linspace(0.0, 1.0, steps):
        bell_verdict = twoqubit.bell_extendible(werner_bell_params(float(p)))
        conj_verdict = twoqubit.check_conjecture(werner(float(p)))
        findings.append((f"p={p:.3f}", f"closed-form={bell_verdict} conjecture={conj_verdict}"))
    mid = werner(0.5)
    findings.append(("oracle at p=0.5", find_symmetric_extension(mid).status.value))
    return GalleryEntry(
        name="werner",
        description="Werner family: extendible up to p = 2/3",
        state=mid, findings=findings)


ENTRIES = {
    "example1": entry_two_qubit_with_ancilla,
    "example2": entry_qutrit_qubit,
    "example3": entry_qubit_qutrit,
    "qutrit-fermionic": entry_fermionic_qutrit,
    "werner": entry_werner,
}
