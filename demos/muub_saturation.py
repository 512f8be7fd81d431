#!/usr/bin/env python3
"""Maximal incompatibility certifies mutually unbiased unitary bases.

Two demonstrations:

* the 2-element bases {I, sigma_y} and {(I -/+ i sigma_y)/sqrt(2)} span a
  2-dimensional operator subspace; every cross pair saturates the 1-bit
  bound for some tester, forcing |Tr(W V+)| = sqrt(2) for all pairs;
* the Pauli basis and the even-sign basis {(I + i(+-sx +-sy +-sz))/2} span
  the full 4-dimensional operator space; saturation of the 2-bit bound
  with entangled-input testers forces |Tr(W V+)| = 1.
"""

import numpy as np

from utp import (
    UnitaryBasis,
    UnitaryOperator,
    identity,
    is_muub,
    muub_certify_by_saturation,
    omega,
    pauli,
)


def show(cert, b1, b2, label):
    flag, kappa = is_muub(b1, b2)
    print(f"{label}:")
    print(f"  is_muub: {flag}, kappa = {kappa:.12f}")
    print(f"  certified by saturation: {cert.certified}")
    print(f"  |Tr(W V+)| grid:\n{np.round(cert.trace_moduli, 9)}")
    sample = cert.reports[0][0]
    print(f"  sample saturating tester ({sample.tester.kind}): "
          f"achieved {sample.achieved.value:.9f} bits, "
          f"bound {sample.bound.value:.9f} bits, method {sample.method}\n")


def main() -> None:
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    show(muub_certify_by_saturation(b1, b2), b1, b2, "qubit 2-element bases")

    sx, sy, sz = (pauli(c).matrix for c in "XYZ")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    even = tuple(
        UnitaryOperator((np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2)
        for a, b, c in signs
    )
    bp = UnitaryBasis(tuple(pauli(c) for c in "IXYZ"))
    br = UnitaryBasis(even)
    show(muub_certify_by_saturation(bp, br), bp, br, "full-space 4-element bases")

    same = muub_certify_by_saturation(b1, b1)
    print(f"identical bases certify: {same.certified} "
          "(is_muub refuses them first: |Tr(W V+)|^2 is 4 or 0, not the 2 it requires)")


if __name__ == "__main__":
    main()
