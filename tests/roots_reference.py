"""np.roots, kept as the reference for the in-house cubic solve.

Before `compensation._real_cubic_roots`, the operating-point search took
the roots of the susceptance cubic from `np.roots` (the eigenvalues of
its companion matrix): the real ones with x > -1 as crossing estimates,
and the largest modulus among all three for the bracket margin.  This
module keeps that step so tests can compare the two solves.
"""

import numpy as np


def reference_roots(coeffs):
    """Real roots with x > -1, ascending, and the largest |root|, by np.roots."""
    roots = np.roots(coeffs)
    x = sorted(float(r.real) for r in roots if r.imag == 0 and r.real > -1.0)
    return x, float(np.abs(roots).max())
