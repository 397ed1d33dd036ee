"""Rebuild the J_0 and J_1 coefficient literals of `kickedrotor.specfun`.

    PYTHONPATH=src python tests/bessel_coefficients.py

prints the six tuples, which `test_specfun` also rebuilds and compares with
the committed ones.  Every value comes from 30-digit mpmath:

- `_J0_BELOW`, `_J1_BELOW`: J_0(x) = sum_k c_k T_k(t) and
  J_1(x)/x = sum_k c_k V_k(t) in t = 2 (x/12)^2 - 1 on |x| <= 12, V_k the
  Chebyshev polynomials of the third kind (DLMF 18.3): the even and the
  odd Chebyshev coefficients of J_0 and J_1 in y = x/12, as
  T_2k(y) = T_k(t) and T_2k+1(y) = y V_k(t), those of J_1 over 12;
- `_J0_P`, `_J0_XQ`, `_J1_P`, `_J1_XQ`: P and xQ of the Hankel form
  J_n(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (2n + 1) pi/4
  (DLMF 10.17.3; P = sqrt(pi x/2) (J_n cos chi + Y_n sin chi) and
  Q = sqrt(pi x/2) (Y_n cos chi - J_n sin chi)), interpolated in
  t = 2z - 1 on z = (12/x)^2 in (0, 1], x >= 12, and rewritten in powers
  of z.  Each power series is well conditioned: no term is larger than the
  first.

Each function is interpolated at Chebyshev points of the first kind, 64
in y and 32 in t (cos(pi (j + 1/2)/N), where x is finite), and its series
is cut after the last coefficient above 1e-16 in magnitude.
"""

import mpmath

SPLIT = 12  # specfun's _J_SPLIT
CUT = 1e-16


def _chebyshev(f, nodes):
    # c_0 .. c_{nodes-1} of the interpolant of f at the first-kind points:
    # c_k = (2/N) sum_j f(t_j) T_k(t_j), c_0 halved
    t = [mpmath.cos(mpmath.pi * (j + mpmath.mpf(1) / 2) / nodes) for j in range(nodes)]
    fj = [f(tj) for tj in t]
    T0, T1 = [mpmath.mpf(1)] * nodes, t
    c = [mpmath.fsum(fj) / nodes]
    for _ in range(1, nodes):
        c.append(2 * mpmath.fdot(fj, T1) / nodes)
        T0, T1 = T1, [2 * tj * a - b for tj, a, b in zip(t, T1, T0)]
    return c


def _cut(c):
    last = max(k for k, v in enumerate(c) if abs(v) > CUT)
    return c[:last + 1]


def _powers_of_z(c):
    # sum_k c_k T_k(2z - 1) rewritten as sum_i m_i z^i: the integer coefficients
    # of T_k(2z - 1) in z by T_{k+1} = 2(2z - 1) T_k - T_{k-1}
    T = [[1], [-1, 2]]
    while len(T) < len(c):
        a, b = T[-1] + [0], T[-2] + [0, 0]
        T.append([4 * s - 2 * v - w for s, v, w in zip([0] + a, a, b)])
    return [mpmath.fsum(ck * Tk[i] for ck, Tk in zip(c, T) if i < len(Tk)) for i in range(len(c))]


def _below(n):
    # c_k of J_0 (n = 0) or of J_1(x)/x (n = 1): the coefficients of degree
    # 2k + n of J_n(12 y) in y, cut, and for J_1 divided by 12
    c = _cut(_chebyshev(lambda y: mpmath.besselj(n, SPLIT * y), 64)[n::2])
    return [v / SPLIT for v in c] if n else c


def _hankel(n, xq):
    # t -> P(x) (xq False) or x Q(x) (xq True) of J_n at x = 12/sqrt(z), z = (1 + t)/2
    def f(t):
        x = SPLIT / mpmath.sqrt((1 + t) / 2)
        chi = x - (2 * n + 1) * mpmath.pi / 4
        j, y = mpmath.besselj(n, x), mpmath.bessely(n, x)
        scale = mpmath.sqrt(mpmath.pi * x / 2)
        if xq:
            return x * scale * (y * mpmath.cos(chi) - j * mpmath.sin(chi))
        return scale * (j * mpmath.cos(chi) + y * mpmath.sin(chi))
    return f


def coefficients():
    """{name: tuple of floats} of the six specfun literals."""
    with mpmath.workdps(30):
        series = {"_J0_BELOW": _below(0), "_J1_BELOW": _below(1)}
        for n in (0, 1):
            series[f"_J{n}_P"] = _powers_of_z(_cut(_chebyshev(_hankel(n, False), 32)))
            series[f"_J{n}_XQ"] = _powers_of_z(_cut(_chebyshev(_hankel(n, True), 32)))
        return {name: tuple(float(v) for v in c) for name, c in series.items()}


def literal(name, values, per_line=4):
    """The source text `name = (...)` of one tuple, per_line values a line."""
    rows = [", ".join(repr(v) for v in values[i:i + per_line]) for i in range(0, len(values), per_line)]
    return f"{name} = (" + ",\n    ".join(rows) + ")"


if __name__ == "__main__":
    for name, values in coefficients().items():
        print(literal(name, values))
