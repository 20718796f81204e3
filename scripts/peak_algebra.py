#!/usr/bin/env python3
"""Derive the peak polynomials of the planners' three segments of policies, with sympy.

A peak of the truth, or of the truth plus the rumor, on a segment where
alpha1 moves solves two polynomial equations in (t, alpha1): the monic truth
cubic G(t) = t^3 + c2 t^2 + c1 t + c0 of model._truth_cubic, at t = theta0,
and the paper's marginal condition. On the endemic piece, write

    y = (1-x)(1-alpha1)   the rumor-biased mass that does not inspect,
    v = 1/lam,

so theta1 = y - v. On all three segments s = I + x(1-alpha0) = 1 - y, and
only the inspecting mass I differs:

    uniform line   alpha0 = alpha1   I = 1 - y/(1-x)
    alpha0 = 1     the edge          I = 1 - y
    budget line    I = A             I = A

alpha1 is affine in y, so the truth peaks where dG/dy = 0 (theta0 does not
move), and the truth plus the rumor where dG/dy = dG/dt (theta0 rises as
fast as theta1 falls). The resultant in t of G and that condition
(Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3) vanishes at
every y where the two share a root t; its factors that hold y are the peak
polynomials. Each critical point of a segment is one of their real roots,
but a root can also belong to a common root t that is not the truth (a
negative one), so the planner scores every root it finds in the piece. On
the edge G = (t + v) Q(t) for every y, so the resultant of G vanishes
identically there, and the edge's polynomial is that of Q.

The script prints, for each segment and objective, the polynomial in y, its
degree and whether it holds x, then the factored discriminant of the budget
line's quadratic. It needs sympy, which the package and its tests do not:

    python scripts/peak_algebra.py
"""

import sympy as sp

t, y, v, x, A = sp.symbols("t y v x A")


def truth_cubic(inspecting):
    """G(t) at theta1 = y - v and s = 1 - y, the inspecting mass given as an expression in y."""
    theta1, s = y - v, 1 - y
    return sp.expand(t**3 + (2 * v + theta1 - s) * t**2 + (v + theta1) * (v - s) * t - inspecting * theta1 * v)


def peak_polynomial(g, platform=False):
    """The factor of the resultant in t of g and its marginal condition that holds y, made monic in its content."""
    condition = sp.diff(g, y) - (sp.diff(g, t) if platform else 0)
    resultant = sp.numer(sp.together(sp.resultant(g, condition, t)))
    _, factors = sp.factor_list(resultant)
    return sp.Mul(*(f**m for f, m in factors if f.has(y)))


def main():
    edge = truth_cubic(1 - y)
    q, rest = sp.div(edge, t + v, t)
    assert rest == 0  # the edge's cubic has the root t = -v at every y
    uniform = truth_cubic(1 - y / (1 - x))
    polynomials = [
        ("uniform line, truth", peak_polynomial(uniform)),
        ("uniform line, truth + rumor", peak_polynomial(uniform, platform=True)),
        ("budget line, truth", peak_polynomial(truth_cubic(A))),
        ("alpha0 = 1 edge, truth", peak_polynomial(q)),
    ]
    for name, poly in polynomials:
        p = sp.Poly(poly, y)
        print(f"{name}: degree {p.degree()} in y, {'holds x' if poly.has(x) else 'free of x'}")
        for k, coeff in zip(range(p.degree(), -1, -1), p.all_coeffs()):
            print(f"  y^{k}: {sp.factor(coeff)}")
    a, b, c = sp.Poly(polynomials[2][1], y).all_coeffs()
    print(f"budget line discriminant b^2 - 4ac = {sp.factor(b * b - 4 * a * c)}")
    (edge_root,) = sp.solve(polynomials[3][1], y)
    print(f"edge root: y = {sp.factor(edge_root)}, alpha1 = {sp.factor(1 - edge_root / (1 - x))}")
    print("the budget line's and the edge's polynomials hold no x: only y = (1-x)(1-alpha1) maps them to alpha1")


if __name__ == "__main__":
    main()
