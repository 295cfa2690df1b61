"""Test-side references shared by several test modules: H_1 of a
presentation solved by the dense Smith normal form alone, and the multiset
check of a refinement certificate."""

from math import gcd

from tautfol.snf import smith_normal_form


class DenseH1:
    """A presentation (``tautfol.snf.Presentation``) solved by
    smith_normal_form alone, unreduced: the reference for every H_1
    question the tree walk answers without it."""

    def __init__(self, pres):
        g = len(pres.generators)
        rels = pres.relations
        matrix = [[r[i] for r in rels] for i in range(g)] if rels else [[0]] * g
        d, self.u, _v = smith_normal_form(matrix)
        self.index = pres.index
        self.orders = [abs(x) for x in d] + [0] * (g - len(d))
        self.betti = sum(1 for o in self.orders if o == 0)

    def coordinates(self, coeffs):
        vec = [0] * len(self.orders)
        for gen, c in coeffs.items():
            vec[self.index[gen]] += c
        return [sum(a * b for a, b in zip(row, vec)) for row in self.u]

    def free_image(self, coeffs):
        w = self.coordinates(coeffs)
        return tuple(x for x, o in zip(w, self.orders) if o == 0)

    def element_order(self, coeffs):
        """Order of the class, or 0 if infinite."""
        order = 1
        for x, o in zip(self.coordinates(coeffs), self.orders):
            if o == 0 and x != 0:
                return 0
            if o:
                k = o // gcd(o, x % o)
                order = order * k // gcd(order, k)
        return order


def assert_multiset_distributed(cert):
    """The certificate's values over N are the multiset (A, N - A, 1, ...,
    1) distributed over its cone points, non-excluded constraint tori and
    target torus."""
    values = sorted(list(cert.cone_numerators)
                    + [v for _, v in cert.boundary_numerators]
                    + [cert.target_numerator])
    expected = sorted([cert.a_value, cert.n_value - cert.a_value] + [1] * (len(values) - 2))
    assert values == expected, cert
