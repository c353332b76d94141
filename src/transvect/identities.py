"""Form-change conjugation, telescoping splices, and dilation exponents.

Three exact-identity utilities that sit on top of the word/matrix layer:

* ``form_change_conjugate`` verifies that the rho/mu transvections and
  the Bass symplectic transvections transform covariantly under a
  change of alternating form phi = (1 + eps)^t phi* (1 + eps), where
  "+" denotes the orthogonal sum 1 perp eps.
* ``splice_telescoping`` factors a matrix family alpha(X) with
  alpha(0) = Id into k telescoping pieces along a unit partition
  sum c_i b_i = 1.
* ``find_dilation_exponent`` searches for the least N with
  alpha(a^N X) = beta(a^N X).
"""

from .matrices import SquareMatrix, is_alternating, row_times
from .rings import X, PolyRing, RingError, substitute
from .words import GeneratorWord, bass_symplectic_transvection, mu_matrix, rho_matrix


def form_change_conjugate(ring, eps, phi_star, q, alpha, beta,
                          u=None, v=None, ideal=None):
    """Covariance of transvections under phi = (1 + eps)^t phi* (1 + eps).

    ``eps`` is a linear generator word of size m-1 (m = size of
    phi_star), acting as 1 perp eps.  Checks by exact evaluation that

        (I_2 + P)^{-1} rho_{phi*}(q, alpha) (I_2 + P) = rho_phi(q', alpha)
        (I_2 + P)^{-1} mu_{phi*}(q, beta)  (I_2 + P) = mu_phi(q', beta)

    with P = 1 perp eval(eps) and q' = q P^{-t}, and, when u, v are
    given (rows with <u, v>_phi = 0), the Bass-transvection analogue

        T_phi(u, v, alpha) = P^{-1} T_{phi*}(u P^t, v P^t, alpha) P.

    With a proper ``ideal``, also checks that eps is made of conjugation
    triples with cores in it (or raises) and that q' = q mod the ideal.
    Returns a report dict; ``holds`` is the conjunction of all checks.
    """
    m = phi_star.n
    if not is_alternating(phi_star):
        raise RingError("phi* must be alternating")
    if eps.size != m - 1:
        raise RingError("eps must have size %d, got %d" % (m - 1, eps.size))
    if len(q) != m:
        raise RingError("q must have length %d" % m)

    one_eps = eps.shifted(1)
    phi = one_eps.congruence(phi_star)
    q_new = row_times(q, eps.inverse().shifted(1).eval().transpose())
    wide = eps.shifted(3)

    report = {}
    lhs = wide.similarity(rho_matrix(ring, q, alpha, phi_star))
    report["rho"] = lhs == rho_matrix(ring, q_new, alpha, phi)

    lhs = wide.similarity(mu_matrix(ring, q, beta, phi_star))
    report["mu"] = lhs == mu_matrix(ring, q_new, beta, phi)

    if u is not None and v is not None:
        big_t = one_eps.eval().transpose()
        u_new = row_times(u, big_t)
        v_new = row_times(v, big_t)
        lhs = bass_symplectic_transvection(ring, u, v, alpha, phi)
        rhs = one_eps.similarity(bass_symplectic_transvection(
            ring, u_new, v_new, alpha, phi_star))
        report["bass"] = lhs == rhs
    else:
        report["bass"] = None

    if ideal is not None and not ideal.is_full():
        eps.check_relative(ideal)
        report["relative"] = all(
            ideal.contains(a - ring.element(b)) for a, b in zip(q_new, q))
    else:
        report["relative"] = None

    report["holds"] = all(x for x in report.values() if x is not None)
    return report


def _subst_matrix(mat, value):
    """The matrix with ``value`` substituted for X."""
    return SquareMatrix(mat.ring, [
        [substitute(e, X, value) for e in row] for row in mat.rows])


def splice_telescoping(alpha, pairs):
    """Factor alpha(X) into k telescoping pieces along sum c_i b_i = 1.

    With T_i = sum_{t > i} c_t b_t X, the i-th factor is

        gamma(c_i b_i X, T_i) = alpha(c_i b_i X + T_i) alpha(T_i)^{-1},

    and since c_i b_i X + T_i = T_{i-1}, the ordered product of all k
    factors telescopes to alpha(X) alpha(0)^{-1} = alpha(X) exactly.
    Returns the factor list (matrices); raises if sum c_i b_i != 1 or
    alpha(0) != identity.
    """
    if not isinstance(alpha, GeneratorWord):
        raise RingError("splice_telescoping needs a GeneratorWord alpha")
    mat, mat_inv = alpha.eval(), alpha.inverse().eval()
    ring = mat.ring
    if not isinstance(ring, PolyRing) or X not in ring.names:
        raise RingError("alpha must live over a polynomial ring in %s" % X)
    zero = ring.zero()
    if not _subst_matrix(mat, zero).is_identity():
        raise RingError("alpha(0) is not the identity")
    cb = [ring.element(c) * ring.element(b) for c, b in pairs]
    total = ring.zero()
    for t in cb:
        total = total + t
    if total != ring.one():
        raise RingError("the products c_i b_i do not sum to 1")

    x = ring.var(X)
    factors = []
    for i in range(len(cb)):
        tail = ring.zero()
        for t in cb[i + 1:]:
            tail = tail + t * x
        head = cb[i] * x + tail
        factors.append(_subst_matrix(mat, head) * _subst_matrix(mat_inv, tail))

    product = SquareMatrix.identity(ring, mat.n)
    for f in factors:
        product = product * f
    if product != mat:
        raise RingError("telescoping product failed to reproduce alpha")
    return factors


def find_dilation_exponent(alpha, beta, a, bound):
    """Least N <= bound with alpha(a^N X) = beta(a^N X), or None.

    alpha, beta are polynomial matrices over the same ring (generator
    words accepted); requires alpha(0) = beta(0).
    """
    if isinstance(alpha, GeneratorWord):
        alpha = alpha.eval()
    if isinstance(beta, GeneratorWord):
        beta = beta.eval()
    ring = alpha.ring
    if not isinstance(ring, PolyRing) or X not in ring.names:
        raise RingError("matrices must live over a polynomial ring in %s" % X)
    if alpha.n != beta.n or alpha.ring is not beta.ring:
        raise RingError("matrix shape/ring mismatch")
    zero = ring.zero()
    if _subst_matrix(alpha, zero) != _subst_matrix(beta, zero):
        raise RingError("alpha(0) != beta(0)")
    x = ring.var(X)
    scale = ring.one()
    a = ring.element(a)
    for n in range(bound + 1):
        value = scale * x
        if _subst_matrix(alpha, value) == _subst_matrix(beta, value):
            return n
        scale = scale * a
    return None
