"""Estimator-style wrapper around the exact factorization driver.

Follows the scikit-learn conventions (``fit`` / ``fit_transform`` /
``get_params`` / ``set_params``) so the factorizer drops into pipelines
and model-selection tooling by duck typing, without a scikit-learn
dependency.  Like manifold embeddings, there is no out-of-sample
``transform``: an exact factorization is tied to the matrix it was
computed from.
"""

from __future__ import annotations

from .driver import VerificationReport, nn_factor, verify_factorization
from .errors import NotFittedError
from .linalg import Matrix
from .validation import as_matrix


class ExactNMF:
    """Exact nonnegative matrix factorization for matrices of rank <= 3.

    fit(X) factors X into W @ H with W, H >= 0 and inner dimension at
    most ceil(6 * min(m, n) / 7), reconstructing X exactly in rational
    arithmetic.  Entries may be Fractions, ints, "p/q" strings or floats
    (floats are taken at their exact binary value).

    Attributes
    ----------
    components_ : Matrix of shape (inner_dim_, n)
        Right factor H.
    inner_dim_ : int
        Inner dimension of the factorization.
    bound_ : int
        The guaranteed bound ceil(6 * min(m, n) / 7).
    trace_ : tuple of dict
        Provenance of each block of the certificate.
    """

    def get_params(self, deep: bool = True) -> dict:
        return {}

    def set_params(self, **params) -> "ExactNMF":
        if params:
            unknown = ", ".join(sorted(params))
            raise ValueError(f"ExactNMF has no parameters; got {unknown}")
        return self

    def fit(self, X, y=None) -> "ExactNMF":
        """Compute the exact factorization of X."""
        self.fit_transform(X)
        return self

    def fit_transform(self, X, y=None) -> Matrix:
        """Factor X and return the left factor W (shape m x inner_dim_)."""
        matrix = as_matrix(X)
        fact = nn_factor(matrix)
        self.matrix_ = matrix
        self.factorization_ = fact
        self.components_ = fact.right
        self.inner_dim_ = fact.inner_dim
        self.bound_ = fact.bound
        self.trace_ = fact.trace
        self.n_features_in_ = matrix.cols
        return fact.left

    def _check_fitted(self):
        if not hasattr(self, "factorization_"):
            raise NotFittedError("call fit() or fit_transform() first")

    def inverse_transform(self, W=None) -> Matrix:
        """Reconstruct W @ components_; with no argument, reconstructs the
        fitted matrix (exactly)."""
        self._check_fitted()
        left = self.factorization_.left if W is None else as_matrix(W)
        return left @ self.components_

    def verify(self) -> VerificationReport:
        """Re-run the exact certificate checks against the fitted matrix."""
        self._check_fitted()
        return verify_factorization(self.matrix_, self.factorization_)

    def __repr__(self):
        return "ExactNMF()"
