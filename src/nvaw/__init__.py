"""nvaw: exact workbench for finite-dimensional nonlocal vertex algebras."""

from .series import Q, Series, LinExpr, window_equal, Eq, EqResult
